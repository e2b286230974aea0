"""Dataset representation, synthetic generator, and on-disk formats.

A dataset is a set of patients, each carrying one weak binary label and
an ``(n, S, E)`` embedding array: n spatial locations, each seen at S
magnification scales. The synthetic generator plants class signal at
exactly one scale, which gives ground truth both for classification and
for attention localization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    IntegrityError,
    check_int,
    check_real,
    read_text,
)

DEFAULT_SCALE_LABELS = ("20x", "10x", "5x")
GRID_CELL = 256.0  # synthetic patch pitch, level-0 pixel units


def _check_name(value, what: str, error: type[Exception]) -> None:
    """Raise ``error`` unless ``value``, a patient id or scale label, can
    name an output file and fill a CSV field."""
    if type(value) is not str or value == "" or set("/\\,\r\n").intersection(value):
        rule = "a non-empty string without '/', '\\', ',', CR or LF"
        raise error(f"{what} must be {rule}, got {value!r}")


@dataclass(frozen=True, eq=False)
class PatientRecord:
    """One patient: ``emb[i, s]`` embeds location ``location_ids[i]``,
    centred at ``xy[i]``, at scale ``s``."""

    patient_id: str
    label: int
    emb: np.ndarray  # (n, S, E) float64
    location_ids: np.ndarray  # (n,) int64
    xy: np.ndarray  # (n, 2) float64
    # synthetic ground truth: locations where signal was planted (empty for real data)
    signal_locations: frozenset[int] = frozenset()

    def __post_init__(self):
        _check_name(self.patient_id, "patient id", ContractError)
        if type(self.label) is not int or self.label not in (0, 1):
            raise ContractError(
                f"patient {self.patient_id}: label must be 0 or 1, got {self.label!r}"
            )
        n = len(self.emb)
        shapes_ok = self.location_ids.shape == (n,) and self.xy.shape == (n, 2)
        if self.emb.ndim != 3 or n == 0 or not shapes_ok:
            raise ContractError(
                f"patient {self.patient_id}: needs emb (n, S, E) with n >= 1, location_ids (n,) "
                f"and xy (n, 2), got {self.emb.shape}, {self.location_ids.shape}, {self.xy.shape}"
            )


@dataclass(frozen=True)
class Dataset:
    patients: tuple[PatientRecord, ...]
    scale_labels: tuple[str, ...]  # scale s is labelled scale_labels[s]
    _by_id: dict[str, PatientRecord] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id: dict[str, PatientRecord] = {}
        for p in self.patients:
            if p.patient_id in by_id:
                raise ContractError(f"duplicate patient id {p.patient_id!r}")
            by_id[p.patient_id] = p
        object.__setattr__(self, "_by_id", by_id)

    @property
    def n_scales(self) -> int:
        return len(self.scale_labels)

    @property
    def dim(self) -> int:
        return self.patients[0].emb.shape[2]

    def __iter__(self):
        return iter(self.patients)

    def __len__(self):
        return len(self.patients)

    def patient(self, patient_id: str) -> PatientRecord:
        try:
            return self._by_id[patient_id]
        except KeyError:
            raise ContractError(f"unknown patient id {patient_id!r}") from None


def default_scales(n_scales: int) -> tuple[str, ...]:
    if n_scales == 3:
        return DEFAULT_SCALE_LABELS
    return tuple(f"s{i}" for i in range(n_scales))


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a planted-signal multi-scale dataset.

    Every embedding is background prototype + Gaussian noise. Positive
    patients additionally receive ``signal_strength`` times a fixed unit
    direction at a ``signal_fraction`` subset of locations, added only
    at ``informative_scale`` -- so class evidence exists at exactly one
    scale.
    """

    n_patients_per_class: int = 10
    n_locations: int = 25
    dim: int = 32
    n_scales: int = 3
    informative_scale: int = 0
    signal_fraction: float = 0.5
    signal_strength: float = 1.0
    noise_level: float = 0.2
    n_prototypes: int = 8
    seed: int = 0

    def __post_init__(self):
        for name, low in (
            ("n_patients_per_class", 1), ("n_locations", 1), ("dim", 2), ("n_scales", 1),
            ("n_prototypes", 1), ("seed", 0),
        ):
            check_int(name, getattr(self, name), low)
        check_int("informative_scale", self.informative_scale, 0, self.n_scales - 1)
        check_real("signal_fraction", self.signal_fraction, 0, 1, open_low=True)
        if self.signal_fraction * self.n_locations < 1.0:
            raise ConfigError(
                f"signal_fraction * n_locations must be >= 1, "
                f"got {self.signal_fraction!r} * {self.n_locations}"
            )
        for name in ("signal_strength", "noise_level"):
            check_real(name, getattr(self, name), 0)
        per_location = self.n_scales * self.dim
        for names, what, floats in (
            ("n_patients_per_class, n_locations, n_scales and dim", "embedding",
             2 * self.n_patients_per_class * self.n_locations * per_location),
            ("n_prototypes, n_scales and dim", "prototype", self.n_prototypes * per_location),
        ):
            if floats > np.iinfo(np.intp).max // 8:
                raise ConfigError(
                    f"{names} give {floats} {what} floats, more than the "
                    f"{np.iinfo(np.intp).max // 8} an array can address"
                )


def _first_draws(spec: SyntheticSpec) -> tuple[np.random.Generator, np.ndarray, np.ndarray]:
    """The generator's stream after its first two draws, and those draws:
    the unit signal direction, then the background prototypes."""
    rng = np.random.default_rng(spec.seed)
    u = rng.standard_normal(spec.dim)
    u /= np.linalg.norm(u)
    return rng, u, rng.standard_normal((spec.n_prototypes, spec.n_scales, spec.dim))


def signal_direction(spec: SyntheticSpec) -> np.ndarray:
    """The unit direction the generator plants."""
    return _first_draws(spec)[1]


def background_prototypes(spec: SyntheticSpec) -> np.ndarray:
    """The (n_prototypes, n_scales, dim) cluster centers the generator uses."""
    return _first_draws(spec)[2]


def _grid_xy(n_locations: int) -> np.ndarray:
    side = int(np.ceil(np.sqrt(n_locations)))
    i = np.arange(n_locations)
    return np.stack([i % side, i // side], axis=1) * GRID_CELL + GRID_CELL / 2


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic planted-signal dataset; identical spec => identical bytes."""
    rng, u, prototypes = _first_draws(spec)
    n_signal = max(1, int(round(spec.signal_fraction * spec.n_locations)))
    location_ids = np.arange(spec.n_locations)
    xy = _grid_xy(spec.n_locations)

    patients = []
    for label in (0, 1):
        for p in range(spec.n_patients_per_class):
            pid = f"{'pos' if label else 'neg'}{p:03d}"
            proto_of = rng.integers(0, spec.n_prototypes, size=spec.n_locations)
            noise = rng.standard_normal((spec.n_locations, spec.n_scales, spec.dim))
            emb = prototypes[proto_of] + spec.noise_level * noise
            signal_locs: frozenset[int] = frozenset()
            if label == 1:
                chosen = rng.choice(spec.n_locations, size=n_signal, replace=False)
                emb[chosen, spec.informative_scale, :] += spec.signal_strength * u
                signal_locs = frozenset(int(c) for c in chosen)
            patients.append(PatientRecord(pid, label, emb, location_ids, xy, signal_locs))
    return Dataset(tuple(patients), default_scales(spec.n_scales))


def split_train_test(dataset: Dataset, n_test_per_class: int) -> tuple[Dataset, Dataset]:
    """Hold out the last ``n_test_per_class`` patients of each class."""
    train, test = [], []
    for label in (0, 1):
        group = [p for p in dataset if p.label == label]
        if len(group) <= n_test_per_class:
            raise ContractError(
                f"class {label} has {len(group)} patients, cannot hold out {n_test_per_class}"
            )
        cut = len(group) - n_test_per_class
        train.extend(group[:cut])
        test.extend(group[cut:])
    return Dataset(tuple(train), dataset.scale_labels), Dataset(tuple(test), dataset.scale_labels)


# --- on-disk format -------------------------------------------------------
#
# manifest.json: {"patients": [{patient_id, label, file, n_locations,
#                               n_scales, dim, scale_labels}, ...]}
# one table per patient, columns location_id, scale, x, y, e0, ..., e{E-1};
# one row per (location, scale), locations ascending, then scales 0..S-1,
# so row i*S + s holds emb[i, s]. save_dataset writes it as a float64
# <patient_id>.npy, the one file type load_dataset reads; errors name a
# table's rows by array index.
# signal_locations.json: {patient_id: [location_id, ...]}, synthetic only

_EXACT_INT = 2.0**53  # ids are stored as float64, exact below this


def save_dataset(dataset: Dataset, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    labels = list(dataset.scale_labels)
    signal = {}
    for p in dataset:
        fname = f"{p.patient_id}.npy"
        n, n_scales, dim = p.emb.shape
        if np.abs(p.location_ids).max() >= _EXACT_INT:
            raise ContractError(
                f"patient {p.patient_id}: location ids must be below 2**53 in magnitude"
            )
        order = np.argsort(p.location_ids, kind="stable")
        table = np.empty((n, n_scales, 4 + dim))
        table[:, :, 0] = p.location_ids[order, None]
        table[:, :, 1] = np.arange(n_scales)
        table[:, :, 2:4] = p.xy[order, None]
        table[:, :, 4:] = p.emb[order]
        np.save(out / fname, table.reshape(n * n_scales, 4 + dim))
        entries.append(
            {
                "patient_id": p.patient_id,
                "label": p.label,
                "file": fname,
                "n_locations": n,
                "n_scales": dataset.n_scales,
                "dim": dim,
                "scale_labels": labels,
            }
        )
        if p.signal_locations:
            signal[p.patient_id] = sorted(p.signal_locations)
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"patients": entries}, indent=2, sort_keys=True) + "\n")
    gt = out / "signal_locations.json"
    if signal:
        gt.write_text(json.dumps(signal, indent=2, sort_keys=True) + "\n")
    elif gt.exists():
        gt.unlink()
    return manifest


_MANIFEST_KEYS = ("patient_id", "label", "file", "n_locations", "n_scales", "dim", "scale_labels")


def load_dataset(manifest_path: str | Path) -> Dataset:
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise IntegrityError(f"manifest not found: {manifest_path}")
    try:
        doc = json.loads(read_text(manifest_path))
    except json.JSONDecodeError as e:
        raise FormatError(f"manifest is not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "patients" not in doc:
        raise FormatError("manifest must be an object with a 'patients' list")
    base = manifest_path.parent
    gt_path = base / "signal_locations.json"
    signal = _read_ground_truth(gt_path)

    patients = []
    seen: set[str] = set()
    scale_labels: tuple[str, ...] | None = None
    first_dim: int | None = None
    if not isinstance(doc["patients"], list):
        raise FormatError("manifest 'patients' must be a list")
    for index, entry in enumerate(doc["patients"]):
        if not isinstance(entry, dict):
            raise FormatError(f"manifest entry {index} is not an object")
        missing = [key for key in _MANIFEST_KEYS if key not in entry]
        if missing:
            who = f"patient {entry['patient_id']}" if "patient_id" in entry else f"entry {index}"
            raise FormatError(f"manifest {who} lacks key(s) {', '.join(map(repr, missing))}")
        pid, label = entry["patient_id"], entry["label"]
        _check_name(pid, f"manifest entry {index}: patient_id", FormatError)
        if pid in seen:
            raise FormatError(f"manifest lists patient {pid} more than once")
        seen.add(pid)
        _check_entry_fields(entry, pid)
        n_scales, dim = entry["n_scales"], entry["dim"]
        if first_dim is None:
            first_dim = dim
        elif dim != first_dim:
            raise FormatError(f"patient {pid}: dim {dim} differs from dataset dim {first_dim}")
        entry_labels = tuple(entry["scale_labels"])
        if n_scales != len(entry_labels):
            raise FormatError(
                f"patient {pid}: n_scales {n_scales} but {len(entry_labels)} scale_labels"
            )
        if scale_labels is None:
            scale_labels = entry_labels
        elif scale_labels != entry_labels:
            raise FormatError(f"patient {pid}: scale_labels differ from previous patients")
        path = base / entry["file"]
        if path.suffix != ".npy":
            raise FormatError(f"patient {pid}: {path.name} is not a .npy file")
        if not path.exists():
            raise IntegrityError(f"patient {pid}: embedding file missing: {path}")
        table = _read_npy(path, pid, dim)
        emb, location_ids, xy = _patient_arrays(table, pid, n_scales, entry["n_locations"])
        planted = frozenset(signal.get(pid, ()))
        unknown = sorted(planted.difference(location_ids.tolist()))
        if unknown:
            raise FormatError(f"{gt_path}: patient {pid} has no location(s) {unknown[:5]}")
        patients.append(PatientRecord(pid, label, emb, location_ids, xy, planted))
    if scale_labels is None:
        raise IntegrityError("manifest lists no patients")
    strangers = sorted(set(signal) - seen)
    if strangers:
        raise FormatError(f"{gt_path}: patient(s) {strangers[:5]} are not in the manifest")
    return Dataset(tuple(patients), scale_labels)


def _check_entry_fields(entry: dict, pid: str) -> None:
    """FormatError naming the patient unless the entry's file is a string,
    its counts are ints >= 1 and its scale labels are a list of distinct
    names."""
    if not isinstance(entry["file"], str):
        raise FormatError(f"patient {pid}: file must be a string, got {entry['file']!r}")
    for key in ("n_locations", "n_scales", "dim"):
        if type(entry[key]) is not int or entry[key] < 1:
            raise FormatError(f"patient {pid}: {key} must be an integer >= 1, got {entry[key]!r}")
    labels = entry["scale_labels"]
    if not isinstance(labels, list):
        raise FormatError(f"patient {pid}: scale_labels must be a list, got {labels!r}")
    for label in labels:
        _check_name(label, f"patient {pid}: a scale label", FormatError)
    if len(set(labels)) != len(labels):
        raise FormatError(f"patient {pid}: scale_labels repeat a label: {labels!r}")


def _read_ground_truth(path: Path) -> dict[str, list[int]]:
    """signal_locations.json as {patient_id: [location_id, ...]}; {} if absent."""
    if not path.exists():
        return {}
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict) or not all(
        isinstance(ids, list) and all(type(i) is int for i in ids) for ids in doc.values()
    ):
        raise FormatError(f"{path}: must map patient ids to lists of integer location ids")
    return doc


def _read_npy(path: Path, pid: str, dim: int) -> np.ndarray:
    """One patient's ``(rows, 4 + dim)`` float64 table from a .npy file."""
    with path.open("rb") as f:
        try:
            table = np.lib.format.read_array(f, allow_pickle=False)
        except (ValueError, EOFError) as e:
            raise FormatError(f"patient {pid}: {path.name} is not a readable .npy: {e}") from e
        if f.read(1):
            raise FormatError(f"patient {pid}: {path.name} has bytes after its array")
    if table.dtype.str != "<f8" or table.shape[1:] != (4 + dim,):
        raise FormatError(
            f"patient {pid}: {path.name} holds a {table.dtype.str} array of shape {table.shape}, "
            f"expected <f8 of shape (rows, {4 + dim})"
        )
    return table


def _row_ids(table: np.ndarray, pid: str, n_scales: int) -> np.ndarray:
    """The ``(rows, 2)`` int64 (location, scale) ids of a table.

    Rejects, at the first offending row, ids that are not integers, an
    unknown scale and a repeated (location, scale) pair.
    """
    ids = table[:, :2]
    exact = np.isfinite(ids) & (ids == np.trunc(ids)) & (np.abs(ids) < _EXACT_INT)
    bad = np.flatnonzero(~exact.all(axis=1))
    if len(bad):
        raise FormatError(
            f"patient {pid}: row {bad[0]} has a location id or scale that is "
            "not an integer below 2**53"
        )
    ids = ids.astype(np.int64)
    unknown = (ids[:, 1] < 0) | (ids[:, 1] >= n_scales)
    order = np.lexsort((ids[:, 1], ids[:, 0]))  # stable: a repeat sorts after its first row
    repeat = np.zeros(len(ids), dtype=bool)
    repeat[order[1:][(ids[order[1:]] == ids[order[:-1]]).all(axis=1)]] = True
    bad = np.flatnonzero(unknown | repeat)
    if len(bad):
        loc, s = ids[bad[0]].tolist()
        problem = f"names unknown scale {s}" if unknown[bad[0]] else "is a duplicate entry"
        raise IntegrityError(f"patient {pid}: row {bad[0]} {problem} for (location {loc}, scale {s})")
    return ids


def _patient_arrays(
    table: np.ndarray, pid: str, n_scales: int, n_locations: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check one patient's table and build ``(emb (n, S, E), location_ids (n,), xy (n, 2))``."""
    ids = _row_ids(table, pid, n_scales)
    bad = np.flatnonzero(~np.isfinite(table[:, 2:]).all(axis=1))
    if len(bad):
        raise FormatError(f"patient {pid}: row {bad[0]} holds a non-finite value")
    location_ids, location = np.unique(ids[:, 0], return_inverse=True)
    rows = np.full((len(location_ids), n_scales), -1, dtype=np.int64)
    rows[location, ids[:, 1]] = np.arange(len(ids))
    incomplete = np.flatnonzero((rows < 0).any(axis=1))
    if len(incomplete):
        i = incomplete[0]
        raise IntegrityError(
            f"patient {pid}: location {location_ids[i]} is missing scale(s) "
            f"{np.flatnonzero(rows[i] < 0).tolist()}"
        )
    xy = table[rows, 2:4]  # (n, S, 2): one coordinate pair per scale row
    inconsistent = np.flatnonzero((xy != xy[:, :1]).any(axis=(1, 2)))
    if len(inconsistent):
        raise IntegrityError(
            f"patient {pid}: location {location_ids[inconsistent[0]]} has inconsistent coordinates"
        )
    if len(location_ids) != n_locations:
        raise IntegrityError(
            f"patient {pid}: manifest says {n_locations} locations, file has {len(location_ids)}"
        )
    return np.ascontiguousarray(table[rows, 4:]), location_ids, np.ascontiguousarray(xy[:, 0])
