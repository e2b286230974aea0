import json
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from crossmil.data import (
    background_prototypes,
    Dataset,
    PatientRecord,
    SyntheticSpec,
    default_scales,
    generate_synthetic,
    load_dataset,
    save_dataset,
    signal_direction,
    split_train_test,
)
from crossmil.errors import ConfigError, ContractError, FormatError, IntegrityError


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    if a.scale_labels != b.scale_labels or len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        if (pa.patient_id, pa.label, pa.signal_locations) != (
            pb.patient_id,
            pb.label,
            pb.signal_locations,
        ):
            return False
        if not all(
            np.array_equal(getattr(pa, f), getattr(pb, f)) for f in ("emb", "location_ids", "xy")
        ):
            return False
    return True


def patient(pid, label, n=1, n_scales=3, dim=2):
    return PatientRecord(
        pid, label, np.zeros((n, n_scales, dim)), np.arange(n), np.full((n, 2), 128.0)
    )


class TestSyntheticGenerator:
    def test_deterministic_for_same_seed(self):
        spec = SyntheticSpec(n_patients_per_class=3, n_locations=8, dim=6, seed=7)
        assert datasets_equal(generate_synthetic(spec), generate_synthetic(spec))

    def test_no_signal_means_classes_drawn_identically(self):
        # with zero strength the signal branch is a no-op: the only
        # difference from a signalled dataset is at (positive, s*, planted)
        base = dict(n_patients_per_class=3, n_locations=10, dim=8, seed=5, informative_scale=1)
        flat = generate_synthetic(SyntheticSpec(signal_strength=0.0, **base))
        signalled = generate_synthetic(SyntheticSpec(signal_strength=1.0, **base))
        for p0, p1 in zip(flat, signalled):
            for i, loc in enumerate(p0.location_ids):
                for s in range(3):
                    planted = p0.label == 1 and s == 1 and loc in p1.signal_locations
                    assert np.array_equal(p0.emb[i, s], p1.emb[i, s]) != planted

    def test_noise_free_full_fraction_separates_exactly(self):
        spec = SyntheticSpec(
            n_patients_per_class=4,
            n_locations=6,
            dim=8,
            seed=3,
            signal_fraction=1.0,
            noise_level=0.0,
            signal_strength=2.0,
            informative_scale=2,
        )
        ds = generate_synthetic(spec)
        protos = background_prototypes(spec)[:, 2, :]
        # zero noise: at s* a negative IS a prototype and a positive is a
        # prototype plus the planted vector, so the nearest-prototype
        # residual is exactly 0 vs exactly signal_strength
        for p in ds:
            for vector in p.emb[:, 2]:
                residual = np.linalg.norm(protos - vector, axis=1).min()
                expected = 2.0 if p.label == 1 else 0.0
                assert residual == pytest.approx(expected, abs=1e-9)

    def test_signal_locations_recorded_only_for_positives(self):
        spec = SyntheticSpec(n_patients_per_class=3, n_locations=10, signal_fraction=0.3, seed=1)
        for p in generate_synthetic(spec):
            if p.label == 0:
                assert p.signal_locations == frozenset()
            else:
                assert len(p.signal_locations) == 3

    def test_mean_projection_gap_exceeds_three_standard_errors(self):
        spec = SyntheticSpec(
            n_patients_per_class=40,
            n_locations=25,
            dim=32,
            seed=13,
            signal_fraction=0.5,
            signal_strength=1.0,
            noise_level=0.2,
        )
        ds = generate_synthetic(spec)
        u = signal_direction(spec)
        proj = {0: [], 1: []}
        for p in ds:
            proj[p.label].extend((p.emb[:, spec.informative_scale] @ u).tolist())
        pos, neg = np.asarray(proj[1]), np.asarray(proj[0])
        pooled_se = np.sqrt(pos.var(ddof=1) / len(pos) + neg.var(ddof=1) / len(neg))
        assert pos.mean() - neg.mean() >= 3 * pooled_se

    @pytest.mark.parametrize(
        "bad",
        [
            dict(dim=1),
            dict(n_locations=0),
            dict(signal_fraction=0.0),
            dict(signal_fraction=1.5),
            dict(informative_scale=3),
            dict(signal_fraction=0.01, n_locations=10),
            dict(dim="8"),
            dict(n_locations=9.0),
            dict(signal_strength="1"),
            dict(noise_level=-0.1),
            dict(seed=-1),
        ],
    )
    def test_degenerate_spec_rejected(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            generate_synthetic(SyntheticSpec(**bad))

    def test_scale_completeness(self):
        ds = generate_synthetic(SyntheticSpec(n_patients_per_class=2, n_locations=5, seed=0))
        for p in ds:
            assert p.emb.shape == (5, ds.n_scales, 32)
            assert sorted(p.location_ids.tolist()) == list(range(5))
            assert p.xy.shape == (5, 2)

    def test_split_train_test_partitions_each_class(self):
        ds = generate_synthetic(SyntheticSpec(n_patients_per_class=5, n_locations=4, seed=2))
        train, test = split_train_test(ds, 2)
        assert sum(p.label for p in test) == 2 and len(test) == 4
        assert {p.patient_id for p in train}.isdisjoint({p.patient_id for p in test})
        with pytest.raises(ContractError):
            split_train_test(ds, 5)


class TestDiskFormat:
    @pytest.fixture
    def dataset(self):
        return generate_synthetic(
            SyntheticSpec(n_patients_per_class=2, n_locations=4, dim=5, seed=21)
        )

    def test_round_trip(self, dataset, tmp_path):
        manifest = save_dataset(dataset, tmp_path / "ds")
        assert datasets_equal(load_dataset(manifest), dataset)

    def test_second_save_is_byte_identical(self, dataset, tmp_path):
        m1 = save_dataset(dataset, tmp_path / "a")
        loaded = load_dataset(m1)
        m2 = save_dataset(loaded, tmp_path / "b")
        for f1 in sorted((tmp_path / "a").iterdir()):
            f2 = tmp_path / "b" / f1.name
            assert f1.read_bytes() == f2.read_bytes(), f1.name

    def test_empty_patient_list_saves_valid_manifest(self, tmp_path):
        manifest = save_dataset(Dataset((), default_scales(3)), tmp_path)
        assert json.loads(manifest.read_text()) == {"patients": []}

    def test_missing_embedding_file(self, dataset, tmp_path):
        manifest = save_dataset(dataset, tmp_path)
        (tmp_path / "neg001.npy").unlink()
        with pytest.raises(IntegrityError, match="neg001"):
            load_dataset(manifest)

    def test_dimension_mismatch_is_a_format_error(self, dataset, tmp_path):
        manifest = save_dataset(dataset, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["patients"][0]["dim"] = 9
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_dataset(manifest)

    def test_mixed_dims_across_patients_rejected(self, dataset, tmp_path):
        manifest = save_dataset(dataset, tmp_path)
        doc = json.loads(manifest.read_text())
        for entry in doc["patients"]:
            if entry["patient_id"] == "pos001":
                entry["dim"] = 3
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="pos001"):
            load_dataset(manifest)

    def test_clinical_shaped_width_loads(self, tmp_path):
        # 2048-channel rows, the width real embedding extractors emit
        ds = Dataset(
            (patient("case0", 0, dim=2048), patient("case1", 1, dim=2048)),
            default_scales(3),
        )
        loaded = load_dataset(save_dataset(ds, tmp_path))
        assert loaded.dim == 2048 and datasets_equal(loaded, ds)
        save_dataset(loaded, tmp_path / "again")
        for name in ("case0.npy", "case1.npy", "manifest.json"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "again" / name).read_bytes()

    def test_signal_ground_truth_round_trips(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_patients_per_class=2, n_locations=6, seed=9))
        loaded = load_dataset(save_dataset(ds, tmp_path))
        for p, q in zip(ds, loaded):
            assert p.signal_locations == q.signal_locations

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("{oops", "not valid JSON"),
            ("[[0, 1]]", "must map patient ids"),
            ('{"pos000": 4}', "must map patient ids"),
            ('{"pos000": [0, "1"]}', "must map patient ids"),
            ('{"pos000": [0, 1.5]}', "must map patient ids"),
            ('{"pos000": [true]}', "must map patient ids"),
            ('{"pos000": [0, 6, 9]}', r"patient pos000 has no location\(s\) \[6, 9\]"),
            ('{"pos000": [0], "pos999": [1]}', r"\['pos999'\] are not in the manifest"),
        ],
    )
    def test_malformed_ground_truth_is_a_format_error_naming_it(self, tmp_path, text, problem):
        ds = generate_synthetic(SyntheticSpec(n_patients_per_class=2, n_locations=6, seed=9))
        manifest = save_dataset(ds, tmp_path)
        (tmp_path / "signal_locations.json").write_text(text)
        with pytest.raises(FormatError, match=r"signal_locations\.json: .*" + problem):
            load_dataset(manifest)

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("patient_id", "../evil", "entry 1: patient_id"),
            ("patient_id", "a,b", "entry 1: patient_id"),
            ("patient_id", "a\\b", "entry 1: patient_id"),
            ("patient_id", "a\nb", "entry 1: patient_id"),
            ("patient_id", "a\rb", "entry 1: patient_id"),
            ("patient_id", "", "entry 1: patient_id"),
            ("patient_id", 7, "entry 1: patient_id"),
            ("file", 7, "neg001: file"),
            ("n_locations", "4", "neg001: n_locations"),
            ("n_locations", 0, "neg001: n_locations"),
            ("n_scales", True, "neg001: n_scales"),
            ("dim", "5", "neg001: dim"),
            ("dim", 5.0, "neg001: dim"),
            ("scale_labels", "20x", "neg001: scale_labels"),
            ("scale_labels", ["20x", "10x", 5], "neg001: a scale label"),
            ("scale_labels", ["20x", "10x", "a/b"], "neg001: a scale label"),
        ],
    )
    def test_manifest_field_of_wrong_type_is_a_format_error_naming_the_entry(
        self, dataset, tmp_path, key, value, named
    ):
        manifest = save_dataset(dataset, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["patients"][1][key] = value
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=named):
            load_dataset(manifest)

    @pytest.mark.parametrize("label", [True, 2, 1.0, "1"])
    def test_manifest_label_other_than_int_0_or_1_names_the_patient(
        self, dataset, tmp_path, label
    ):
        manifest = save_dataset(dataset, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["patients"][1]["label"] = label
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ContractError, match="neg001: label must be 0 or 1"):
            load_dataset(manifest)

    def test_duplicate_patient_id_in_manifest_rejected(self, dataset, tmp_path):
        manifest = save_dataset(dataset, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["patients"][1]["patient_id"] = doc["patients"][0]["patient_id"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="neg000.*more than once"):
            load_dataset(manifest)


def _edit_table(fn):
    """A file edit that saves fn(table) back as pos001's .npy."""

    def edit(path):
        np.save(path, fn(np.load(path)))

    return edit


def _set(row, column, value):
    def fn(table):
        table[row, column] = value
        return table

    return _edit_table(fn)


def _fill(table, cells, value):
    for row, column in cells:
        table[row, column] = value
    return table


def _write_bytes(fn):
    return lambda path: path.write_bytes(fn(path.read_bytes()))


def _save_object_array(path):
    np.save(path, np.load(path).astype(object), allow_pickle=True)


def _out_of_place(row, location, scale):
    """The message naming the first row out of the store's row order."""
    return rf"row {row} \(location {location}, scale {scale}\) is out of place"


MALFORMED_NPY = {
    "truncated data": (_write_bytes(lambda b: b[:-8]), FormatError, "not a readable .npy"),
    "truncated header": (_write_bytes(lambda b: b[:20]), FormatError, "not a readable .npy"),
    "trailing bytes": (_write_bytes(lambda b: b + b"\0"), FormatError, "bytes after"),
    "pickle": (_write_bytes(pickle.dumps), FormatError, "not a readable .npy"),
    "object array": (_save_object_array, FormatError, "not a readable .npy"),
    "int64": (_edit_table(lambda t: t.astype(np.int64)), FormatError, "<i8"),
    "float32": (_edit_table(lambda t: t.astype(np.float32)), FormatError, "<f4"),
    "big-endian": (_edit_table(lambda t: t.astype(">f8")), FormatError, ">f8"),
    "1-D": (_edit_table(lambda t: t.ravel()), FormatError, r"shape \(108,\)"),
    "wrong width": (_edit_table(lambda t: t[:, :-1]), FormatError, r"shape \(12, 8\)"),
    "fractional location id": (_set(2, 0, 1.5), FormatError, "row 2 .*not an integer"),
    "nan scale": (_set(2, 1, np.nan), FormatError, "row 2 .*not an integer"),
    "huge location id": (_set(2, 0, 2.0**60), FormatError, "row 2 .*not an integer"),
    "non-finite value": (_set(5, 7, np.inf), FormatError, "row 5 holds a non-finite"),
    "non-finite coordinate": (_set(6, 2, np.nan), FormatError, "row 6 holds a non-finite"),
    "non-finite y coordinate": (_set(6, 3, np.inf), FormatError, "row 6 holds a non-finite"),
    "negative infinite value": (_set(5, 4, -np.inf), FormatError, "row 5 holds a non-finite"),
    "two non-finite rows": (_edit_table(lambda t: _fill(t, [(9, 5), (2, 8)], np.nan)), FormatError,
                            "row 2 holds a non-finite"),
    "unknown scale": (_set(4, 1, 3.0), IntegrityError, _out_of_place(4, 1, 3)),
    "negative scale": (_set(4, 1, -1.0), IntegrityError, _out_of_place(4, 1, -1)),
    "duplicate": (_set(3, 0, 0.0), IntegrityError, _out_of_place(3, 0, 0)),
    "missing scale": (_edit_table(lambda t: np.delete(t, 4, axis=0)), IntegrityError,
                      _out_of_place(4, 1, 2)),
    "missing scales": (_edit_table(lambda t: np.delete(t, [3, 5], axis=0)), IntegrityError,
                       _out_of_place(3, 1, 1)),
    "location id changes within a location's rows": (_set(4, 0, 2.0), IntegrityError,
                                                     _out_of_place(4, 2, 1)),
    "permuted rows": (_edit_table(lambda t: t[[*range(3), 6, 7, 8, 3, 4, 5, *range(9, 12)]]),
                      IntegrityError, _out_of_place(6, 1, 0)),
    "inconsistent coordinates": (_set(4, 3, 0.0), IntegrityError, "location 1 has inconsistent"),
    "fewer locations than the manifest": (_edit_table(lambda t: t[:-3]), IntegrityError,
                                          "manifest says 4 locations at 3 scales, 12 rows; "
                                          "file has 9"),
}


class TestNpyStore:
    @pytest.fixture
    def dataset(self):
        return generate_synthetic(
            SyntheticSpec(n_patients_per_class=2, n_locations=4, dim=5, seed=21)
        )

    def test_table_rows_are_locations_then_scales(self, dataset, tmp_path):
        save_dataset(dataset, tmp_path)
        p = dataset.patient("pos001")
        table = np.load(tmp_path / "pos001.npy", allow_pickle=False)
        assert table.dtype.str == "<f8" and table.shape == (4 * 3, 4 + 5)
        np.testing.assert_array_equal(table[:, 0], np.repeat(p.location_ids, 3))
        np.testing.assert_array_equal(table[:, 1], np.tile(np.arange(3), 4))
        np.testing.assert_array_equal(table[:, 2:4], np.repeat(p.xy, 3, axis=0))
        np.testing.assert_array_equal(table[:, 4:], p.emb.reshape(12, 5))

    def test_locations_saved_ascending(self, tmp_path):
        emb = np.arange(3 * 2 * 2, dtype=np.float64).reshape(3, 2, 2)
        xy = np.array([[0.0, 5.0], [1.0, 2.0], [2.0, 9.0]])
        ds = Dataset(
            (PatientRecord("case0", 0, emb, np.array([5, 2, 9]), xy),), default_scales(2)
        )
        loaded = load_dataset(save_dataset(ds, tmp_path)).patient("case0")
        np.testing.assert_array_equal(loaded.location_ids, [2, 5, 9])
        np.testing.assert_array_equal(loaded.emb, emb[[1, 0, 2]])
        np.testing.assert_array_equal(loaded.xy, xy[[1, 0, 2]])

    def test_readme_ingest_recipe_loads_back_unsorted_ids(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        [recipe] = [
            block for block in re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
            if "np.save(path, table)" in block
        ]
        rng = np.random.default_rng(5)
        ids = np.array([7, 2, 11, 5])
        emb, xy = rng.standard_normal((4, 3, 6)), rng.standard_normal((4, 2))
        exec(recipe, {"np": np, "emb": emb, "ids": ids, "xy": xy, "path": tmp_path / "case0.npy"})
        entry = dict(patient_id="case0", label=1, file="case0.npy", n_locations=4, n_scales=3,
                     dim=6, scale_labels=list(default_scales(3)))
        (tmp_path / "manifest.json").write_text(json.dumps({"patients": [entry]}))
        loaded = load_dataset(tmp_path / "manifest.json").patient("case0")
        order = [1, 3, 0, 2]
        np.testing.assert_array_equal(loaded.location_ids, ids[order])
        np.testing.assert_array_equal(loaded.emb, emb[order])
        np.testing.assert_array_equal(loaded.xy, xy[order])

    def test_location_id_beyond_float64_integers_rejected_on_save(self, tmp_path):
        ds = Dataset(
            (PatientRecord("case0", 0, np.zeros((1, 3, 2)), np.array([2**60]), np.zeros((1, 2))),),
            default_scales(3),
        )
        with pytest.raises(ContractError, match="case0"):
            save_dataset(ds, tmp_path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_NPY))
    def test_malformed_table_is_a_typed_error_naming_the_patient(self, dataset, tmp_path, case):
        edit, error, message = MALFORMED_NPY[case]
        manifest = save_dataset(dataset, tmp_path)
        edit(tmp_path / "pos001.npy")
        with pytest.raises(error, match=f"patient pos001: .*{message}"):
            load_dataset(manifest)

    @pytest.mark.parametrize("suffix", [".txt", ".csv"])
    def test_unknown_suffix_is_a_format_error(self, dataset, tmp_path, suffix):
        manifest = save_dataset(dataset, tmp_path)
        name = "pos001" + suffix
        (tmp_path / "pos001.npy").rename(tmp_path / name)
        doc = json.loads(manifest.read_text())
        for entry in doc["patients"]:
            if entry["patient_id"] == "pos001":
                entry["file"] = name
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=rf"patient pos001: pos001\{suffix} is not a \.npy"):
            load_dataset(manifest)

    def test_n_scales_must_match_scale_labels(self, dataset, tmp_path):
        manifest = save_dataset(dataset, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["patients"][0]["n_scales"] = 2
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="neg000: n_scales 2 but 3 scale_labels"):
            load_dataset(manifest)

class TestDatasetIndex:
    def test_duplicate_patient_id_rejected(self):
        with pytest.raises(ContractError, match="case0"):
            Dataset((patient("case0", 0), patient("case0", 1)), default_scales(3))

    def test_lookup_by_id(self):
        ds = generate_synthetic(SyntheticSpec(n_patients_per_class=3, n_locations=4, seed=1))
        for p in ds:
            assert ds.patient(p.patient_id) is p
        with pytest.raises(ContractError, match="nobody"):
            ds.patient("nobody")

    @pytest.mark.parametrize("pid", ["", "a/b", "a\\b", "a,b", "a\rb", "a\nb", 7, None])
    def test_patient_id_must_be_a_name(self, pid):
        with pytest.raises(ContractError, match="patient id must be a non-empty string"):
            patient(pid, 0)

    @pytest.mark.parametrize("label", [True, False, 1.0, 2, "0"])
    def test_label_must_be_the_int_0_or_1(self, label):
        with pytest.raises(ContractError, match="case0: label must be 0 or 1"):
            patient("case0", label)

    def test_patient_arrays_must_agree(self):
        with pytest.raises(ContractError, match="case0"):
            PatientRecord("case0", 0, np.zeros((3, 2, 4)), np.arange(2), np.zeros((3, 2)))
        with pytest.raises(ContractError, match="case1"):
            PatientRecord("case1", 0, np.zeros((0, 2, 4)), np.arange(0), np.zeros((0, 2)))
