"""Per-scale attention maps as arrays: a patient's ``xy`` (n, 2) patch
centers and ``scores`` (n, S), both in its location order.

The models' scores are averaged, rescaled to [0, 1] within each scale,
binned onto a grid by patch-center coordinates, and written as binary
graymaps: 0 marks cells with no data, values map onto 1..255.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import PatientRecord
from .errors import ConfigError, ContractError, GeometryError
from .models import AttentionRecord

# Most cells one heatmap grid may have. Rendering holds a float64 plane per
# scale plus a count plane, so a grid at this bound takes 32 MiB per plane.
MAX_GRID_CELLS = 2**22


@dataclass(frozen=True)
class GridGeometry:
    origin_x: float
    origin_y: float
    cell_size: float
    n_cols: int
    n_rows: int


@dataclass(frozen=True)
class Heatmap:
    scale_label: str
    values: np.ndarray  # (n_rows, n_cols); NaN = no data, else in [0, 1]


def aggregate_records(per_model: list[list[AttentionRecord]]) -> np.ndarray:
    """Mean scores over the models' record lists, which must list the same
    locations in the same order, as (n, S) in that order."""
    keys = [[(r.patient_id, r.location_id) for r in records] for records in per_model]
    if not keys or any(k != keys[0] for k in keys):
        raise ContractError("aggregate_records needs models whose records list the same locations")
    return np.mean([[r.scores for r in records] for records in per_model], axis=0)


def normalize_per_scale(scores: np.ndarray) -> np.ndarray:
    """Min-max rescale each column of the (n, S) scores.

    A scale whose scores are all equal maps to 0.5 everywhere. The map is
    monotone, so within-scale ordering is preserved.
    """
    if scores.ndim != 2 or len(scores) == 0:
        raise ContractError(f"normalize_per_scale needs (n, S) scores with n >= 1, got {scores.shape}")
    lo = scores.min(axis=0)
    hi = scores.max(axis=0)
    span = hi - lo
    flat = span == 0.0
    span[flat] = 1.0
    normalized = (scores - lo) / span
    normalized[:, flat] = 0.5
    return normalized


def geometry_for(xy: np.ndarray, cell_size: float) -> GridGeometry:
    """The grid of ``cell_size`` cells, aligned to multiples of it, that
    covers the (n, 2) points; at most ``MAX_GRID_CELLS`` cells."""
    # counted in floats, so a tiny cell size cannot overflow before the check
    with np.errstate(over="ignore", invalid="ignore"):
        origin = np.floor(xy.min(axis=0) / cell_size) * cell_size
        extent = np.floor((xy.max(axis=0) - origin) / cell_size) + 1.0
        n_cells = extent.prod()
    if not (extent.min() >= 1.0 and n_cells <= MAX_GRID_CELLS):
        raise ConfigError(
            f"render.cell_size {cell_size!r} makes a {extent[0]:.3g} x {extent[1]:.3g} grid; "
            f"a grid has 1 to {MAX_GRID_CELLS} cells"
        )
    n_cols, n_rows = extent.astype(int).tolist()
    return GridGeometry(float(origin[0]), float(origin[1]), cell_size, n_cols, n_rows)


def render_heatmaps(
    xy: np.ndarray, scores: np.ndarray, geometry: GridGeometry, scale_labels: Sequence[str]
) -> list[Heatmap]:
    """One heatmap per scale; a cell's value is the mean score of its points,
    added in location order."""
    n_scales = len(scale_labels)
    if scores.shape != (len(xy), n_scales):
        raise ContractError(f"scores have shape {scores.shape}, expected ({len(xy)}, {n_scales})")
    g = geometry
    cols = np.floor((xy[:, 0] - g.origin_x) / g.cell_size)
    rows = np.floor((xy[:, 1] - g.origin_y) / g.cell_size)
    inside = (0 <= cols) & (cols < g.n_cols) & (0 <= rows) & (rows < g.n_rows)
    if not inside.all():
        i = int(np.argmin(inside))
        where = tuple(xy[i].tolist())
        raise GeometryError(f"location {i} at {where} is outside the {g.n_cols}x{g.n_rows} grid")
    cells = rows.astype(np.intp) * g.n_cols + cols.astype(np.intp)
    sums = np.zeros((g.n_rows * g.n_cols, n_scales))
    np.add.at(sums, cells, scores)
    counts = np.bincount(cells, minlength=len(sums))[:, None]
    means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    planes = means.T.reshape(n_scales, g.n_rows, g.n_cols)
    return [Heatmap(label, plane) for label, plane in zip(scale_labels, planes)]


def heatmap_to_pgm(heatmap: Heatmap) -> bytes:
    """Binary graymap: NO-DATA cells are 0, data maps to 1..255."""
    v = heatmap.values
    pixels = np.zeros(v.shape, dtype=np.uint8)
    mask = ~np.isnan(v)
    pixels[mask] = (1.0 + np.floor(v[mask] * 254.0 + 0.5)).astype(np.uint8)
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode()
    return header + pixels.tobytes()


def write_heatmap(heatmap: Heatmap, path: str | Path) -> Path:
    path = Path(path)
    path.write_bytes(heatmap_to_pgm(heatmap))
    return path


def write_records_csv(maps: list[tuple[PatientRecord, np.ndarray]], path: str | Path) -> Path:
    """One row per location of each (patient, (n, S) scores) pair, in order."""
    if not maps:
        raise ContractError("no attention scores to write")
    n_scales = maps[0][1].shape[1]
    lines = ["patient_id,location_id,x,y," + ",".join(f"a_{s}" for s in range(n_scales))]
    for patient, scores in maps:
        rows = zip(patient.location_ids.tolist(), patient.xy.tolist(), scores.tolist())
        for loc, (x, y), row in rows:
            lines.append(f"{patient.patient_id},{loc},{x!r},{y!r}," + ",".join(map(repr, row)))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path
