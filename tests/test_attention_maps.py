import numpy as np
import pytest

from crossmil.attention_maps import (
    GridGeometry,
    aggregate_records,
    geometry_for,
    heatmap_to_pgm,
    normalize_per_scale,
    render_heatmaps,
    write_records_csv,
)
from crossmil.data import SyntheticSpec, generate_synthetic
from crossmil.errors import GeometryError
from crossmil.models import AttentionRecord


def record(pid, loc, xy, scores):
    return AttentionRecord(pid, loc, xy, tuple(scores))


class TestNormalizePerScale:
    def test_affine_rescale(self):
        records = [
            record("p", 0, (0, 0), [0.2, 0.5]),
            record("p", 1, (1, 0), [0.5, 0.3]),
            record("p", 2, (2, 0), [0.8, 0.1]),
        ]
        out = normalize_per_scale(records)
        col0 = [r.scores[0] for r in out]
        assert col0 == [0.0, pytest.approx(0.5), 1.0]
        col1 = [r.scores[1] for r in out]
        assert col1 == [1.0, pytest.approx(0.5), 0.0]

    def test_constant_column_maps_to_half(self):
        records = [record("p", i, (i, 0), [0.25, i / 10]) for i in range(4)]
        out = normalize_per_scale(records)
        assert all(r.scores[0] == 0.5 for r in out)

    def test_order_within_scale_preserved(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0, 1, size=(20, 3))
        records = [record("p", i, (i, 0), row) for i, row in enumerate(raw)]
        out = normalize_per_scale(records)
        for s in range(3):
            before = np.argsort([r.scores[s] for r in records])
            after = np.argsort([r.scores[s] for r in out])
            np.testing.assert_array_equal(before, after)


class TestRendering:
    def test_single_record_single_cell(self):
        records = normalize_per_scale([record("p", 0, (128.0, 128.0), [0.6, 0.4])])
        geometry = geometry_for(records, 256.0)
        maps = render_heatmaps(records, geometry, ["20x", "10x"])
        assert maps[0].values.shape == (1, 1)
        assert maps[0].values[0, 0] == 0.5  # degenerate normalization
        assert heatmap_to_pgm(maps[0])[-1:] == bytes([128])

    def test_two_records_in_one_cell_average(self):
        records = [
            record("p", 0, (10.0, 10.0), [0.0]),
            record("p", 1, (20.0, 20.0), [1.0]),
        ]
        geometry = GridGeometry(0.0, 0.0, 256.0, 1, 1)
        maps = render_heatmaps(records, geometry, ["20x"])
        assert maps[0].values[0, 0] == 0.5

    def test_no_data_cells_distinct_from_zero(self):
        records = [
            record("p", 0, (0.5, 0.5), [0.0]),  # genuine zero value
        ]
        geometry = GridGeometry(0.0, 0.0, 1.0, 2, 1)
        pgm = heatmap_to_pgm(render_heatmaps(records, geometry, ["s"])[0])
        payload = pgm.split(b"\n255\n", 1)[1]
        assert payload == bytes([1, 0])  # data zero -> 1, no-data -> 0

    def test_out_of_bounds_names_the_record(self):
        geometry = GridGeometry(0.0, 0.0, 1.0, 2, 2)
        with pytest.raises(GeometryError, match="p9.*7"):
            render_heatmaps([record("p9", 7, (5.0, 0.0), [1.0])], geometry, ["s"])

    def test_rank_preservation_across_cells(self):
        rng = np.random.default_rng(1)
        records = []
        raw_means = []
        for i in range(6):
            vals = rng.uniform(0.1, 0.9, size=3)
            raw_means.append(vals.mean())
            for j, v in enumerate(vals):
                records.append(record("p", i * 10 + j, (i + 0.5, 0.5), [v]))
        geometry = GridGeometry(0.0, 0.0, 1.0, 6, 1)
        heatmap = render_heatmaps(records, geometry, ["s"])[0]
        np.testing.assert_array_equal(
            np.argsort(heatmap.values[0]), np.argsort(raw_means)
        )

    def test_rendering_is_deterministic_bytes(self):
        rng = np.random.default_rng(2)
        records = [
            record("p", i, (float(i % 4) + 0.5, float(i // 4) + 0.5), rng.uniform(0, 1, 3))
            for i in range(12)
        ]
        geometry = geometry_for(records, 1.0)

        def run():
            maps = render_heatmaps(normalize_per_scale(records), geometry, ["a", "b", "c"])
            return b"".join(heatmap_to_pgm(m) for m in maps)

        assert run() == run()

    def test_pgm_header(self):
        geometry = GridGeometry(0.0, 0.0, 1.0, 3, 2)
        pgm = heatmap_to_pgm(
            render_heatmaps([record("p", 0, (0.5, 0.5), [1.0])], geometry, ["s"])[0]
        )
        assert pgm.startswith(b"P5\n3 2\n255\n")
        assert len(pgm) == len(b"P5\n3 2\n255\n") + 6

    def test_planted_signal_dominates_its_scale(self):
        # ground-truth oracle: synthesize records whose informative-scale
        # score reflects the planted layout, then check the rendered maps
        spec = SyntheticSpec(
            n_patients_per_class=1, n_locations=16, dim=8, seed=5,
            informative_scale=1, signal_fraction=0.25,
        )
        ds = generate_synthetic(spec)
        positive = [p for p in ds if p.label == 1][0]
        records = []
        for loc, xy in zip(positive.location_ids.tolist(), positive.xy.tolist()):
            planted = loc in positive.signal_locations
            high = 0.8 if planted else 0.3
            rest = (1.0 - high) / 2
            records.append(record(positive.patient_id, loc, tuple(xy), [rest, high, rest]))
        records = normalize_per_scale(records)
        geometry = geometry_for(records, 256.0)
        maps = render_heatmaps(records, geometry, ["20x", "10x", "5x"])
        signal_cells = []
        for loc, (x, y) in zip(positive.location_ids.tolist(), positive.xy.tolist()):
            if loc in positive.signal_locations:
                col = int((x - geometry.origin_x) // 256)
                row = int((y - geometry.origin_y) // 256)
                signal_cells.append((row, col))
        mean_at = lambda m: np.mean([m.values[r, c] for r, c in signal_cells])
        assert mean_at(maps[1]) > mean_at(maps[0])
        assert mean_at(maps[1]) > mean_at(maps[2])


class TestAggregationAndCsv:
    def test_aggregate_means_per_location(self):
        records = [
            record("p", 0, (0.5, 0.5), [0.2, 0.8]),
            record("p", 0, (0.5, 0.5), [0.4, 0.6]),
            record("q", 0, (0.5, 0.5), [1.0, 0.0]),
        ]
        out = aggregate_records(records)
        assert len(out) == 2
        merged = next(r for r in out if r.patient_id == "p")
        assert merged.scores == (pytest.approx(0.3), pytest.approx(0.7))

    def test_records_csv_format(self, tmp_path):
        records = [record("p", 3, (128.0, 384.0), [0.25, 0.75])]
        path = write_records_csv(records, tmp_path / "records.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "patient_id,location_id,x,y,a_0,a_1"
        assert lines[1] == "p,3,128.0,384.0,0.25,0.75"
