import numpy as np
import pytest

from crossmil.attention_maps import (
    MAX_GRID_CELLS,
    GridGeometry,
    aggregate_records,
    geometry_for,
    heatmap_to_pgm,
    normalize_per_scale,
    render_heatmaps,
    write_records_csv,
)
from crossmil.data import PatientRecord, SyntheticSpec, generate_synthetic
from crossmil.errors import ConfigError, ContractError, GeometryError
from crossmil.models import AttentionRecord


def points(*xy):
    return np.asarray(xy, dtype=np.float64).reshape(-1, 2)


def model_records(pid, scores):
    """One model's records for locations 0..n-1 of patient ``pid``."""
    return [AttentionRecord(pid, i, tuple(row)) for i, row in enumerate(scores)]


def per_record_render(xy, scores, geometry, n_scales):
    """The cell means as a loop over points, adding each in turn."""
    sums = np.zeros((n_scales, geometry.n_rows, geometry.n_cols))
    counts = np.zeros((geometry.n_rows, geometry.n_cols))
    for (x, y), row_scores in zip(xy.tolist(), scores.tolist()):
        col = int(np.floor((x - geometry.origin_x) / geometry.cell_size))
        row = int(np.floor((y - geometry.origin_y) / geometry.cell_size))
        counts[row, col] += 1
        for s in range(n_scales):
            sums[s, row, col] += row_scores[s]
    return [np.where(counts > 0, sums[s] / np.maximum(counts, 1), np.nan) for s in range(n_scales)]


class TestNormalizePerScale:
    def test_affine_rescale(self):
        out = normalize_per_scale(np.array([[0.2, 0.5], [0.5, 0.3], [0.8, 0.1]]))
        assert out[:, 0].tolist() == [0.0, pytest.approx(0.5), 1.0]
        assert out[:, 1].tolist() == [1.0, pytest.approx(0.5), 0.0]

    def test_constant_column_maps_to_half(self):
        scores = np.array([[0.25, i / 10] for i in range(4)])
        out = normalize_per_scale(scores)
        assert (out[:, 0] == 0.5).all()
        assert out[:, 1].tolist() == [0.0, pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]

    def test_order_within_scale_preserved(self):
        raw = np.random.default_rng(0).uniform(0, 1, size=(20, 3))
        out = normalize_per_scale(raw)
        for s in range(3):
            np.testing.assert_array_equal(np.argsort(raw[:, s]), np.argsort(out[:, s]))

    def test_input_is_not_modified(self):
        raw = np.array([[0.2, 0.4], [0.6, 0.4]])
        before = raw.copy()
        normalize_per_scale(raw)
        np.testing.assert_array_equal(raw, before)

    @pytest.mark.parametrize("shape", [(0, 3), (4,)])
    def test_needs_a_non_empty_matrix(self, shape):
        with pytest.raises(ContractError, match="normalize_per_scale"):
            normalize_per_scale(np.zeros(shape))


class TestGeometry:
    def test_grid_aligned_to_cell_multiples_covers_every_point(self):
        g = geometry_for(points(130.0, 20.0, 900.0, 515.0), 256.0)
        assert g == GridGeometry(0.0, 0.0, 256.0, 4, 3)

    def test_negative_coordinates_floor_the_origin(self):
        g = geometry_for(points(-10.0, -300.0, 10.0, 0.0), 256.0)
        assert g == GridGeometry(-256.0, -512.0, 256.0, 2, 3)

    @pytest.mark.parametrize("cell_size", [1e-300, 0.001, 1e-310])
    def test_too_fine_a_grid_is_a_config_error(self, cell_size):
        xy = points(128.0, 128.0, 1152.0, 1152.0)  # a 5 x 5 grid at pitch 256
        with pytest.raises(ConfigError, match=r"render\.cell_size"):
            geometry_for(xy, cell_size)

    def test_cell_count_bound_is_inclusive(self):
        side = int(np.sqrt(MAX_GRID_CELLS))
        assert side * side == MAX_GRID_CELLS
        g = geometry_for(points(0.0, 0.0, side - 1.0, side - 1.0), 1.0)
        assert g.n_cols * g.n_rows == MAX_GRID_CELLS
        with pytest.raises(ConfigError, match=r"render\.cell_size"):
            geometry_for(points(0.0, 0.0, float(side), side - 1.0), 1.0)


class TestRendering:
    def test_single_point_single_cell(self):
        scores = normalize_per_scale(np.array([[0.6, 0.4]]))
        xy = points(128.0, 128.0)
        maps = render_heatmaps(xy, scores, geometry_for(xy, 256.0), ["20x", "10x"])
        assert [m.scale_label for m in maps] == ["20x", "10x"]
        assert maps[0].values.shape == (1, 1)
        assert maps[0].values[0, 0] == 0.5  # degenerate normalization
        assert heatmap_to_pgm(maps[0])[-1:] == bytes([128])

    def test_two_points_in_one_cell_average(self):
        geometry = GridGeometry(0.0, 0.0, 256.0, 1, 1)
        maps = render_heatmaps(points(10.0, 10.0, 20.0, 20.0), np.array([[0.0], [1.0]]), geometry, ["20x"])
        assert maps[0].values[0, 0] == 0.5

    def test_no_data_cells_distinct_from_zero(self):
        geometry = GridGeometry(0.0, 0.0, 1.0, 2, 1)
        heatmap = render_heatmaps(points(0.5, 0.5), np.array([[0.0]]), geometry, ["s"])[0]
        payload = heatmap_to_pgm(heatmap).split(b"\n255\n", 1)[1]
        assert payload == bytes([1, 0])  # data zero -> 1, no-data -> 0

    @pytest.mark.parametrize("xy", [(5.0, 0.0), (0.5, -0.5), (np.nan, 0.5)])
    def test_out_of_bounds_names_the_location(self, xy):
        geometry = GridGeometry(0.0, 0.0, 1.0, 2, 2)
        with pytest.raises(GeometryError, match=r"location 1 .*is outside the 2x2 grid"):
            render_heatmaps(points(0.5, 0.5, *xy), np.ones((2, 1)), geometry, ["s"])

    def test_scores_must_match_points_and_scales(self):
        geometry = GridGeometry(0.0, 0.0, 1.0, 1, 1)
        with pytest.raises(ContractError, match=r"expected \(1, 2\)"):
            render_heatmaps(points(0.5, 0.5), np.ones((1, 3)), geometry, ["a", "b"])

    def test_rank_preservation_across_cells(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0.1, 0.9, size=(6, 3))
        xy = points(*[(i + 0.5, 0.5) for i in range(6) for _ in range(3)])
        geometry = GridGeometry(0.0, 0.0, 1.0, 6, 1)
        heatmap = render_heatmaps(xy, vals.reshape(18, 1), geometry, ["s"])[0]
        np.testing.assert_array_equal(np.argsort(heatmap.values[0]), np.argsort(vals.mean(axis=1)))

    @pytest.mark.parametrize("seed", range(5))
    def test_cell_means_equal_a_per_point_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        xy = rng.uniform(-700.0, 900.0, size=(n, 2))
        scores = rng.uniform(0, 1, size=(n, 3))
        geometry = geometry_for(xy, float(rng.choice([64.0, 256.0, 512.0])))
        maps = render_heatmaps(xy, scores, geometry, ["a", "b", "c"])
        for heatmap, expected in zip(maps, per_record_render(xy, scores, geometry, 3)):
            assert heatmap.values.shape == (geometry.n_rows, geometry.n_cols)
            np.testing.assert_array_equal(heatmap.values, expected)

    def test_rendering_is_deterministic_bytes(self):
        rng = np.random.default_rng(2)
        xy = points(*[(i % 4 + 0.5, i // 4 + 0.5) for i in range(12)])
        scores = rng.uniform(0, 1, size=(12, 3))
        geometry = geometry_for(xy, 1.0)

        def run():
            maps = render_heatmaps(xy, normalize_per_scale(scores), geometry, ["a", "b", "c"])
            return b"".join(heatmap_to_pgm(m) for m in maps)

        assert run() == run()

    def test_pgm_header(self):
        geometry = GridGeometry(0.0, 0.0, 1.0, 3, 2)
        pgm = heatmap_to_pgm(render_heatmaps(points(0.5, 0.5), np.ones((1, 1)), geometry, ["s"])[0])
        assert pgm.startswith(b"P5\n3 2\n255\n")
        assert len(pgm) == len(b"P5\n3 2\n255\n") + 6

    def test_planted_signal_dominates_its_scale(self):
        # ground-truth oracle: scores whose informative-scale column reflects
        # the planted layout, then check the rendered maps
        spec = SyntheticSpec(
            n_patients_per_class=1, n_locations=16, dim=8, seed=5,
            informative_scale=1, signal_fraction=0.25,
        )
        positive = [p for p in generate_synthetic(spec) if p.label == 1][0]
        planted = np.isin(positive.location_ids, sorted(positive.signal_locations))
        high = np.where(planted, 0.8, 0.3)
        rest = (1.0 - high) / 2
        scores = normalize_per_scale(np.stack([rest, high, rest], axis=1))
        geometry = geometry_for(positive.xy, 256.0)
        maps = render_heatmaps(positive.xy, scores, geometry, ["20x", "10x", "5x"])
        cols = ((positive.xy[planted, 0] - geometry.origin_x) // 256).astype(int)
        rows = ((positive.xy[planted, 1] - geometry.origin_y) // 256).astype(int)
        mean_at = lambda m: m.values[rows, cols].mean()
        assert mean_at(maps[1]) > mean_at(maps[0])
        assert mean_at(maps[1]) > mean_at(maps[2])


class TestAggregation:
    def test_aggregate_is_the_model_mean_per_location(self):
        out = aggregate_records([
            model_records("p", [[0.2, 0.8], [1.0, 0.0]]),
            model_records("p", [[0.4, 0.6], [0.0, 1.0]]),
        ])
        assert out.shape == (2, 2)
        assert out[0].tolist() == [pytest.approx(0.3), pytest.approx(0.7)]
        assert out[1].tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("n_models", [1, 2, 8, 9, 13])
    def test_mean_equals_the_per_location_mean_bit_for_bit(self, n_models):
        raw = np.random.default_rng(n_models).dirichlet(np.ones(3), size=(n_models, 25))
        out = aggregate_records([model_records("p", m) for m in raw])
        expected = np.array([np.mean([raw[m, i].tolist() for m in range(n_models)], axis=0)
                             for i in range(25)])
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("change", ["order", "location", "patient", "length"])
    def test_models_listing_other_locations_is_a_contract_error(self, change):
        first = model_records("p", [[0.5, 0.5]] * 3)
        second = list(first)
        if change == "order":
            second[0], second[1] = second[1], second[0]
        elif change == "location":
            second[2] = AttentionRecord("p", 7, (0.5, 0.5))
        elif change == "patient":
            second[2] = AttentionRecord("q", 2, (0.5, 0.5))
        else:
            second = second[:2]
        with pytest.raises(ContractError, match="same locations"):
            aggregate_records([first, second])

    @pytest.mark.parametrize("per_model", [[], [[]]])
    def test_needs_records(self, per_model):
        with pytest.raises(ContractError):
            normalize_per_scale(aggregate_records(per_model))


class TestRecordsCsv:
    def patient(self, pid, n):
        return PatientRecord(
            pid, 0, np.zeros((n, 3, 2)), np.arange(3, 3 + n),
            np.arange(2 * n, dtype=np.float64).reshape(n, 2) * 128.0,
        )

    def test_records_csv_format(self, tmp_path):
        p = self.patient("p", 1)
        path = write_records_csv([(p, np.array([[0.25, 0.75, 0.5]]))], tmp_path / "records.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "patient_id,location_id,x,y,a_0,a_1,a_2"
        assert lines[1] == "p,3,0.0,128.0,0.25,0.75,0.5"

    def test_scores_are_plain_decimals_that_round_trip(self, tmp_path):
        scores = np.random.default_rng(3).uniform(0, 1, size=(4, 3))
        maps = [(self.patient("p", 4), scores), (self.patient("q", 2), scores[:2] / 3)]
        text = write_records_csv(maps, tmp_path / "records.csv").read_text()
        assert "np." not in text
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [r[0] for r in rows] == ["p"] * 4 + ["q"] * 2
        parsed = np.array([[float(v) for v in r[4:]] for r in rows])
        np.testing.assert_array_equal(parsed, np.vstack([scores, scores[:2] / 3]))

    def test_nothing_to_write_is_a_contract_error(self, tmp_path):
        with pytest.raises(ContractError):
            write_records_csv([], tmp_path / "records.csv")
