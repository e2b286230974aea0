import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmil import evaluation
from crossmil.clustering import cluster_dataset
from crossmil.data import SyntheticSpec, generate_synthetic
from crossmil.errors import ConfigError, ContractError, FormatError, MetricError
from crossmil.evaluation import (
    _midranks,
    _replicate_diffs,
    _structural_components,
    auc,
    average_precision,
    bootstrap_test,
    comparison_table,
    delong_test,
    evaluate,
    pr_points,
    read_scores,
    report_from_scores,
    roc_points,
    write_scores,
)
from crossmil.models import ModelConfig, init_params


def pair_counting_auc(scores, labels):
    """Exhaustive Mann-Whitney count: 1 per win, 0.5 per tie."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_worked_example(self):
        scores = [0.8, 0.35, 0.1, 0.4]
        labels = [1, 1, 0, 0]
        assert auc(scores, labels) == 0.75

    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert auc([0.5] * 6, [1, 1, 1, 0, 0, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize("metric", [auc, average_precision, roc_points, pr_points])
    def test_nan_score_rejected(self, metric):
        with pytest.raises(ContractError, match="NaN"):
            metric([0.1, float("nan"), 0.7], [1, 0, 1])

    def test_equals_pair_counting_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            # quantized scores force plenty of ties
            scores = np.round(rng.uniform(0, 1, size=n), 1)
            assert auc(scores, labels) == pair_counting_auc(scores, labels)

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(-3, 3, size=40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        logistic = 1.0 / (1.0 + np.exp(-scores))
        assert auc(scores, labels) == auc(logistic, labels)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        labels = np.r_[1, 0, rng.integers(0, 2, size=n - 2)]
        scores = np.round(rng.uniform(0, 1, size=n), 2)
        assert auc(scores, labels) == pair_counting_auc(scores, labels)
        assert auc(3.0 * scores + 2.0, labels) == auc(scores, labels)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_hand_enumerated_case(self):
        assert average_precision([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(5 / 6, abs=1e-15)

    def test_single_positive_ranked_last(self):
        for n in (3, 5, 10):
            scores = np.linspace(1.0, 0.1, n)
            labels = np.zeros(n, dtype=int)
            labels[-1] = 1
            assert average_precision(scores, labels) == pytest.approx(1 / n, abs=1e-15)

    def test_no_positives_rejected(self):
        with pytest.raises(MetricError):
            average_precision([0.4, 0.6], [0, 0])

    def test_ties_grouped_at_one_threshold(self):
        # both items share one threshold: single PR point at (1.0, 0.5)
        assert average_precision([0.5, 0.5], [1, 0]) == 0.5


def threshold_loop(scores, labels):
    """(tp, fp) at each distinct descending score, counted one item at a time."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    s = [float(scores[i]) for i in order]
    y = [int(labels[i]) for i in order]
    counts = []
    tp = fp = 0
    for i in range(len(s)):
        tp, fp = tp + y[i], fp + 1 - y[i]
        if i + 1 == len(s) or s[i + 1] != s[i]:
            counts.append((tp, fp))
    return counts


def average_precision_loop(scores, labels):
    """The step-interpolated AP as a loop over thresholds."""
    n_pos = sum(int(v) for v in labels)
    ap = prev_recall = 0.0
    for tp, fp in threshold_loop(scores, labels):
        ap += (tp / n_pos - prev_recall) * (tp / (tp + fp))
        prev_recall = tp / n_pos
    return ap


# few distinct values make heavy ties; the floats cover sums that round
tied_scores = st.sampled_from([0.0, 0.25, 0.5, 1.0])
any_scores = st.floats(0.0, 1.0, allow_nan=False)


class TestAgainstLoops:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_metrics_and_curves_match_the_loops_bit_for_bit(self, data):
        n = data.draw(st.integers(2, 60))
        drawn = st.lists(st.one_of(tied_scores, any_scores), min_size=n, max_size=n)
        scores = np.array(data.draw(drawn))
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        labels[0], labels[1] = 1, 0
        n_pos, n_neg = int(labels.sum()), int(n - labels.sum())
        counts = threshold_loop(scores, labels)
        assert average_precision(scores, labels) == average_precision_loop(scores, labels)
        roc = [(0.0, 0.0)] + [(fp / n_neg, tp / n_pos) for tp, fp in counts]
        assert roc_points(scores, labels) == roc
        assert pr_points(scores, labels) == [(tp / n_pos, tp / (tp + fp)) for tp, fp in counts]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(tied_scores, min_size=1, max_size=40), st.data())
    def test_all_tied_and_single_class_negatives(self, scores, data):
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
        labels[0] = 1
        assert average_precision(scores, labels) == average_precision_loop(scores, labels)

    def test_curve_points_are_python_floats(self):
        pts = roc_points([0.9, 0.1, 0.5], [1, 0, 1]) + pr_points([0.9, 0.1, 0.5], [1, 0, 1])
        assert all(type(v) is float for pt in pts for v in pt)


class TestCurves:
    def test_roc_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0, 1, 30)
        labels = np.r_[1, 0, rng.integers(0, 2, 28)]
        pts = roc_points(scores, labels)
        assert pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0)
        assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(pts, pts[1:]))

    def test_pr_recall_monotone(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0, 1, 30)
        labels = np.r_[1, 0, rng.integers(0, 2, 28)]
        pts = pr_points(scores, labels)
        assert all(a[0] <= b[0] for a, b in zip(pts, pts[1:]))
        assert pts[-1][0] == 1.0


def delong_oracle(scores_a, scores_b, labels):
    """Direct double-loop structural components and test statistic."""
    sa, sb, y = map(np.asarray, (scores_a, scores_b, labels))

    def psi(x, yv):
        return 1.0 if x > yv else (0.5 if x == yv else 0.0)

    def components(s):
        pos = s[y == 1]
        neg = s[y == 0]
        v10 = np.array([np.mean([psi(p, n) for n in neg]) for p in pos])
        v01 = np.array([np.mean([psi(p, n) for p in pos]) for n in neg])
        return v10, v01, v10.mean()

    v10a, v01a, auc_a = components(sa)
    v10b, v01b, auc_b = components(sb)
    m, n = len(v10a), len(v01a)
    # singleton classes carry no variance estimate
    s10 = np.cov(np.stack([v10a, v10b]), ddof=1) if m > 1 else np.zeros((2, 2))
    s01 = np.cov(np.stack([v01a, v01b]), ddof=1) if n > 1 else np.zeros((2, 2))
    cov = s10 / m + s01 / n
    var = cov[0, 0] + cov[1, 1] - 2 * cov[0, 1]
    if var <= 0:
        return (v10a, v01a, auc_a), (v10b, v01b, auc_b), None, None
    z = (auc_a - auc_b) / math.sqrt(var)
    return (v10a, v01a, auc_a), (v10b, v01b, auc_b), z, math.erfc(abs(z) / math.sqrt(2))


class TestDelong:
    def test_identical_scores_give_p_one(self):
        scores = [0.9, 0.7, 0.3, 0.4, 0.2]
        labels = [1, 1, 0, 1, 0]
        result = delong_test(scores, scores, labels)
        assert result.p_value == 1.0 and result.z == 0.0

    def test_structural_components_match_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(4, 13))
            labels = np.r_[1, 0, rng.integers(0, 2, n - 2)]
            sa = np.round(rng.uniform(0, 1, n), 1)
            sb = np.round(rng.uniform(0, 1, n), 1)
            (v10o, v01o, auc_o), _, z_o, p_o = delong_oracle(sa, sb, labels)
            v10, v01, auc_mid = _structural_components(
                np.asarray(sa, dtype=float), np.asarray(labels)
            )
            np.testing.assert_allclose(v10, v10o, rtol=0, atol=1e-12)
            np.testing.assert_allclose(v01, v01o, rtol=0, atol=1e-12)
            assert abs(auc_mid - auc_o) <= 1e-12
            result = delong_test(sa, sb, labels)
            if z_o is not None:
                assert abs(result.z - z_o) <= 1e-9
                assert abs(result.p_value - p_o) <= 1e-12

    def test_separated_vs_chance_is_significant(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            labels = np.r_[np.ones(100, dtype=int), np.zeros(100, dtype=int)]
            strong = labels + rng.normal(0, 0.05, 200)
            chance = rng.uniform(0, 1, 200)
            assert delong_test(strong, chance, labels).p_value < 0.01

    def test_zero_variance_with_unequal_aucs_gives_infinite_z(self):
        # one positive and one negative: no placement variance, AUCs 1 and 0
        result = delong_test([0.9, 0.1], [0.1, 0.9], [1, 0])
        assert (result.auc_a, result.auc_b, result.z, result.p_value) == (1.0, 0.0, math.inf, 0.0)

    def test_mismatched_labels_rejected(self):
        with pytest.raises(ContractError):
            delong_test([0.1, 0.9], [0.2, 0.8], [0, 1, 1])


class TestBootstrap:
    def test_identical_scores_give_p_one(self):
        rng = np.random.default_rng(5)
        labels = np.r_[np.ones(10, dtype=int), np.zeros(10, dtype=int)]
        scores = rng.uniform(0, 1, 20)
        assert bootstrap_test(scores, scores, labels, n_boot=200, seed=0) == 1.0

    def test_one_sided_dominance_hits_floor(self):
        # a is perfectly separated, b anti-separated: every replicate has d > 0
        labels = np.r_[np.ones(8, dtype=int), np.zeros(8, dtype=int)]
        a = np.r_[np.full(8, 0.9), np.full(8, 0.1)]
        b = np.r_[np.full(8, 0.1), np.full(8, 0.9)]
        p = bootstrap_test(a, b, labels, metric="auc", n_boot=500, seed=1)
        assert p == pytest.approx(2 / 500)

    def test_agrees_with_delong_direction(self):
        rng = np.random.default_rng(6)
        labels = np.r_[np.ones(50, dtype=int), np.zeros(50, dtype=int)]
        strong = labels + rng.normal(0, 0.1, 100)
        chance = rng.uniform(0, 1, 100)
        d = delong_test(strong, chance, labels)
        p_boot = bootstrap_test(strong, chance, labels, metric="auc", n_boot=500, seed=2)
        assert d.auc_a > d.auc_b and p_boot < 0.05 and d.p_value < 0.05

    def test_small_replicate_count_rejected(self):
        with pytest.raises(ContractError):
            bootstrap_test([0.1, 0.9], [0.2, 0.8], [0, 1], n_boot=50)

    def test_deterministic_by_seed(self):
        rng = np.random.default_rng(7)
        labels = np.r_[np.ones(10, dtype=int), np.zeros(10, dtype=int)]
        a, b = rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)
        assert bootstrap_test(a, b, labels, seed=3, n_boot=300) == bootstrap_test(
            a, b, labels, seed=3, n_boot=300
        )

    @pytest.mark.parametrize("metric", ["f1", "AUC", None, average_precision])
    def test_metric_must_be_auc_or_ap(self, metric):
        with pytest.raises(ContractError, match="'auc' or 'ap'"):
            bootstrap_test([0.1, 0.9], [0.2, 0.8], [0, 1], metric=metric, n_boot=100)

    @pytest.mark.parametrize("n_boot", [100.0, "500", True])
    def test_replicate_count_must_be_an_integer(self, n_boot):
        with pytest.raises(ContractError, match="n_boot"):
            bootstrap_test([0.1, 0.9], [0.2, 0.8], [0, 1], n_boot=n_boot)


def midranks_loop(x):
    """Midranks as one pass over the sorted values, group by group."""
    order = np.argsort(x, kind="stable")
    z = x[order]
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i
        while j < len(x) and z[j] == z[i]:
            j += 1
        ranks[i:j] = 0.5 * (i + j - 1) + 1.0
        i = j
    out = np.empty(len(x), dtype=np.float64)
    out[order] = ranks
    return out


def replicate_diffs_loop(scores_a, scores_b, labels, metric, n_boot, seed):
    """The bootstrap one replicate at a time: draw the positives, then the
    negatives, and score each resampled vector with the 1-d metric."""
    fn = {"auc": auc, "ap": average_precision}[metric]
    pos, neg = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
    rng = np.random.default_rng(seed)
    diffs = np.empty(n_boot)
    for i in range(n_boot):
        idx = np.concatenate([rng.choice(pos, size=len(pos)), rng.choice(neg, size=len(neg))])
        diffs[i] = fn(scores_a[idx], labels[idx]) - fn(scores_b[idx], labels[idx])
    return diffs


def p_value_of(diffs):
    n = len(diffs)
    frac_le = max(int((diffs <= 0).sum()), 1) / n
    frac_ge = max(int((diffs >= 0).sum()), 1) / n
    return min(1.0, 2.0 * min(frac_le, frac_ge))


class TestBlockedBootstrap:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_replicate_matches_the_loop_bit_for_bit(self, data):
        metric = data.draw(st.sampled_from(["ap", "auc"]))
        n = data.draw(st.integers(1, 40))
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        shape = data.draw(st.sampled_from(["mixed", "one positive", "no negatives"]))
        if shape == "mixed":
            labels[0] = 1
        elif shape == "one positive":
            labels[:] = 0
            labels[data.draw(st.integers(0, n - 1))] = 1
        elif shape == "no negatives":
            labels[:] = 1
        drawn = st.lists(st.one_of(tied_scores, any_scores), min_size=n, max_size=n)
        a, b = np.array(data.draw(drawn)), np.array(data.draw(drawn))
        # small blocks put several blocks, a short last block, and rows
        # wider than a block within reach of small inputs
        block = data.draw(st.sampled_from([1, 7, 16, 64, evaluation._BLOCK_ELEMENTS]))
        n_boot = data.draw(st.integers(100, 160))
        seed = data.draw(st.integers(0, 2**32 - 1))
        single_class = labels.sum() in (0, n)
        with mock.patch.object(evaluation, "_BLOCK_ELEMENTS", block):
            if metric == "auc" and single_class:
                with pytest.raises(MetricError, match="both classes"):
                    bootstrap_test(a, b, labels, metric=metric, n_boot=n_boot, seed=seed)
                return
            diffs = _replicate_diffs(a, b, labels, metric, n_boot, seed)
            p = bootstrap_test(a, b, labels, metric=metric, n_boot=n_boot, seed=seed)
        expected = replicate_diffs_loop(a, b, labels, metric, n_boot, seed)
        assert diffs.tobytes() == expected.tobytes()
        assert p == p_value_of(expected)

    @pytest.mark.parametrize("metric", ["ap", "auc"])
    @pytest.mark.parametrize("n", [8191, 8193, 12000])
    def test_rows_wider_than_a_block_match_the_loop(self, metric, n):
        rng = np.random.default_rng(n)
        labels = rng.integers(0, 2, size=n)
        a = np.round(rng.uniform(0, 1, n), 2)
        b = np.round(a + rng.normal(0, 0.2, n), 1)
        diffs = _replicate_diffs(a, b, labels, metric, 100, 9)
        assert diffs.tobytes() == replicate_diffs_loop(a, b, labels, metric, 100, 9).tobytes()

    def test_single_class_auc_is_a_metric_error(self):
        with pytest.raises(MetricError, match="both classes"):
            bootstrap_test([0.1, 0.9, 0.4], [0.2, 0.8, 0.3], [1, 1, 1], metric="auc")
        with pytest.raises(MetricError, match="at least one positive"):
            bootstrap_test([0.1, 0.9, 0.4], [0.2, 0.8, 0.3], [0, 0, 0], metric="ap")

    def test_working_set_stays_bounded(self):
        # the full (n_boot, N) index matrix alone would take 32 MB
        n, n_boot = 20_000, 200
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 2, size=n)
        a, b = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        tracemalloc.start()
        try:
            bootstrap_test(a, b, labels, metric="ap", n_boot=n_boot, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak


class TestMidranks:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(tied_scores, any_scores), min_size=1, max_size=60))
    def test_matches_the_group_loop_bit_for_bit(self, values):
        x = np.array(values)
        assert _midranks(x).tobytes() == midranks_loop(x).tobytes()


class TestEvaluate:
    def test_report_from_two_patient_scores(self):
        report = report_from_scores([0.9, 0.1], [1, 0])
        assert report.auc == 1.0 and report.accuracy == 1.0
        assert report.n_pos == 1 and report.n_neg == 1

    def test_end_to_end_fields_populated(self):
        ds = generate_synthetic(
            SyntheticSpec(n_patients_per_class=4, n_locations=8, dim=8, seed=20)
        )
        cm = cluster_dataset(ds, "5x", k=3, seed=20)
        cfg = ModelConfig(embed_dim=8, encoder_dim=6, attention_hidden=4,
                          n_clusters=3, n_scales=3)
        models = [init_params(cfg, seed=s) for s in range(2)]
        report, scored = evaluate(models, ds, cm, bag_size=4, seed=20)
        assert 0.0 <= report.auc <= 1.0
        assert 0.0 <= report.ap <= 1.0
        assert 0.0 <= report.accuracy <= 1.0
        assert report.n_pos == 4 and report.n_neg == 4
        assert len(scored) == 8
        assert all(0.0 <= s.score <= 1.0 for s in scored)
        assert report.roc_curve[0] == (0.0, 0.0) and report.roc_curve[-1] == (1.0, 1.0)

    def test_evaluate_is_deterministic(self):
        ds = generate_synthetic(
            SyntheticSpec(n_patients_per_class=3, n_locations=6, dim=8, seed=21)
        )
        cm = cluster_dataset(ds, "5x", k=3, seed=21)
        cfg = ModelConfig(embed_dim=8, encoder_dim=6, attention_hidden=4,
                          n_clusters=3, n_scales=3)
        models = [init_params(cfg, seed=0)]
        _, a = evaluate(models, ds, cm, bag_size=4, seed=5)
        _, b = evaluate(models, ds, cm, bag_size=4, seed=5)
        assert [(s.patient_id, s.score) for s in a] == [(s.patient_id, s.score) for s in b]

    def test_per_split_mode_averages_model_metrics(self):
        ds = generate_synthetic(
            SyntheticSpec(n_patients_per_class=3, n_locations=6, dim=8, seed=22)
        )
        cm = cluster_dataset(ds, "5x", k=3, seed=22)
        cfg = ModelConfig(embed_dim=8, encoder_dim=6, attention_hidden=4,
                          n_clusters=3, n_scales=3)
        models = [init_params(cfg, seed=s) for s in range(3)]
        report, _ = evaluate(models, ds, cm, bag_size=4, seed=22, mode="per_split")
        assert 0.0 <= report.auc <= 1.0

    def test_unknown_mode_is_a_config_error_before_scoring(self):
        ds = generate_synthetic(SyntheticSpec(n_patients_per_class=3, n_locations=6, dim=8))
        cm = cluster_dataset(ds, "5x", k=3)
        with pytest.raises(ConfigError, match="mode must be one of .*'pooled'"):
            evaluate([], ds, cm, mode="pooled")

    def test_scores_file_round_trip(self, tmp_path):
        report = report_from_scores([0.9, 0.1], [1, 0])
        from crossmil.evaluation import ScoredPatient

        scored = [ScoredPatient("a", 1, 0.9), ScoredPatient("b", 0, 0.1)]
        path = write_scores(scored, tmp_path / "scores.csv")
        ids, labels, values = read_scores(path)
        assert ids == ["a", "b"]
        np.testing.assert_array_equal(labels, [1, 0])
        np.testing.assert_array_equal(values, [0.9, 0.1])

    def test_predicted_is_the_score_at_or_above_one_half(self, tmp_path):
        from crossmil.evaluation import ScoredPatient

        scored = [ScoredPatient("a", 0, 0.5), ScoredPatient("b", 1, 0.49999999999999994)]
        assert [s.predicted for s in scored] == [1, 0]
        assert write_scores(scored, tmp_path / "scores.csv").read_text() == (
            "patient_id,label,score,predicted\na,0,0.5,1\nb,1,0.49999999999999994,0\n"
        )

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("b,0", "has 2 fields, expected 4"),
            ("b,0,0.1,0,extra", "has 5 fields, expected 4"),
            ("b,x,0.1,0", "label 'x' is not 0 or 1"),
            ("b,2,0.1,0", "label '2' is not 0 or 1"),
            ("b,0,abc,0", "abc"),
            ("", "has 1 fields"),
        ],
    )
    def test_malformed_scores_row_is_a_format_error_naming_file_and_line(
        self, tmp_path, row, problem
    ):
        path = tmp_path / "scores.csv"
        path.write_text(f"patient_id,label,score,predicted\na,1,0.9,1\n{row}\nc,0,0.2,0\n")
        with pytest.raises(FormatError, match=rf"scores\.csv: line 3: .*{problem}"):
            read_scores(path)



class TestComparisonTable:
    LABELS = np.r_[np.ones(20, dtype=int), np.zeros(20, dtype=int)]

    def score_sets(self, names):
        rng = np.random.default_rng(8)
        return [(name, rng.uniform(0, 1, 40)) for name in names]

    def test_rows_hold_report_metrics_and_pvalues_against_the_reference(self):
        sets = self.score_sets("abc")
        header, *rows = comparison_table(sets, self.LABELS, "b", n_boot=200, seed=3).splitlines()
        assert header == "model,auc,ap,acc,p_auc_vs_ref,p_ap_vs_ref"
        ref = dict(sets)["b"]
        for (name, scores), row in zip(sets, rows, strict=True):
            report = report_from_scores(scores, self.LABELS)
            fields = row.split(",")
            assert fields[:4] == [name, repr(report.auc), repr(report.ap), repr(report.accuracy)]
            if name == "b":
                assert fields[4:] == ["", ""]
            else:
                assert fields[4:] == [
                    repr(delong_test(scores, ref, self.LABELS).p_value),
                    repr(bootstrap_test(scores, ref, self.LABELS, "ap", 200, 3)),
                ]
                assert all(0.0 <= float(f) <= 1.0 for f in fields[4:])

    def test_repeated_names_are_a_config_error_naming_them(self):
        sets = self.score_sets(["a", "b", "a", "c", "c"])
        with pytest.raises(ConfigError, match="repeated: 'a', 'c'$"):
            comparison_table(sets, self.LABELS, "b", n_boot=200)

    def test_unknown_reference_is_a_config_error(self):
        with pytest.raises(ConfigError, match="'z' is not among"):
            comparison_table(self.score_sets("ab"), self.LABELS, "z", n_boot=200)
