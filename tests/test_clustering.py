import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmil.clustering import (
    assemble_bag,
    cluster_dataset,
    kmeans,
    load_cluster_model,
    patient_rng,
    save_cluster_model,
)
from crossmil.data import Dataset, PatientRecord, SyntheticSpec, generate_synthetic
from crossmil.errors import ConfigError, ContractError, FormatError


class TestKMeans:
    def test_identical_vectors_single_cluster(self):
        x = np.tile([1.5, -2.0, 0.25], (10, 1))
        result = kmeans(x, k=1, seed=0)
        assert result.sse_history == (0.0,) and result.n_iter == 1
        np.testing.assert_array_equal(result.centroids[0], [1.5, -2.0, 0.25])

    def test_two_blob_recovery_matches_nearest_centroid_oracle(self):
        rng = np.random.default_rng(17)
        blob_a = rng.normal([0, 0], 0.05, size=(25, 2))
        blob_b = rng.normal([10, 10], 0.05, size=(25, 2))
        x = np.vstack([blob_a, blob_b])
        result = kmeans(x, k=2, seed=3)
        # blob membership up to label permutation
        labels_a = set(result.labels[:25])
        labels_b = set(result.labels[25:])
        assert labels_a.isdisjoint(labels_b) and len(labels_a) == len(labels_b) == 1
        # exhaustive nearest-centroid check over every point
        for i in range(50):
            d = [np.linalg.norm(x[i] - c) for c in result.centroids]
            assert result.labels[i] == int(np.argmin(d))

    def test_sse_non_increasing(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.uniform(-1, 1, size=(60, 5))
            hist = kmeans(x, k=4, seed=seed).sse_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_k_exceeding_points_rejected(self):
        with pytest.raises(ContractError):
            kmeans(np.zeros((3, 2)), k=4)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(40, 3))
        a = kmeans(x, k=5, seed=11)
        b = kmeans(x, k=5, seed=11)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_eight_clusters_on_synthetic_prototypes(self):
        ds = generate_synthetic(
            SyntheticSpec(n_patients_per_class=10, n_locations=20, dim=16, seed=4, n_prototypes=8)
        )
        model = cluster_dataset(ds, scale_choice="5x", k=8, seed=2)
        assert len(set(np.concatenate([model.label(p) for p in ds]).tolist())) == 8


class TestClusterDataset:
    @pytest.fixture
    def dataset(self):
        return generate_synthetic(
            SyntheticSpec(n_patients_per_class=4, n_locations=12, dim=32, seed=6)
        )

    def test_records_clustering_scale(self, dataset):
        model = cluster_dataset(dataset, scale_choice="5x", k=4, seed=0)
        assert model.clustering_scale == "5x" and model.scale_index == 2

    def test_multi_concatenates_all_scales(self, dataset):
        model = cluster_dataset(dataset, scale_choice="multi", k=4, seed=0)
        assert model.centroids.shape[1] == 96  # 3 scales x 32 dims

    def test_same_seed_same_assignment(self, dataset):
        a = cluster_dataset(dataset, "20x", k=4, seed=5)
        b = cluster_dataset(dataset, "20x", k=4, seed=5)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        for p in dataset:
            np.testing.assert_array_equal(a.label(p), b.label(p))

    def test_unknown_scale_rejected(self, dataset):
        with pytest.raises(ContractError):
            cluster_dataset(dataset, "40x", k=4)

    def test_fit_restricted_to_training_patients(self, dataset):
        negatives = Dataset(tuple(p for p in dataset if p.label == 0), dataset.scale_labels)
        model = cluster_dataset(negatives, "5x", k=3, seed=1)
        # only the negatives shaped the centroids ...
        fit = kmeans(np.concatenate([p.emb[:, 2] for p in negatives]), 3, seed=1)
        np.testing.assert_array_equal(model.centroids, fit.centroids)
        # ... yet every patient gets a nearest-centroid label per location
        for p in dataset:
            labels = model.label(p)
            d = np.linalg.norm(p.emb[:, 2][:, None, :] - model.centroids[None], axis=2)
            np.testing.assert_array_equal(labels, d.argmin(axis=1))

    def test_held_out_patients_labelled_without_refitting(self, dataset):
        from dataclasses import replace

        model = cluster_dataset(dataset, "5x", k=3, seed=1)
        centroids = model.centroids.copy()
        extra = generate_synthetic(
            SyntheticSpec(n_patients_per_class=1, n_locations=5, dim=32, seed=99)
        )
        held_out = [replace(p, patient_id=f"held_{p.patient_id}") for p in extra]
        for p in held_out:
            labels = model.label(p)
            assert labels.shape == (5,) and ((0 <= labels) & (labels < 3)).all()
        np.testing.assert_array_equal(model.centroids, centroids)

    def test_serialization_round_trip(self, dataset, tmp_path):
        model = cluster_dataset(dataset, "multi", k=4, seed=3)
        path = save_cluster_model(model, tmp_path / "cm.json")
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["centroids", "clustering_scale", "k", "scale_index"]
        assert doc["k"] == model.k == len(doc["centroids"]) == 4
        loaded = load_cluster_model(path)
        assert loaded.k == model.k
        assert loaded.clustering_scale == model.clustering_scale
        assert loaded.scale_index == model.scale_index
        np.testing.assert_array_equal(loaded.centroids, model.centroids)
        for p in dataset:
            np.testing.assert_array_equal(loaded.label(p), model.label(p))

    @pytest.mark.parametrize(
        "edit, match",
        [
            (dict(k=5), "centroids"),
            (dict(k=4.0), "centroids"),
            (dict(k="4"), "centroids"),
            (dict(centroids=[1.0, 2.0]), "centroids"),
            (dict(centroids=[[1.0, 2.0], [3.0]]), "centroids"),
            (dict(centroids=[[float("nan"), 0.0]] * 4), "finite"),
            (dict(scale_index=None), "scale_index"),
            (dict(scale_index="2"), "scale_index"),
            (dict(scale_index=True), "scale_index"),
            (dict(clustering_scale="multi"), "scale_index"),
        ],
    )
    def test_inconsistent_model_file_is_a_format_error(self, dataset, tmp_path, edit, match):
        path = save_cluster_model(cluster_dataset(dataset, "5x", k=4, seed=0), tmp_path / "cm.json")
        doc = json.loads(path.read_text())
        doc.update(edit)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=match):
            load_cluster_model(path)

    @pytest.mark.parametrize("top", [[], "x", 1, None, True])
    def test_top_level_that_is_not_an_object_is_a_format_error(self, tmp_path, top):
        path = tmp_path / "cm.json"
        path.write_text(json.dumps(top))
        with pytest.raises(FormatError, match="must hold a JSON object"):
            load_cluster_model(path)

    def test_feature_width_mismatch_is_a_config_error(self, dataset):
        model = cluster_dataset(dataset, "multi", k=4, seed=0)
        narrow = generate_synthetic(
            SyntheticSpec(n_patients_per_class=1, n_locations=5, dim=16, seed=1)
        )
        with pytest.raises(ConfigError, match="neg000.*width 48.*width 96"):
            model.label(narrow.patients[0])
        two_scales = generate_synthetic(
            SyntheticSpec(n_patients_per_class=1, n_locations=5, dim=32, n_scales=2, seed=1)
        )
        with pytest.raises(ConfigError, match="scale index 2"):
            cluster_dataset(dataset, "5x", k=4, seed=0).label(two_scales.patients[0])


class TestBagAssembly:
    @pytest.fixture
    def setup(self):
        ds = generate_synthetic(
            SyntheticSpec(n_patients_per_class=4, n_locations=40, dim=16, seed=12)
        )
        model = cluster_dataset(ds, "5x", k=8, seed=0)
        return ds, model, {p.patient_id: model.label(p) for p in ds}

    def test_full_quota_one_per_cluster(self, setup):
        ds, model, labels = setup
        for p in ds:
            if len(set(labels[p.patient_id].tolist())) < 8:
                continue
            bag = assemble_bag(p, labels[p.patient_id], 8, patient_rng((0,), p.patient_id))
            assert sorted(bag.clusters.tolist()) == list(range(8))

    def test_multiple_of_k_gives_equal_quota(self, setup):
        ds, model, labels = setup
        checked = 0
        for p in ds:
            if np.bincount(labels[p.patient_id], minlength=8).min() < 2:
                continue  # quota q=2 needs two locations in every cluster
            bag = assemble_bag(p, labels[p.patient_id], 16, patient_rng((1,), p.patient_id))
            assert (np.bincount(bag.clusters, minlength=8) == 2).all()
            checked += 1
        assert checked > 0

    def test_single_instance_bag(self, setup):
        ds, model, labels = setup
        p = ds.patients[0]
        bag = assemble_bag(p, labels[p.patient_id], 1, patient_rng((2,), "x"))
        assert bag.index.shape == bag.clusters.shape == (1,)

    def test_bag_instances_belong_to_patient(self, setup):
        ds, model, labels = setup
        for p in ds:
            bag = assemble_bag(p, labels[p.patient_id], 8, patient_rng((3,), p.patient_id))
            assert bag.patient is p and ((0 <= bag.index) & (bag.index < 40)).all()
            np.testing.assert_array_equal(bag.clusters, labels[p.patient_id][bag.index])
            assert bag.patient_id == p.patient_id and bag.label == p.label

    def test_degenerate_single_cluster_redistributes_fully(self, setup):
        ds, model, labels = setup
        p = ds.patients[0]
        forced = np.full(40, 5)  # every location of this patient in cluster 5
        bag = assemble_bag(p, forced, 8, patient_rng((4,), p.patient_id))
        assert bag.clusters.tolist() == [5] * 8
        assert len(set(bag.index.tolist())) == 8  # without replacement

    def test_sampling_without_replacement_until_exhausted(self, setup):
        ds, model, labels = setup
        p = ds.patients[1]
        bag = assemble_bag(p, labels[p.patient_id], 40, patient_rng((5,), p.patient_id))
        assert sorted(bag.index.tolist()) == list(range(40))

    def test_oversized_bag_fills_with_replacement(self, setup):
        ds, model, labels = setup
        p = ds.patients[2]
        bag = assemble_bag(p, labels[p.patient_id], 64, patient_rng((6,), "y"))
        assert len(bag.index) == 64 and set(bag.index.tolist()) == set(range(40))

    def test_deterministic_given_rng_seed(self, setup):
        ds, model, labels = setup
        p = ds.patients[3]
        a = assemble_bag(p, labels[p.patient_id], 8, patient_rng((7,), p.patient_id))
        b = assemble_bag(p, labels[p.patient_id], 8, patient_rng((7,), p.patient_id))
        np.testing.assert_array_equal(a.index, b.index)

    def test_zero_bag_size_rejected(self, setup):
        ds, model, labels = setup
        p = ds.patients[0]
        with pytest.raises(ContractError):
            assemble_bag(p, labels[p.patient_id], 0, patient_rng((8,), "z"))

    def test_labels_must_fit_the_patient_and_k(self, setup):
        ds, model, labels = setup
        p = ds.patients[0]
        own = labels[p.patient_id]
        wrong_length, negative = own[:-1], np.where(own == 0, -1, own)
        for bad in (wrong_length, negative, own.astype(np.float64), own.astype(bool)):
            with pytest.raises(ContractError, match=p.patient_id):
                assemble_bag(p, bad, 8, patient_rng((9,), "z"))

    def test_stranded_quota_case_spreads_three_clusters_evenly(self):
        # three populated clusters of k = 8; five empty ones must not tilt the bag
        clusters = np.tile([2, 4, 7], 9)
        patient = _patient(len(clusters))
        first, seen = np.zeros(8, dtype=int), set()
        for seed in range(200):
            bag = assemble_bag(patient, clusters, 9, np.random.default_rng(seed))
            assert np.bincount(bag.clusters, minlength=8)[[2, 4, 7]].tolist() == [3, 3, 3]
            first[bag.clusters[0]] += 1
            seen.update(bag.index.tolist())
        # the turn order and each cluster's order are random, not fixed
        assert first[[2, 4, 7]].min() >= 40 and seen == set(range(27))


def _patient(n: int) -> PatientRecord:
    return PatientRecord("p", 1, np.zeros((n, 1, 2)), np.arange(n), np.zeros((n, 2)))


@st.composite
def bag_cases(draw):
    k = draw(st.integers(1, 8))
    clusters = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=30))
    return np.array(clusters), k, draw(st.integers(1, 40)), draw(st.integers(0, 2**32 - 1))


class TestBagProperties:
    @settings(max_examples=200, deadline=None)
    @given(bag_cases())
    def test_exact_size_and_own_labels(self, case):
        clusters, k, bag_size, seed = case
        patient = _patient(len(clusters))
        bag = assemble_bag(patient, clusters, bag_size, np.random.default_rng(seed))
        assert bag.patient is patient
        assert bag.index.shape == bag.clusters.shape == (bag_size,)
        assert ((0 <= bag.index) & (bag.index < len(clusters))).all()
        np.testing.assert_array_equal(bag.clusters, clusters[bag.index])

    @settings(max_examples=200, deadline=None)
    @given(bag_cases())
    def test_no_repeats_until_locations_run_out(self, case):
        clusters, k, bag_size, seed = case
        n = len(clusters)
        bag = assemble_bag(_patient(n), clusters, bag_size, np.random.default_rng(seed))
        picks = bag.index.tolist()
        if bag_size <= n:
            assert len(set(picks)) == bag_size
        else:
            assert sorted(picks[:n]) == list(range(n))

    @settings(max_examples=100, deadline=None)
    @given(bag_cases())
    def test_same_rng_state_same_bag(self, case):
        clusters, k, bag_size, seed = case
        patient = _patient(len(clusters))
        a = assemble_bag(patient, clusters, bag_size, np.random.default_rng(seed))
        b = assemble_bag(patient, clusters, bag_size, np.random.default_rng(seed))
        np.testing.assert_array_equal(a.index, b.index)
        np.testing.assert_array_equal(a.clusters, b.clusters)

    @settings(max_examples=300, deadline=None)
    @given(bag_cases())
    def test_populated_clusters_stay_within_one_until_they_run_out(self, case):
        clusters, k, bag_size, seed = case
        n = len(clusters)
        bag_size = min(bag_size, n)
        bag = assemble_bag(_patient(n), clusters, bag_size, np.random.default_rng(seed))
        picked = np.bincount(bag.clusters, minlength=k)
        size = np.bincount(clusters, minlength=k)
        assert (picked[(size > 0) & (picked < size)] >= picked.max() - 1).all()
