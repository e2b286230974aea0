import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmil.clustering import (
    Bag,
    assemble_bag,
    cluster_dataset,
    cluster_members,
    kmeans,
    load_cluster_model,
    patient_rng,
    save_cluster_model,
)
from crossmil.data import Dataset, PatientRecord, SyntheticSpec, generate_synthetic
from crossmil.errors import ConfigError, ContractError, FormatError


def _bag(patient, clusters, k, bag_size, rng):
    return assemble_bag(patient, cluster_members(patient, clusters, k), bag_size, rng)


class TestKMeans:
    def test_identical_vectors_single_cluster(self):
        x = np.tile([1.5, -2.0, 0.25], (10, 1))
        result = kmeans(x, k=1, seed=0)
        assert result.sse_history[-1] == 0.0
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
        negatives = Dataset(tuple(p for p in dataset if p.label == 0), dataset.scales)
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
        assert sorted(json.loads(path.read_text())) == [
            "centroids", "clustering_scale", "k", "scale_index"
        ]
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
            (dict(centroids=[1.0, 2.0]), "centroids"),
            (dict(centroids=[[1.0, 2.0], [3.0]]), "centroids"),
            (dict(centroids=[[float("nan"), 0.0]] * 4), "finite"),
            (dict(scale_index=None), "scale_index"),
            (dict(scale_index="2"), "scale_index"),
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
            bag = _bag(p, labels[p.patient_id], 8, 8, patient_rng((0,), p.patient_id))
            assert sorted(bag.clusters.tolist()) == list(range(8))

    def test_multiple_of_k_gives_equal_quota(self, setup):
        ds, model, labels = setup
        checked = 0
        for p in ds:
            if np.bincount(labels[p.patient_id], minlength=8).min() < 2:
                continue  # quota q=2 needs two locations in every cluster
            bag = _bag(p, labels[p.patient_id], 8, 16, patient_rng((1,), p.patient_id))
            assert (np.bincount(bag.clusters, minlength=8) == 2).all()
            checked += 1
        assert checked > 0

    def test_single_instance_bag(self, setup):
        ds, model, labels = setup
        p = ds.patients[0]
        bag = _bag(p, labels[p.patient_id], 8, 1, patient_rng((2,), "x"))
        assert bag.index.shape == bag.clusters.shape == (1,)

    def test_bag_instances_belong_to_patient(self, setup):
        ds, model, labels = setup
        for p in ds:
            bag = _bag(p, labels[p.patient_id], 8, 8, patient_rng((3,), p.patient_id))
            assert bag.patient is p and ((0 <= bag.index) & (bag.index < 40)).all()
            np.testing.assert_array_equal(bag.clusters, labels[p.patient_id][bag.index])
            assert bag.patient_id == p.patient_id and bag.label == p.label

    def test_degenerate_single_cluster_redistributes_fully(self, setup):
        ds, model, labels = setup
        p = ds.patients[0]
        forced = np.full(40, 5)  # every location of this patient in cluster 5
        bag = _bag(p, forced, 8, 8, patient_rng((4,), p.patient_id))
        assert bag.clusters.tolist() == [5] * 8
        assert len(set(bag.index.tolist())) == 8  # without replacement

    def test_sampling_without_replacement_until_exhausted(self, setup):
        ds, model, labels = setup
        p = ds.patients[1]
        bag = _bag(p, labels[p.patient_id], 8, 40, patient_rng((5,), p.patient_id))
        assert sorted(bag.index.tolist()) == list(range(40))

    def test_oversized_bag_fills_with_replacement(self, setup):
        ds, model, labels = setup
        p = ds.patients[2]
        bag = _bag(p, labels[p.patient_id], 8, 64, patient_rng((6,), "y"))
        assert len(bag.index) == 64 and set(bag.index.tolist()) == set(range(40))

    def test_deterministic_given_rng_seed(self, setup):
        ds, model, labels = setup
        p = ds.patients[3]
        a = _bag(p, labels[p.patient_id], 8, 8, patient_rng((7,), p.patient_id))
        b = _bag(p, labels[p.patient_id], 8, 8, patient_rng((7,), p.patient_id))
        np.testing.assert_array_equal(a.index, b.index)

    def test_zero_bag_size_rejected(self, setup):
        ds, model, labels = setup
        p = ds.patients[0]
        with pytest.raises(ContractError):
            _bag(p, labels[p.patient_id], 8, 0, patient_rng((8,), "z"))

    def test_labels_must_fit_the_patient_and_k(self, setup):
        ds, model, labels = setup
        p = ds.patients[0]
        with pytest.raises(ContractError, match=p.patient_id):
            cluster_members(p, labels[p.patient_id][:-1], 8)
        with pytest.raises(ContractError, match=p.patient_id):
            cluster_members(p, np.full(40, 8), 8)
        eight_of_forty = tuple((c,) for c in range(8))
        with pytest.raises(ContractError, match=p.patient_id):
            assemble_bag(p, eight_of_forty, 8, patient_rng((9,), "z"))


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
        bag = _bag(patient, clusters, k, bag_size, np.random.default_rng(seed))
        assert bag.patient is patient
        assert bag.index.shape == bag.clusters.shape == (bag_size,)
        assert ((0 <= bag.index) & (bag.index < len(clusters))).all()
        np.testing.assert_array_equal(bag.clusters, clusters[bag.index])

    @settings(max_examples=200, deadline=None)
    @given(bag_cases())
    def test_no_repeats_until_locations_run_out(self, case):
        clusters, k, bag_size, seed = case
        n = len(clusters)
        bag = _bag(_patient(n), clusters, k, bag_size, np.random.default_rng(seed))
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
        a = _bag(patient, clusters, k, bag_size, np.random.default_rng(seed))
        b = _bag(patient, clusters, k, bag_size, np.random.default_rng(seed))
        np.testing.assert_array_equal(a.index, b.index)
        np.testing.assert_array_equal(a.clusters, b.clusters)

    @settings(max_examples=300, deadline=None)
    @given(bag_cases())
    def test_members_built_once_give_the_per_bag_construction(self, case):
        clusters, k, bag_size, seed = case
        patient = _patient(len(clusters))
        members = cluster_members(patient, clusters, k)
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # the same member lists serve every bag
            new = assemble_bag(patient, members, bag_size, rng_new)
            old = _per_bag_construction(patient, clusters, k, bag_size, rng_old)
            np.testing.assert_array_equal(new.index, old.index)
            np.testing.assert_array_equal(new.clusters, old.clusters)
            assert new.index.dtype == old.index.dtype and new.clusters.dtype == old.clusters.dtype
            assert rng_new.bit_generator.state == rng_old.bit_generator.state


def _per_bag_construction(patient, clusters, k, bag_size, rng):
    """The bag construction that grouped the cluster members on every call."""
    members = {c: np.flatnonzero(clusters == c).tolist() for c in range(k)}
    populated = [c for c in range(k) if members[c]]
    quotas = np.zeros(k, dtype=np.int64)
    if bag_size >= k:
        quotas[:] = bag_size // k
        extra = bag_size % k
        if extra:
            quotas[rng.permutation(k)[:extra]] += 1
    else:
        chosen = rng.choice(populated, size=min(bag_size, len(populated)), replace=False)
        quotas[chosen] = 1
        for i in range(bag_size - len(chosen)):
            quotas[populated[i % len(populated)]] += 1
    empty = [c for c in range(k) if not members[c]]
    stranded = int(quotas[empty].sum())
    quotas[empty] = 0
    for i in range(stranded):
        quotas[populated[i % len(populated)]] += 1
    remaining = {c: list(members[c]) for c in populated}
    picked: list[int] = []
    for c in populated:
        take = min(int(quotas[c]), len(remaining[c]))
        if take:
            sel = rng.choice(len(remaining[c]), size=take, replace=False)
            for j in sorted(sel, reverse=True):
                picked.append(remaining[c].pop(int(j)))
    while len(picked) < bag_size and any(remaining.values()):
        for c in populated:
            if len(picked) == bag_size:
                break
            if remaining[c]:
                j = int(rng.integers(len(remaining[c])))
                picked.append(remaining[c].pop(j))
    while len(picked) < bag_size:
        c = populated[int(rng.integers(len(populated)))]
        picked.append(members[c][int(rng.integers(len(members[c])))])
    index = np.array(picked, dtype=np.int64)
    return Bag(patient, index, clusters[index])
