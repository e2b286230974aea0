import dataclasses
import math
import multiprocessing as mp
import os
import pickle
import threading

import numpy as np
import pytest

from crossmil import autodiff as ad
from crossmil.autodiff import Tensor
from crossmil.checkpoint import save_checkpoint
from crossmil.clustering import cluster_dataset
from crossmil.data import SyntheticSpec, generate_synthetic
from crossmil.errors import ConfigError, ContractError, CrossmilError, TrainingError
from crossmil.models import ModelConfig, init_params, nll_loss
from crossmil.training import (
    Adam,
    TrainConfig,
    make_splits,
    train_all,
    train_one_split,
    write_loss_curves,
)


def small_dataset(seed=0, signal=1.0, n_per_class=6, n_locations=10, dim=8):
    return generate_synthetic(
        SyntheticSpec(
            n_patients_per_class=n_per_class,
            n_locations=n_locations,
            dim=dim,
            signal_strength=signal,
            noise_level=0.2,
            seed=seed,
        )
    )


def split_seed(tc, split_id):
    """The init seed train_one_split draws for a split."""
    return int(np.random.default_rng([tc.seed, split_id]).integers(2**31))


def small_model(dataset, k=4):
    return ModelConfig(
        embed_dim=dataset.dim,
        encoder_dim=8,
        attention_hidden=4,
        n_clusters=k,
        n_scales=dataset.n_scales,
    )


class TestNllLoss:
    def test_even_split_gives_ln_two(self):
        lp = Tensor(np.log([[0.5], [0.5]]))
        assert nll_loss(lp, 1).item() == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        for eps in (1e-3, 1e-6, 1e-9):
            lp = Tensor(np.log([[1 - eps], [eps]]))
            assert nll_loss(lp, 0).item() == pytest.approx(0.0, abs=2 * eps)

    def test_matches_direct_negative_log(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.uniform(0.01, 0.99)
            lp = Tensor(np.log([[p], [1 - p]]))
            assert nll_loss(lp, 0).item() == -math.log(p)
            assert nll_loss(lp, 1).item() == -math.log(1 - p)

    def test_invalid_label_rejected(self):
        lp = Tensor(np.log([[0.5], [0.5]]))
        with pytest.raises(ContractError):
            nll_loss(lp, 2)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ContractError):
            nll_loss(Tensor([[-0.1], [-0.1]]), 0)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("epochs", "10"), ("epochs", 0), ("epochs", 2.0), ("epochs", True),
        ("bag_size", True), ("bag_size", 0), ("n_splits", 2.0), ("seed", -1), ("seed", None),
        ("bag_resample", "false"), ("bag_resample", 1),
        ("learning_rate", "1e-3"), ("learning_rate", -1e-3), ("learning_rate", math.nan),
        ("learning_rate", math.inf), ("learning_rate", True),
        ("eps", 0.0), ("eps", math.nan), ("beta1", 1.0), ("beta2", -0.1), ("beta2", "0.9"),
    ])
    def test_mistyped_or_out_of_range_field_is_a_config_error(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_whole_numbers_and_zero_learning_rate_accepted(self):
        cfg = TrainConfig(learning_rate=0, beta1=0, eps=1, seed=0, bag_resample=False)
        assert cfg.learning_rate == 0 and not cfg.bag_resample


class TestMakeSplits:
    def test_ten_patients_ten_splits_is_leave_one_out(self):
        ds = small_dataset(n_per_class=5, n_locations=4)
        splits = make_splits(ds, 10, seed=1)
        vals = [s.val_ids for s in splits]
        assert all(len(v) == 1 for v in vals)
        assert len({v[0] for v in vals}) == 10

    def test_validation_sets_partition_patients(self):
        ds = small_dataset(n_per_class=7, n_locations=4)
        splits = make_splits(ds, 3, seed=2)
        seen = [pid for s in splits for pid in s.val_ids]
        assert sorted(seen) == sorted(p.patient_id for p in ds)

    def test_train_and_val_disjoint(self):
        ds = small_dataset(n_per_class=6, n_locations=4)
        for split in make_splits(ds, 4, seed=3):
            assert set(split.train_ids).isdisjoint(split.val_ids)
            assert set(split.train_ids) | set(split.val_ids) == {
                p.patient_id for p in ds
            }

    def test_single_split_warns_and_degenerates(self):
        ds = small_dataset(n_per_class=3, n_locations=4)
        with pytest.warns(UserWarning, match="n_splits=1"):
            splits = make_splits(ds, 1)
        assert splits[0].train_ids == splits[0].val_ids

    def test_too_few_patients_rejected(self):
        ds = small_dataset(n_per_class=2, n_locations=4)
        with pytest.raises(ContractError):
            make_splits(ds, 5)

    def test_deterministic(self):
        ds = small_dataset(n_per_class=6, n_locations=4)
        assert make_splits(ds, 3, seed=9) == make_splits(ds, 3, seed=9)

    def test_stratification_balances_classes(self):
        ds = small_dataset(n_per_class=6, n_locations=4)
        for split in make_splits(ds, 3, seed=4):
            labels = [0 if pid.startswith("neg") else 1 for pid in split.val_ids]
            assert sum(labels) == 2 and len(labels) == 4


def per_tensor_adam_step(params, m, v, t, cfg):
    """The per-tensor update the flat Adam must reproduce bit for bit."""
    b1t = 1.0 - cfg.beta1**t
    b2t = 1.0 - cfg.beta2**t
    for name in params.names():
        p = params.tensors[name]
        m[name] = cfg.beta1 * m[name] + (1 - cfg.beta1) * p.grad
        v[name] = cfg.beta2 * v[name] + (1 - cfg.beta2) * p.grad**2
        p.data = p.data - cfg.learning_rate * (m[name] / b1t) / (np.sqrt(v[name] / b2t) + cfg.eps)


class TestAdam:
    def test_flat_step_matches_per_tensor_loop_bytes(self):
        mc = small_model(small_dataset(seed=13))
        tc = TrainConfig(learning_rate=1e-2)
        flat, loop = init_params(mc, seed=5), init_params(mc, seed=5)
        opt = Adam(flat, tc)
        m = {n: np.zeros_like(t.data) for n, t in loop.tensors.items()}
        v = {n: np.zeros_like(t.data) for n, t in loop.tensors.items()}
        rng = np.random.default_rng(13)
        for step in range(1, 7):
            grads = {n: rng.normal(size=t.data.shape) for n, t in loop.tensors.items()}
            opt.grad[:] = np.concatenate([grads[n].reshape(-1) for n in flat.names()])
            for n, t in loop.tensors.items():
                t.grad = grads[n].copy()
            opt.step()
            per_tensor_adam_step(loop, m, v, step, tc)
        # the loop rebinds each tensor's data, so compare tensors, not ``flat``
        init = init_params(mc, seed=5)
        for name in loop.names():
            assert flat.tensors[name].data.tobytes() == loop.tensors[name].data.tobytes(), name
            assert flat.tensors[name].data.tobytes() != init.tensors[name].data.tobytes(), name

    def test_unpickled_values_stay_views_that_a_step_moves(self):
        mc = small_model(small_dataset(seed=14))
        other = init_params(mc, seed=2)
        params = pickle.loads(pickle.dumps(other))
        opt = Adam(params, TrainConfig(learning_rate=1e-2))
        opt.grad[:] = 1.0
        opt.step()
        for name, t in params.tensors.items():
            assert np.shares_memory(t.data, params.flat)
            assert (t.data < other.tensors[name].data).all()


class TestTrainOneSplit:
    def test_zero_learning_rate_changes_nothing(self):
        ds = small_dataset(seed=5)
        cm = cluster_dataset(ds, "5x", k=4, seed=5)
        mc = small_model(ds)
        tc = TrainConfig(epochs=4, learning_rate=0.0, bag_size=4, n_splits=2, seed=5)
        splits = make_splits(ds, 2, seed=5)
        trained = train_one_split(ds, splits[0], cm, tc, mc)
        assert len(set(trained.val_curve)) == 1  # constant validation loss
        fresh = init_params(mc, seed=int(np.random.default_rng([5, 0]).integers(2**31)))
        for name in fresh.names():
            np.testing.assert_array_equal(
                trained.params.tensors[name].data, fresh.tensors[name].data
            )

    def test_no_signal_best_val_loss_near_chance(self):
        # pilot over seeds 0..2 stayed within 0.045 of ln 2; bound is 0.1
        ds = generate_synthetic(
            SyntheticSpec(n_patients_per_class=10, n_locations=12, dim=16,
                          signal_strength=0.0, seed=0)
        )
        cm = cluster_dataset(ds, "5x", k=4, seed=0)
        mc = ModelConfig(embed_dim=16, encoder_dim=16, attention_hidden=8,
                         n_clusters=4, n_scales=3)
        tc = TrainConfig(epochs=20, learning_rate=1e-3, bag_size=4, n_splits=2, seed=0)
        splits = make_splits(ds, 2, seed=0)
        trained = train_one_split(ds, splits[0], cm, tc, mc)
        assert abs(min(trained.val_curve) - math.log(2)) <= 0.1

    def test_separable_data_halves_training_loss(self):
        # pilot over seeds 0..2: loss ratio after 30 epochs was <= 0.39
        ds = generate_synthetic(
            SyntheticSpec(n_patients_per_class=12, n_locations=20, dim=32,
                          signal_strength=1.0, noise_level=0.2, signal_fraction=0.5, seed=1)
        )
        cm = cluster_dataset(ds, "5x", k=8, seed=1)
        mc = ModelConfig(embed_dim=32, encoder_dim=32, attention_hidden=16,
                         n_clusters=8, n_scales=3)
        tc = TrainConfig(epochs=30, learning_rate=1e-3, bag_size=8, n_splits=2, seed=1)
        splits = make_splits(ds, 2, seed=1)
        trained = train_one_split(ds, splits[0], cm, tc, mc)
        assert min(trained.train_curve) <= 0.5 * trained.train_curve[0]

    def test_selection_epoch_is_argmin_of_val_curve(self):
        ds = small_dataset(seed=6)
        cm = cluster_dataset(ds, "5x", k=4, seed=6)
        # a rate high enough that validation loss is lowest before the last epoch
        tc = TrainConfig(epochs=6, learning_rate=0.1, bag_size=4, n_splits=2, seed=6)
        splits = make_splits(ds, 2, seed=6)
        trained = train_one_split(ds, splits[0], cm, tc, small_model(ds))
        assert trained.selection_epoch == int(np.argmin(trained.val_curve))
        assert trained.selection_epoch < tc.epochs - 1
        # the returned parameters are the selected epoch's: a run stopped there ends on them
        stopped = dataclasses.replace(tc, epochs=trained.selection_epoch + 1)
        shorter = train_one_split(ds, splits[0], cm, stopped, small_model(ds))
        np.testing.assert_array_equal(trained.params.flat, shorter.params.flat)

    def test_divergence_raises_training_error_with_epoch(self):
        ds = small_dataset(seed=7)
        cm = cluster_dataset(ds, "5x", k=4, seed=7)
        tc = TrainConfig(epochs=3, learning_rate=1e150, bag_size=4, n_splits=2, seed=7)
        splits = make_splits(ds, 2, seed=7)
        with pytest.raises(TrainingError) as err:
            train_one_split(ds, splits[0], cm, tc, small_model(ds))
        assert err.value.epoch in (0, 1, 2)
        assert err.value.split_id == 0

    def test_training_error_names_the_split_and_the_layer(self, monkeypatch):
        import crossmil.training as training

        ds = small_dataset(seed=7)
        cm = cluster_dataset(ds, "5x", k=4, seed=7)
        tc = TrainConfig(epochs=2, learning_rate=1e-3, bag_size=4, n_splits=2, seed=7)
        split1_seed = int(np.random.default_rng([tc.seed, 1]).integers(2**31))

        def poisoned_init(cfg, seed=0):
            params = init_params(cfg, seed)
            if seed == split1_seed:
                params.tensors["attn.v"].data[0, 0] = np.inf
            return params

        monkeypatch.setattr(training, "init_params", poisoned_init)
        with pytest.raises(TrainingError) as err:
            train_all(ds, cm, tc, small_model(ds))
        assert (err.value.split_id, err.value.epoch) == (1, 0)
        message = str(err.value)
        assert "'cross_scale_attention'" in message and "(split 1, epoch 0)" in message

    def test_training_error_survives_pickling(self):
        err = TrainingError("training diverged: overflow", 3, 5)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is TrainingError
        assert (str(back), back.split_id, back.epoch) == (str(err), 3, 5)
        assert back.message == "training diverged: overflow"

    def test_validation_patients_never_reach_a_gradient_step(self, monkeypatch):
        import crossmil.training as training

        ds = small_dataset(seed=8)
        cm = cluster_dataset(ds, "5x", k=4, seed=8)
        tc = TrainConfig(epochs=2, learning_rate=1e-3, bag_size=4, n_splits=2, seed=8)
        split = make_splits(ds, 2, seed=8)[0]

        events = []  # ("train_step", pid), ("forward_bags", pids) and ("step", None), in call order
        real_train_step, real_forward_bags, real_step = (
            training.train_step, training.forward_bags, Adam.step
        )

        def spy_train_step(bag, params, grad):
            events.append(("train_step", bag.patient_id))
            return real_train_step(bag, params, grad)

        def spy_forward_bags(bags, params):
            events.append(("forward_bags", tuple(b.patient_id for b in bags)))
            return real_forward_bags(bags, params)

        def spy_step(self):
            events.append(("step", None))
            return real_step(self)

        monkeypatch.setattr(training, "train_step", spy_train_step)
        monkeypatch.setattr(training, "forward_bags", spy_forward_bags)
        monkeypatch.setattr(Adam, "step", spy_step)
        train_one_split(ds, split, cm, tc, small_model(ds))

        # validation: one batch per epoch, of exactly the validation ids
        batches = [e for e in events if e[0] == "forward_bags"]
        assert batches == [("forward_bags", split.val_ids)] * tc.epochs
        # training: every step follows a train_step of a training patient's bag
        steps = [i for i, e in enumerate(events) if e[0] == "step"]
        assert len(steps) == tc.epochs * len(split.train_ids)
        stepped = [events[i - 1] for i in steps]
        assert all(kind == "train_step" and pid in split.train_ids for kind, pid in stepped)
        assert {pid for _, pid in stepped} == set(split.train_ids)
        forwarded = {pid for kind, pid in events if kind == "train_step"}
        assert forwarded.isdisjoint(split.val_ids)

    def test_makes_no_graph(self, monkeypatch):
        ds = small_dataset(seed=9)
        cm = cluster_dataset(ds, "5x", k=4, seed=9)
        tc = TrainConfig(epochs=2, learning_rate=1e-3, bag_size=4, n_splits=2, seed=9)

        def no_backward(loss):
            raise AssertionError("training swept a graph")

        monkeypatch.setattr(ad, "backward", no_backward)
        before = next(ad._node_ids)
        trained = train_one_split(ds, make_splits(ds, 2, seed=9)[0], cm, tc, small_model(ds))
        assert next(ad._node_ids) == before + 1
        assert len(trained.train_curve) == 2

    def test_a_poisoned_bag_in_the_validation_batch_names_split_epoch_and_layer(self, monkeypatch):
        import crossmil.training as training

        ds = small_dataset(seed=7)
        cm = cluster_dataset(ds, "5x", k=4, seed=7)
        tc = TrainConfig(epochs=2, learning_rate=1e-3, bag_size=4, n_splits=2, seed=7)
        split = make_splits(ds, 2, seed=7)[1]
        poisoned = split.val_ids[1]
        # a scale the cluster model does not read, so labelling still works
        scale = (cm.scale_index + 1) % ds.n_scales
        ds.patient(poisoned).emb[:, scale, 0] = np.inf
        batches = []
        real_forward_bags = training.forward_bags

        def spy_forward_bags(bags, params):
            batches.append([b.patient_id for b in bags])
            return real_forward_bags(bags, params)

        monkeypatch.setattr(training, "forward_bags", spy_forward_bags)
        with pytest.raises(TrainingError) as err:
            train_one_split(ds, split, cm, tc, small_model(ds), split_id=1)
        assert len(split.val_ids) > 1 and batches == [list(split.val_ids)]
        assert (err.value.split_id, err.value.epoch) == (1, 0)
        message = str(err.value)
        assert "'mi_fcn_encode'" in message and "(split 1, epoch 0)" in message


class TestTrainAll:
    def test_two_splits_two_models_distinct_val_sets(self):
        ds = small_dataset(seed=9)
        cm = cluster_dataset(ds, "5x", k=4, seed=9)
        tc = TrainConfig(epochs=2, learning_rate=1e-3, bag_size=4, n_splits=2, seed=9)
        models = train_all(ds, cm, tc, small_model(ds))
        assert len(models) == 2
        splits = make_splits(ds, 2, seed=9)
        assert set(splits[0].val_ids) != set(splits[1].val_ids)
        assert all(m.selection_epoch < tc.epochs for m in models)

    def test_identical_seeds_identical_checkpoints(self, tmp_path):
        ds = small_dataset(seed=10)
        cm = cluster_dataset(ds, "5x", k=4, seed=10)
        tc = TrainConfig(epochs=2, learning_rate=1e-3, bag_size=4, n_splits=2, seed=10)
        mc = small_model(ds)
        for tag in ("a", "b"):
            for m in train_all(ds, cm, tc, mc):
                save_checkpoint(m.params, tmp_path / f"{tag}_{m.split_id}.bin")
        for i in range(2):
            assert (tmp_path / f"a_{i}.bin").read_bytes() == (tmp_path / f"b_{i}.bin").read_bytes()

    def test_fixed_bags_flag(self):
        ds = small_dataset(seed=11)
        cm = cluster_dataset(ds, "5x", k=4, seed=11)
        tc = TrainConfig(
            epochs=2, learning_rate=1e-3, bag_size=4, n_splits=2, seed=11, bag_resample=False
        )
        models = train_all(ds, cm, tc, small_model(ds))
        assert len(models) == 2

    def test_loss_curve_file_format(self, tmp_path):
        ds = small_dataset(seed=12)
        cm = cluster_dataset(ds, "5x", k=4, seed=12)
        tc = TrainConfig(epochs=3, learning_rate=1e-3, bag_size=4, n_splits=2, seed=12)
        model = train_all(ds, cm, tc, small_model(ds))[0]
        path = write_loss_curves(model, tmp_path / "loss.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 4
        epoch, train, val = lines[1].split(",")
        assert epoch == "0" and float(train) > 0 and float(val) > 0


needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs the fork start method"
)


@pytest.fixture
def two_cpus(monkeypatch):
    """train_all sees two usable CPUs, so it forks one worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@needs_fork
@pytest.mark.usefixtures("two_cpus")
class TestParallelSplits:
    def test_one_child_per_extra_cpu_and_sequential_bytes(self, monkeypatch):
        started = []
        real_start = mp.process.BaseProcess.start

        def spy_start(proc):
            started.append(proc)
            return real_start(proc)

        monkeypatch.setattr(mp.process.BaseProcess, "start", spy_start)
        ds = small_dataset(seed=13)
        cm = cluster_dataset(ds, "5x", k=4, seed=13)
        tc = TrainConfig(epochs=2, learning_rate=1e-3, bag_size=4, n_splits=5, seed=13)
        models = train_all(ds, cm, tc, small_model(ds))
        assert len(started) == 1 and started[0].exitcode == 0
        assert [m.split_id for m in models] == [0, 1, 2, 3, 4]
        splits = make_splits(ds, 5, seed=13)
        for m, split in zip(models, splits):
            ref = train_one_split(ds, split, cm, tc, small_model(ds), split_id=m.split_id)
            assert m.params.flat.tobytes() == ref.params.flat.tobytes()
            assert (m.selection_epoch, m.train_curve, m.val_curve) == (
                ref.selection_epoch, ref.train_curve, ref.val_curve
            )
            assert all(t.data.base is m.params.flat for t in m.params.tensors.values())

    def test_a_worker_that_dies_is_an_error_naming_its_split(self, monkeypatch):
        # init_params is patched, not train_one_split: a replaced
        # train_one_split trains in this process
        import crossmil.training as training

        ds = small_dataset(seed=14)
        cm = cluster_dataset(ds, "5x", k=4, seed=14)
        tc = TrainConfig(epochs=1, learning_rate=1e-3, bag_size=4, n_splits=3, seed=14)

        parent = os.getpid()

        def dying_init(cfg, seed=0):
            if seed == split_seed(tc, 1):
                assert os.getpid() != parent, "split 1 trained in this process"
                os._exit(7)
            return init_params(cfg, seed)

        monkeypatch.setattr(training, "init_params", dying_init)
        with pytest.raises(CrossmilError, match="split 1 exited with code 7"):
            train_all(ds, cm, tc, small_model(ds))
        assert not mp.active_children()

    @pytest.mark.parametrize("failing, raised", [({1, 2}, 1), ({2, 3}, 2), ({3}, 3)])
    def test_the_lowest_failing_split_is_raised(self, monkeypatch, failing, raised):
        # this process trains splits 0 and 2, the worker 1 and 3
        import crossmil.training as training

        ds = small_dataset(seed=15)
        cm = cluster_dataset(ds, "5x", k=4, seed=15)
        tc = TrainConfig(epochs=1, learning_rate=1e-3, bag_size=4, n_splits=4, seed=15)
        failing_seeds = {split_seed(tc, i): i for i in failing}

        def failing_init(cfg, seed=0):
            if seed in failing_seeds:
                raise TrainingError("training diverged", failing_seeds[seed], 0)
            return init_params(cfg, seed)

        monkeypatch.setattr(training, "init_params", failing_init)
        with pytest.raises(TrainingError) as err:
            train_all(ds, cm, tc, small_model(ds))
        assert err.value.split_id == raised
        assert not mp.active_children()

    def test_a_replaced_train_one_split_sees_every_split_here(self, monkeypatch):
        import crossmil.training as training

        real, seen = training.train_one_split, []

        def spy(*args, split_id=0, **kwargs):
            seen.append(split_id)
            return real(*args, split_id=split_id, **kwargs)

        monkeypatch.setattr(training, "train_one_split", spy)
        ds = small_dataset(seed=16)
        cm = cluster_dataset(ds, "5x", k=4, seed=16)
        tc = TrainConfig(epochs=1, learning_rate=1e-3, bag_size=4, n_splits=3, seed=16)
        assert [m.split_id for m in train_all(ds, cm, tc, small_model(ds))] == [0, 1, 2]
        assert seen == [0, 1, 2]

    def test_splits_train_here_while_another_thread_runs(self, monkeypatch):
        started = []
        real_start = mp.process.BaseProcess.start
        monkeypatch.setattr(
            mp.process.BaseProcess, "start", lambda proc: started.append(proc) or real_start(proc)
        )
        ds = small_dataset(seed=17)
        cm = cluster_dataset(ds, "5x", k=4, seed=17)
        tc = TrainConfig(epochs=1, learning_rate=1e-3, bag_size=4, n_splits=2, seed=17)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            models = train_all(ds, cm, tc, small_model(ds))
        finally:
            release.set()
            other.join(timeout=10)
        assert not started and [m.split_id for m in models] == [0, 1]
