"""Optimization loop, split protocol, and validation-based selection.

Training follows a fixed recipe: per epoch, one cluster-balanced bag per
training patient, NLL loss per bag, one adaptive-moment gradient step
per bag, then a validation pass; the returned parameters are the ones
with the lowest validation loss. A step is ``models.train_step``, which
writes the bag's gradient straight into the optimizer's gradient buffer,
then ``Adam.step``, which reads it. Splits train on up to
``min(n_splits, usable CPUs)`` processes, with the same bytes as the
sequential loop.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clustering import Bag, ClusterModel, assemble_bag, patient_rng
from .data import Dataset
from .errors import ContractError, CrossmilError, DomainError, TrainingError
from .errors import check_bool, check_int, check_real
from .models import ModelConfig, ModelParams, _nll, forward_bags, init_params, train_step

_VAL_BAG_TAG = 0x56414C  # keeps validation bag streams apart from train streams


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-4
    bag_size: int = 8
    n_splits: int = 10
    seed: int = 0
    bag_resample: bool = True

    def __post_init__(self):
        for name in ("epochs", "bag_size", "n_splits"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0)
        check_bool("bag_resample", self.bag_resample)
        # a zero learning rate is allowed: a run that keeps the initial parameters
        check_real("learning_rate", self.learning_rate, 0)


@dataclass(frozen=True)
class Split:
    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]


@dataclass
class TrainedModel:
    params: ModelParams
    split_id: int
    train_curve: list[float] = field(default_factory=list)
    val_curve: list[float] = field(default_factory=list)

    @property
    def selection_epoch(self) -> int:
        """The epoch whose parameters were kept: the first lowest validation loss."""
        return int(np.argmin(self.val_curve))


class Adam:
    """First-order adaptive-moment updates over a model's parameters.

    The values, the moments, the gradient and the update live in flat
    float64 buffers laid out like ``params.flat``, which is the values
    buffer and which every parameter view shares, so a step is a few
    whole-buffer operations in place. Each element goes through the
    per-tensor formula's operations in the same order, so results are the
    same to the bit. ``grad`` is a ``ModelParams`` of the model's config,
    so its views are built once: before each step the caller writes every
    parameter's gradient through its ``layers`` (``train_step`` does),
    and the step reads ``grad.flat``, then uses it as scratch.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.lr = cfg.learning_rate
        self.t = 0
        self._values = params.flat
        n = params.flat.size
        self.m, self.v, self._upd = np.zeros(n), np.zeros(n), np.empty(n)
        self.grad = ModelParams(params.config, np.zeros(n))

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.BETA1**self.t
        b2t = 1.0 - self.BETA2**self.t
        g, upd, m, v = self.grad.flat, self._upd, self.m, self.v
        # m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g**2
        np.multiply(g, 1 - self.BETA1, out=upd)
        np.add(np.multiply(m, self.BETA1, out=m), upd, out=m)
        np.multiply(np.square(g, out=upd), 1 - self.BETA2, out=upd)
        np.add(np.multiply(v, self.BETA2, out=v), upd, out=v)
        # upd = lr * (m / b1t) / (sqrt(v / b2t) + eps)
        np.add(np.sqrt(np.divide(v, b2t, out=upd), out=upd), self.EPS, out=upd)
        np.divide(np.multiply(np.divide(m, b1t, out=g), self.lr, out=g), upd, out=upd)
        np.subtract(self._values, upd, out=self._values)


def make_splits(dataset: Dataset, n_splits: int, seed: int = 0) -> tuple[Split, ...]:
    """Class-stratified holdout splits over the training patients.

    Split i validates on the i-th 1/n_splits slice of each class (so the
    validation slices partition the patients) and trains on the rest.
    """
    if n_splits < 1:
        raise ContractError(f"n_splits must be >= 1, got {n_splits}")
    all_ids = [p.patient_id for p in dataset]
    if n_splits == 1:
        warnings.warn("n_splits=1: validation set equals the training set", stacklevel=2)
        return (Split(tuple(all_ids), tuple(all_ids)),)
    if len(all_ids) < n_splits:
        raise ContractError(f"{len(all_ids)} patients cannot fill {n_splits} validation sets")

    rng = np.random.default_rng(seed)
    slices: list[list[str]] = [[] for _ in range(n_splits)]
    offset = 0
    for label in (0, 1):
        ids = [p.patient_id for p in dataset if p.label == label]
        order = rng.permutation(len(ids))
        for pos, idx in enumerate(order):
            slices[(offset + pos) % n_splits].append(ids[idx])
        offset += len(ids)
    return tuple(
        Split(
            tuple(pid for pid in all_ids if pid not in val),
            tuple(pid for pid in all_ids if pid in val),
        )
        for val in map(set, slices)
    )


def _epoch_loss(
    ids: tuple[str, ...], params: ModelParams, bags: dict[str, Bag]
) -> float:
    """Mean NLL of the bags of ``ids``, scored together in one forward.

    ``forward_bags`` and ``models._nll`` run as in ``train_step``, so a bag
    scored alone gives the loss ``train_step`` returns for it, to the bit.
    The losses are added as Python floats in id order.
    """
    batch = [bags[pid] for pid in ids]
    losses = _nll(forward_bags(batch, params)[..., None], [bag.label for bag in batch])[0]
    total = 0.0
    for loss in losses.tolist():
        total += loss
    return total / len(ids)


def train_one_split(
    dataset: Dataset,
    split: Split,
    cluster_model: ClusterModel,
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    split_id: int = 0,
) -> TrainedModel:
    """Train on one split and return the lowest-validation-loss parameters."""
    params = init_params(model_cfg, seed=int(np.random.default_rng([cfg.seed, split_id]).integers(2**31)))
    opt = Adam(params, cfg)
    train_set = set(split.train_ids)
    # nearest-centroid labels once per patient here, not once per bag
    clusters = {
        pid: cluster_model.label(dataset.patient(pid)) for pid in split.train_ids + split.val_ids
    }

    def bag_for(pid: str, epoch_key: int) -> Bag:
        rng = patient_rng((cfg.seed, split_id, epoch_key), pid)
        return assemble_bag(dataset.patient(pid), clusters[pid], cfg.bag_size, rng)

    val_bags = {pid: bag_for(pid, _VAL_BAG_TAG) for pid in split.val_ids}

    best_val = np.inf
    best_flat = params.flat.copy()
    train_curve: list[float] = []
    val_curve: list[float] = []
    for epoch in range(cfg.epochs):
        # each key seeds a fresh stream, so fixed bags (key 0) repeat every epoch.
        # Drawing each bag just before its step trained ~10% slower at bag 8.
        bag_key = epoch + 1 if cfg.bag_resample else 0
        bags = {pid: bag_for(pid, bag_key) for pid in split.train_ids}
        order_rng = np.random.default_rng([cfg.seed, split_id, epoch, 0x4F52])
        order = [split.train_ids[i] for i in order_rng.permutation(len(split.train_ids))]
        running = 0.0
        try:
            for pid in order:
                bag = bags[pid]
                assert bag.patient_id in train_set  # validation data must never reach a gradient
                running += train_step(bag, params, opt.grad)
                opt.step()
            # the last step's parameters reach a forward pass first here
            val_loss = _epoch_loss(split.val_ids, params, val_bags)
        except DomainError as e:
            raise TrainingError(f"training diverged: {e}", split_id, epoch) from e
        train_loss = running / len(order)
        if not np.isfinite(train_loss):
            raise TrainingError("training loss is not finite", split_id, epoch)
        train_curve.append(train_loss)
        val_curve.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_flat = params.flat.copy()

    params.flat[:] = best_flat
    return TrainedModel(params, split_id, train_curve, val_curve)


_OWN_TRAIN_ONE_SPLIT = train_one_split


def train_all(
    dataset: Dataset,
    cluster_model: ClusterModel,
    cfg: TrainConfig,
    model_cfg: ModelConfig,
) -> list[TrainedModel]:
    """Train every split and return the models in split order.

    The splits share no state, so they are dealt round-robin over
    ``min(n_splits, usable CPUs)`` workers: this process and forked
    children, which get the data through the fork and send back one
    message per split through a pipe: its trained model, or the exception
    that ends the worker's share. A worker that exits before sending is
    an error naming the split it owed. Each split computes the same bytes
    as in the sequential loop. If several splits fail, the error of the
    lowest split id is raised, as the sequential loop would have.

    A worker sends back only what ``train_one_split`` returns. That is
    all this module's own does; a replacement (a tracer, a spy) may also
    record into this process, so with one every split trains here. So
    they do when another thread runs: a fork copies only the calling
    thread, and a lock another thread holds would stay held in the child.
    """
    splits = make_splits(dataset, cfg.n_splits, cfg.seed)
    usable_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_workers = min(len(splits), usable_cpus)
    if (
        train_one_split is not _OWN_TRAIN_ONE_SPLIT
        or threading.active_count() > 1
        or "fork" not in mp.get_all_start_methods()
    ):
        n_workers = 1
    shares = [range(w, len(splits), n_workers) for w in range(n_workers)]

    def train_share(share: range) -> list[TrainedModel | Exception]:
        """One message per split of the share, in order: its trained model,
        or the exception that ends the share."""
        messages: list[TrainedModel | Exception] = []
        for i in share:
            try:
                messages.append(
                    train_one_split(dataset, splits[i], cluster_model, cfg, model_cfg, split_id=i)
                )
            except Exception as e:
                messages.append(e)
                break
        return messages

    def send_share(share: range, conn) -> None:
        """Forked worker: train the whole share, then send its messages. A
        model's pickle can outgrow the pipe's buffer, and this process reads
        only after its own share, so an earlier send would stall the worker."""
        for message in train_share(share):
            conn.send(message)

    ctx = mp.get_context("fork") if n_workers > 1 else None
    children = []
    results: dict[int, TrainedModel | Exception] = {}
    try:
        for share in shares[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=send_share, args=(share, send))
            proc.start()
            send.close()
            children.append((proc, recv, share))
        results.update(zip(shares[0], train_share(shares[0])))
        for proc, recv, share in children:
            for i in share:
                try:
                    results[i] = recv.recv()
                except EOFError:
                    proc.join()
                    results[i] = CrossmilError(
                        f"training worker for split {i} exited with code "
                        f"{proc.exitcode} without sending its result"
                    )
                if isinstance(results[i], Exception):
                    break
    except BaseException:
        for proc, _, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv, _ in children:
            recv.close()
            proc.join()
    failed = [i for i, result in results.items() if isinstance(result, Exception)]
    if failed:
        raise results[min(failed)]
    return [results[i] for i in range(len(splits))]


def write_loss_curves(model: TrainedModel, path: str | Path) -> Path:
    path = Path(path)
    lines = ["epoch,train_loss,val_loss"]
    for i, (tr, va) in enumerate(zip(model.train_curve, model.val_curve)):
        lines.append(f"{i},{tr!r},{va!r}")
    path.write_text("\n".join(lines) + "\n")
    return path
