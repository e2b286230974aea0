"""Optimization loop, split protocol, and validation-based selection.

Training follows a fixed recipe: per epoch, one cluster-balanced bag per
training patient, NLL loss per bag, one adaptive-moment gradient step
per bag, then a validation pass; the returned parameters are the ones
with the lowest validation loss. Splits train on up to
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

from . import autodiff as ad
from .autodiff import Tensor
from .clustering import Bag, ClusterModel, assemble_bag, cluster_members, patient_rng
from .data import Dataset
from .errors import ContractError, CrossmilError, DomainError, TrainingError
from .models import ModelConfig, ModelParams, forward_bag, init_params

_VAL_BAG_TAG = 0x56414C  # keeps validation bag streams apart from train streams


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    bag_size: int = 8
    n_splits: int = 10
    seed: int = 0
    bag_resample: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.n_splits < 1:
            raise ContractError(f"n_splits must be >= 1, got {self.n_splits}")
        if self.bag_size < 1:
            raise ContractError(f"bag_size must be >= 1, got {self.bag_size}")


@dataclass(frozen=True)
class Split:
    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]


@dataclass(frozen=True)
class SplitPlan:
    splits: tuple[Split, ...]
    test_ids: tuple[str, ...] = ()  # test patients live in a separate dataset


@dataclass
class TrainedModel:
    params: ModelParams
    split_id: int
    selection_epoch: int
    train_curve: list[float] = field(default_factory=list)
    val_curve: list[float] = field(default_factory=list)


def nll_loss(log_probs: Tensor, label: int) -> Tensor:
    """Negative log-likelihood of the true class; stays on the graph."""
    if label not in (0, 1):
        raise ContractError(f"label must be 0 or 1, got {label}")
    lp = log_probs.data.reshape(-1)
    if lp.shape[0] != 2:
        raise ContractError(f"log_probs must have 2 entries, got shape {log_probs.shape}")
    if lp.max() > 1e-9 or abs(np.logaddexp(lp[0], lp[1])) > 1e-6:
        raise ContractError("log_probs are not log-probabilities (logsumexp != 0)")
    onehot = np.zeros_like(log_probs.data)
    onehot.reshape(-1)[label] = 1.0
    # -(log_probs . onehot), rounded as a product, a sum and a negation
    value = (log_probs.data * onehot).sum() * -1.0

    def grad_fn(g):
        return (np.broadcast_to(g * -1.0, onehot.shape) * onehot,)

    return ad.custom_op("nll_loss", value, (log_probs,), grad_fn)


class Adam:
    """First-order adaptive-moment updates over a model's parameters.

    The values, the moments, the gradient and the update live in flat
    float64 buffers over all parameters (in ``params.names()`` order);
    the values buffer is ``params.flat``, which every tensor views, so a
    step is a few whole-buffer operations in place. Each element goes
    through the per-tensor formula's operations in the same order, so
    results are the same to the bit. A tensor whose ``grad`` is None
    keeps its value and moments.
    """

    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.lr = cfg.learning_rate
        self.beta1, self.beta2, self.eps = cfg.beta1, cfg.beta2, cfg.eps
        self.t = 0
        self._values = params.flat
        self._tensors = [params.tensors[n] for n in params.names()]
        self._sizes = [t.data.size for t in self._tensors]
        n = sum(self._sizes)
        self.m, self.v = np.zeros(n), np.zeros(n)
        self._g, self._upd, self._m_next, self._v_next = np.empty((4, n))

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        live = [t.grad is not None for t in self._tensors]
        g, upd, m, v = self._g, self._upd, self._m_next, self._v_next
        grads = [t.grad if ok else np.zeros(t.data.shape) for t, ok in zip(self._tensors, live)]
        np.concatenate([x.reshape(-1) for x in grads], out=g)
        # m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g**2
        np.multiply(g, 1 - self.beta1, out=upd)
        np.add(np.multiply(self.m, self.beta1, out=m), upd, out=m)
        np.multiply(np.square(g, out=upd), 1 - self.beta2, out=upd)
        np.add(np.multiply(self.v, self.beta2, out=v), upd, out=v)
        # upd = lr * (m / b1t) / (sqrt(v / b2t) + eps)
        np.add(np.sqrt(np.divide(v, b2t, out=upd), out=upd), self.eps, out=upd)
        np.divide(np.multiply(np.divide(m, b1t, out=g), self.lr, out=g), upd, out=upd)
        if all(live):
            self.m, self._m_next = m, self.m
            self.v, self._v_next = v, self.v
            np.subtract(self._values, upd, out=self._values)
        else:
            keep = np.repeat(live, self._sizes)
            np.copyto(self.m, m, where=keep)
            np.copyto(self.v, v, where=keep)
            np.subtract(self._values, upd, out=self._values, where=keep)

    def zero_grad(self) -> None:
        for t in self._tensors:
            t.grad = None


def make_splits(dataset: Dataset, n_splits: int, seed: int = 0) -> SplitPlan:
    """Class-stratified holdout splits over the training patients.

    Split i validates on the i-th 1/n_splits slice of each class (so the
    validation slices partition the patients) and trains on the rest.
    """
    if n_splits < 1:
        raise ContractError(f"n_splits must be >= 1, got {n_splits}")
    all_ids = [p.patient_id for p in dataset]
    if n_splits == 1:
        warnings.warn("n_splits=1: validation set equals the training set", stacklevel=2)
        return SplitPlan((Split(tuple(all_ids), tuple(all_ids)),))
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
    splits = []
    for i in range(n_splits):
        val = set(slices[i])
        splits.append(
            Split(
                tuple(pid for pid in all_ids if pid not in val),
                tuple(pid for pid in all_ids if pid in val),
            )
        )
    return SplitPlan(tuple(splits))


def _epoch_loss(
    ids: tuple[str, ...], params: ModelParams, bags: dict[str, Bag]
) -> float:
    total = 0.0
    for pid in ids:
        log_probs = forward_bag(bags[pid], params)
        total += nll_loss(log_probs, bags[pid].label).item()
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
    # nearest-centroid labels and cluster member lists once per patient
    # here, not once per bag
    members = {}
    for pid in split.train_ids + split.val_ids:
        patient = dataset.patient(pid)
        members[pid] = cluster_members(patient, cluster_model.label(patient), cluster_model.k)

    def bag_for(pid: str, epoch_key: int) -> Bag:
        rng = patient_rng((cfg.seed, split_id, epoch_key), pid)
        return assemble_bag(dataset.patient(pid), members[pid], cfg.bag_size, rng)

    val_bags = {pid: bag_for(pid, _VAL_BAG_TAG) for pid in split.val_ids}
    fixed_bags = None
    if not cfg.bag_resample:
        fixed_bags = {pid: bag_for(pid, 0) for pid in split.train_ids}

    best_val = np.inf
    best_epoch = 0
    best_values = params.copy_values()
    train_curve: list[float] = []
    val_curve: list[float] = []
    for epoch in range(cfg.epochs):
        if cfg.bag_resample:
            epoch_bags = {pid: bag_for(pid, epoch + 1) for pid in split.train_ids}
        else:
            epoch_bags = fixed_bags
        order_rng = np.random.default_rng([cfg.seed, split_id, epoch, 0x4F52])
        order = [split.train_ids[i] for i in order_rng.permutation(len(split.train_ids))]
        running = 0.0
        try:
            for pid in order:
                bag = epoch_bags[pid]
                assert bag.patient_id in train_set  # validation data must never reach a gradient
                log_probs = forward_bag(bag, params)
                loss = nll_loss(log_probs, bag.label)
                running += loss.item()
                opt.zero_grad()
                ad.backward(loss)
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
            best_epoch = epoch
            best_values = params.copy_values()

    best = init_params(model_cfg, seed=0)
    best.load_values(best_values)
    return TrainedModel(best, split_id, best_epoch, train_curve, val_curve)


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
    children, which get the data through the fork and send each trained
    model back through a pipe. Each split computes the same bytes as in
    the sequential loop. If several splits fail, the error of the lowest
    split id is raised, as the sequential loop would have.

    A worker sends back only what ``train_one_split`` returns. That is
    all this module's own does; a replacement (a tracer, a spy) may also
    record into this process, so with one every split trains here. So
    they do when another thread runs: a fork copies only the calling
    thread, and a lock another thread holds would stay held in the child.
    """
    plan = make_splits(dataset, cfg.n_splits, cfg.seed)
    usable_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_workers = min(len(plan.splits), usable_cpus)
    if (
        train_one_split is not _OWN_TRAIN_ONE_SPLIT
        or threading.active_count() > 1
        or "fork" not in mp.get_all_start_methods()
    ):
        n_workers = 1
    shares = [range(w, len(plan.splits), n_workers) for w in range(n_workers)]

    def train_share(split_ids: range) -> tuple[list[TrainedModel], Exception | None]:
        """Train the splits in order; stop at the first that fails."""
        done = []
        for i in split_ids:
            try:
                done.append(
                    train_one_split(dataset, plan.splits[i], cluster_model, cfg, model_cfg, split_id=i)
                )
            except Exception as e:
                return done, e
        return done, None

    ctx = mp.get_context("fork") if n_workers > 1 else None
    children = []
    try:
        for share in shares[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_report_share, args=(send, train_share, share))
            proc.start()
            send.close()
            children.append((proc, recv, share))
        models, error = train_share(shares[0])
        errors = {shares[0][len(models)]: error} if error else {}
        for proc, recv, share in children:
            done, error = _receive_share(proc, recv, share, model_cfg)
            models += done
            if error:
                errors[share[len(done)]] = error
    except BaseException:
        for proc, _, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv, _ in children:
            recv.close()
            proc.join()
    if errors:
        raise errors[min(errors)]
    return sorted(models, key=lambda m: m.split_id)


def _report_share(conn, train_share, share: range) -> None:
    """Forked worker: train a share of the splits, then send each trained
    model as (split_id, selection_epoch, flat values, train_curve,
    val_curve), and the error that stopped the share, if any."""
    done, error = train_share(share)
    for m in done:
        conn.send((m.split_id, m.selection_epoch, m.params.flat, m.train_curve, m.val_curve))
    if error:
        conn.send(error)
    conn.close()


def _receive_share(proc, conn, share: range, model_cfg: ModelConfig):
    """The trained models a worker sent, and the error that stopped it:
    the one it sent, or a CrossmilError if it exited without a result."""
    done: list[TrainedModel] = []
    while len(done) < len(share):
        try:
            msg = conn.recv()
        except EOFError:
            proc.join()
            return done, CrossmilError(
                f"training worker for split {share[len(done)]} exited with code "
                f"{proc.exitcode} without sending its result"
            )
        if isinstance(msg, Exception):
            return done, msg
        split_id, selection_epoch, values, train_curve, val_curve = msg
        params = init_params(model_cfg, seed=0)
        params.flat[:] = values
        done.append(TrainedModel(params, split_id, selection_epoch, train_curve, val_curve))
    return done, None


def write_loss_curves(model: TrainedModel, path: str | Path) -> Path:
    path = Path(path)
    lines = ["epoch,train_loss,val_loss"]
    for i, (tr, va) in enumerate(zip(model.train_curve, model.val_curve)):
        lines.append(f"{i},{tr!r},{va!r}")
    path.write_text("\n".join(lines) + "\n")
    return path
