"""Spans and exact counters, recorded from outside the crossmil package.

The tracer replaces public functions at the module attribute their
caller resolves (``crossmil.training.forward_bag``, not
``crossmil.models.forward_bag``) with a wrapper that records one span:
name, start, end, parent span and run id. Spans stay in memory and are
written out when the benchmark ends. A layer's self time is its span's
duration minus the durations of its direct children; calls are
sequential, so children never overlap.

A target the package no longer has is skipped and listed in
``Tracer.missing``; the metrics built on it then read 0.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import sys
import time
from pathlib import Path


def tensors_created() -> int | None:
    """Value of the autodiff node-id counter, read without advancing it."""
    ad = sys.modules.get("crossmil.autodiff")
    counter = getattr(ad, "_node_ids", None)
    text = repr(counter)
    if not text.startswith("count(") or not text.endswith(")"):
        return None
    return int(text[len("count(") : -1])


def manifest_floats(manifest_path) -> int:
    """Embedding floats a dataset manifest describes (locations x scales x dim)."""
    doc = json.loads(Path(manifest_path).read_text())
    return sum(e["n_locations"] * e["n_scales"] * e["dim"] for e in doc["patients"])


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted attribute path, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


@contextlib.contextmanager
def patched(module: str, path: str, make_wrapper):
    """Replace ``module.path`` with ``make_wrapper(original)`` for the block.

    Yields False, and patches nothing, when the target does not exist.
    """
    target = _resolve(module, path)
    if target is None:
        yield False
        return
    owner, attr = target
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield True
    finally:
        setattr(owner, attr, original)


# (module, attribute path, span name). Each entry is the attribute the
# caller named in the comment resolves; one function can appear under
# several callers.
TARGETS = (
    # data: cli stages read and write the CSV store
    ("crossmil.cli", "generate_synthetic", "data.generate_synthetic"),
    ("crossmil.cli", "save_dataset", "data.save_dataset"),
    ("crossmil.cli", "load_dataset", "data.load_dataset"),
    ("crossmil.data", "Dataset.patient", "data.patient"),  # training, evaluation
    # clustering
    ("crossmil.cli", "cluster_dataset", "clustering.cluster_dataset"),
    ("crossmil.clustering", "kmeans", "clustering.kmeans"),  # cluster_dataset
    ("crossmil.clustering", "assign_dataset", "clustering.assign_dataset"),  # cluster_dataset
    ("crossmil.cli", "assign_dataset", "clustering.assign_dataset"),  # eval stage
    ("crossmil.training", "assemble_bag", "clustering.assemble_bag"),
    ("crossmil.evaluation", "assemble_bag", "clustering.assemble_bag"),
    ("crossmil.cli", "save_cluster_model", "clustering.save_model"),
    ("crossmil.cli", "load_cluster_model", "clustering.load_model"),
    # models
    ("crossmil.training", "forward_bag", "models.forward_bag"),
    ("crossmil.evaluation", "forward_bag", "models.forward_bag"),
    ("crossmil.models", "mi_fcn_encode", "models.encode"),
    ("crossmil.models", "cross_scale_attention", "models.cross_scale_attention"),
    ("crossmil.models", "instance_pool", "models.instance_pool"),
    ("crossmil.cli", "attention_records", "models.attention_records"),
    # autodiff: training calls ad.backward, Tensor.backward calls the module global
    ("crossmil.autodiff", "backward", "autodiff.backward"),
    # training
    ("crossmil.cli", "train_all", "training.train_all"),
    ("crossmil.training", "train_one_split", "training.train_one_split"),
    ("crossmil.training", "Adam.step", "training.adam_step"),
    # evaluation
    ("crossmil.cli", "evaluate", "evaluation.evaluate"),
    ("crossmil.evaluation", "score_patients", "evaluation.score_patients"),
    ("crossmil.evaluation", "delong_test", "evaluation.delong_test"),
    ("crossmil.evaluation", "bootstrap_test", "evaluation.bootstrap_test"),
    # attention maps
    ("crossmil.cli", "aggregate_records", "attention_maps.aggregate"),
    ("crossmil.cli", "normalize_per_scale", "attention_maps.normalize"),
    ("crossmil.cli", "geometry_for", "attention_maps.geometry"),
    ("crossmil.cli", "render_heatmaps", "attention_maps.render"),
    ("crossmil.cli", "write_heatmap", "attention_maps.write_heatmap"),
    ("crossmil.cli", "write_records_csv", "attention_maps.write_records"),
    # checkpoint
    ("crossmil.cli", "save_checkpoint", "checkpoint.save"),
    ("crossmil.cli", "load_checkpoint", "checkpoint.load"),
)


def _count_loaded(tracer, args, result, nodes):
    tracer.count("data.load_floats", manifest_floats(args[0]))


def _count_saved(tracer, args, result, nodes):
    tracer.count("data.save_floats", manifest_floats(result))


def _count_kmeans(tracer, args, result, nodes):
    n_iter = getattr(result, "n_iter", None)
    if n_iter is not None:
        tracer.count("clustering.kmeans_iters", int(n_iter))


def _count_tape(tracer, args, result, nodes):
    if nodes is not None:
        tracer.count("models.tape_nodes", nodes)


# span name -> hook(tracer, args, result, tensors made during the call)
HOOKS = {
    "data.load_dataset": _count_loaded,
    "data.save_dataset": _count_saved,
    "clustering.kmeans": _count_kmeans,
    "models.forward_bag": _count_tape,
}


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counters: dict[str, dict[str, int]] = {}  # run id -> name -> count
        self.missing: list[str] = []
        self.run_id = ""
        self._stack: list[int] = []

    def count(self, name: str, n: int) -> None:
        run = self.counters.setdefault(self.run_id, {})
        run[name] = run.get(name, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrapper(self, name: str):
        """A ``make(fn)`` for ``patched`` that records each call of fn as a span."""
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
                stack.append(len(spans))
                spans.append(rec)
                before = tensors_created() if hook is not None else None
                rec[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if hook is not None:
                    after = tensors_created()
                    nodes = after - before if before is not None and after is not None else None
                    hook(self, args, result, nodes)
                return result

            return traced

        return make

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for module, path, name in TARGETS:
                if not stack.enter_context(patched(module, path, self.wrapper(name))):
                    label = f"{module}.{path}"
                    if label not in self.missing:
                        self.missing.append(label)
            yield

    def _child_time(self) -> list[float]:
        """Per span, the summed durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

    def summary(self, run_id: str) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and calls within one run."""
        child_time = self._child_time()
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run != run_id:
                continue
            entry = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
        return out

    def check_nesting(self) -> list[str]:
        """Problems with span structure: a child outside its parent, or self time < 0."""
        problems = []
        child_time = self._child_time()
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2] or run != p[4]:
                    problems.append(f"span {i} ({name}) is not inside its parent {parent} ({p[0]})")
            if end - start - child_time[i] < 0.0:
                problems.append(f"span {i} ({name}) has negative self time")
        return problems

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                f.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "run": run}
                ) + "\n")
