#!/usr/bin/env python3
"""crossmil benchmark: the six-stage pipeline on one workload at one seed.

    python3 perfbench/run.py --workload train-signal --seed 1 --seconds 40 --trace 0

Run from a source checkout: the package is imported from ``src/`` next
to this directory. The run sets up the data three times (``setup_s`` is
their median), repeats cluster -> train -> eval -> attn-map -> compare
for about ``--seconds`` seconds, at least three times, and reports
means over the repeats. Every stage's outputs are checked, and repeats of one
seed must give identical output bytes and identical exact counters.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced pipelines and prints the per-layer metrics, with the
tracing overhead as traced minus untraced ``pipeline_s``; it also writes
the spans to ``.bench_out/``.

The last line of standard output is the result as one JSON object; the
line before it holds the details (environment, stage walls, counters,
failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from pipeline import FIT_STAGES, INFER_STAGES, PIPELINE_STAGES, Bench
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Three repeats at least, so that each run samples the machine's speed
# at three times.
MIN_PIPELINES = 3
MIN_TRACED_PIPELINES = 2
# Set before numpy loads. One thread keeps the small matmuls here off
# BLAS worker threads and the timings steady on a shared machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return f"unknown ({name})"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(bench) -> dict[str, tuple[float, str]]:
    """Pipeline metrics are means over the run's repeats, and rates are
    total work over total time. The machine's speed drifts over seconds,
    so the mean tracks the run's average speed, where the median of three
    repeats jumps to whichever speed two of them met. setup_s stays a median.
    """
    w = bench.workload
    walls = [p["walls"] for p in bench.pipelines if not p["traced"]]
    n = len(walls)

    def total(stages):
        return sum(x[s] for x in walls for s in stages)

    locations = w.train["n_splits"] * w.n_test_locations
    return {
        "setup_s": (median(bench.setup_walls), "s"),
        "fit_s": (total(FIT_STAGES) / n, "s"),
        "infer_s": (total(INFER_STAGES) / n, "s"),
        "pipeline_s": (total(PIPELINE_STAGES) / n, "s"),
        "train_steps_per_s": (n * w.adam_steps / total(["train"]), "1/s"),
        "attn_locations_per_s": (n * locations / total(["attn-map"]), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _layer_table():
    """name -> (unit, run kind, fn(span summary, counters))."""

    def tot(*names):
        return lambda s, c: sum(s.get(n, {}).get("total_s", 0.0) for n in names)

    def own(name):
        return lambda s, c: s.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return lambda s, c: s.get(name, {}).get("calls", 0)

    def counter(name):
        return lambda s, c: c.get(name, 0)

    def rate(floats, span):
        def fn(s, c):
            t = s.get(span, {}).get("total_s", 0.0)
            return c.get(floats, 0) / 1e6 / t if t > 0 else 0.0
        return fn

    def per_call(count, span):
        def fn(s, c):
            n = s.get(span, {}).get("calls", 0)
            return c.get(count, 0) / n if n else 0.0
        return fn

    P, S = "pipeline", "setup"
    return {
        "data.load_dataset_s": ("s", P, tot("data.load_dataset")),
        "data.load_mfloats_per_s": ("Mfloat/s", P, rate("data.load_floats", "data.load_dataset")),
        "data.load_calls": ("count", P, calls("data.load_dataset")),
        "data.save_dataset_s": ("s", S, tot("data.save_dataset")),
        "data.save_mfloats_per_s": ("Mfloat/s", S, rate("data.save_floats", "data.save_dataset")),
        "data.patient_lookup_calls": ("count", P, calls("data.patient")),
        "data.patient_lookup_s": ("s", P, tot("data.patient")),
        "data.csv_bytes": ("B", S, counter("data.csv_bytes")),
        "clustering.kmeans_s": ("s", P, tot("clustering.kmeans")),
        "clustering.kmeans_iters": ("count", P, counter("clustering.kmeans_iters")),
        "clustering.assemble_bag_s": ("s", P, tot("clustering.assemble_bag")),
        "clustering.assemble_bag_calls": ("count", P, calls("clustering.assemble_bag")),
        "clustering.model_io_s": ("s", P, tot("clustering.save_model", "clustering.load_model")),
        "clustering.model_bytes": ("B", P, counter("clustering.model_bytes")),
        "models.forward_bag_s": ("s", P, tot("models.forward_bag")),
        "models.forward_bag_calls": ("count", P, calls("models.forward_bag")),
        "models.forward_bag_self_s": ("s", P, own("models.forward_bag")),
        "models.encode_s": ("s", P, tot("models.encode")),
        "models.cross_scale_attention_s": ("s", P, tot("models.cross_scale_attention")),
        "models.instance_pool_s": ("s", P, tot("models.instance_pool")),
        "models.attention_records_s": ("s", P, tot("models.attention_records")),
        "models.tape_nodes_per_bag": ("count", P, per_call("models.tape_nodes", "models.forward_bag")),
        "autodiff.backward_s": ("s", P, tot("autodiff.backward")),
        "autodiff.backward_calls": ("count", P, calls("autodiff.backward")),
        "autodiff.tensors_created": ("count", P, counter("autodiff.tensors")),
        "training.adam_step_s": ("s", P, tot("training.adam_step")),
        "training.adam_steps": ("count", P, calls("training.adam_step")),
        "training.loop_self_s": ("s", P, own("training.train_one_split")),
        "evaluation.score_patients_s": ("s", P, tot("evaluation.score_patients")),
        "evaluation.delong_test_s": ("s", P, tot("evaluation.delong_test")),
        "evaluation.bootstrap_test_s": ("s", P, tot("evaluation.bootstrap_test")),
        "attention_maps.render_s": ("s", P, tot(
            "attention_maps.aggregate", "attention_maps.normalize",
            "attention_maps.geometry", "attention_maps.render")),
        "attention_maps.write_s": ("s", P, tot("attention_maps.write_heatmap", "attention_maps.write_records")),
        "attention_maps.pgm_bytes": ("B", P, counter("attention_maps.pgm_bytes")),
        "checkpoint.save_s": ("s", P, tot("checkpoint.save")),
        "checkpoint.load_s": ("s", P, tot("checkpoint.load")),
        "checkpoint.bytes": ("B", P, counter("checkpoint.bytes")),
        "cli.self_s": ("s", P, lambda s, c: sum(v["self_s"] for k, v in s.items() if k.startswith("cli."))),
    }


LAYERS = _layer_table()


def run_summary(bench, tracer, run_id: str) -> tuple[dict, dict]:
    """Span summary and summed counters over every stage of one run."""
    stages = [k for k in bench.records if k.startswith(run_id + ":")]
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    for key in stages:
        for name, entry in tracer.summary(key).items():
            acc = spans.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            for field, value in entry.items():
                acc[field] += value
        for name, value in bench.records[key]["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return spans, counters


def per_layer(bench, tracer) -> dict[str, tuple[float, str]]:
    runs = {
        "setup": [f"setup{i}" for i in range(len(bench.setup_walls))],
        "pipeline": [p["run"] for p in bench.pipelines if p["traced"]],
    }
    summaries = {kind: [run_summary(bench, tracer, r) for r in ids] for kind, ids in runs.items()}
    out = {}
    for name, (unit, kind, fn) in LAYERS.items():
        out[name] = (median([fn(s, c) for s, c in summaries[kind]]), unit)

    def pipeline_walls(traced):
        return [sum(p["walls"][s] for s in PIPELINE_STAGES) for p in bench.pipelines if p["traced"] == traced]

    traced_s, untraced_s = median(pipeline_walls(True)), median(pipeline_walls(False))
    out["trace.pipeline_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


def measure(bench, seconds: float, trace: bool) -> None:
    """Set up, then repeat the pipeline for about ``seconds``.

    The later set-ups run between the first pipelines, so that the
    set-up samples, which take about a second each, are spread over the
    run like the pipeline samples are. Another repeat starts when, at
    the median repeat time, it would end nearer the deadline than
    stopping now would.
    """
    bench.setup(0, traced=trace)
    # traced runs alternate untraced and traced pipelines, starting untraced
    min_runs = 2 * MIN_TRACED_PIPELINES if trace else MIN_PIPELINES
    start = time.perf_counter()
    durations: list[float] = []
    while len(durations) < min_runs or time.perf_counter() - start + median(durations) / 2 < seconds:
        t0 = time.perf_counter()
        bench.pipeline(len(durations), traced=trace and len(durations) % 2 == 1)
        durations.append(time.perf_counter() - t0)
        if len(bench.setup_walls) < SETUP_REPEATS:
            bench.setup(len(bench.setup_walls), traced=trace)


def run(workload, seed: int, seconds: float, trace: bool, spans_path: Path | None = None) -> tuple[dict, dict]:
    """Measure one workload at one seed; returns (result, detail)."""
    tracer = Tracer() if trace else None
    work = ROOT / ".bench_work" / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, work, tracer)
        measure(bench, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass

    failures = list(bench.failures)
    if tracer is not None:
        metrics = per_layer(bench, tracer)
        failures += tracer.check_nesting()
        if spans_path is not None:
            tracer.write(spans_path)
    else:
        metrics = end_to_end(bench)
    detail = {
        "workload": workload.name,
        "environment": environment(seed),
        "trace": int(trace),
        "setup_walls_s": bench.setup_walls,
        "pipelines": bench.pipelines,
        "counters": {k: r["counters"] for k, r in bench.records.items()},
        "missing_trace_targets": tracer.missing if tracer is not None else [],
        "failures": failures,
    }
    result = {
        "correct": not failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail


def prepare() -> bool:
    """Point imports at the checkout's sources and pin BLAS threads."""
    src = ROOT / "src"
    if not (src / "crossmil" / "cli.py").is_file():
        print(f"error: no crossmil sources at {src}; run from a source checkout", file=sys.stderr)
        return False
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.path.insert(0, str(src))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        return 2
    spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    result, detail = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spans)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
