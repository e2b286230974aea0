#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/prove.py --seeds 1-10 --out perfbench/results/set1.json
    python3 perfbench/prove.py --seeds 1-10 --against perfbench/results/set1.json

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
with BENCHMARK.json's ``run_seconds``. For every metric it prints the
median and the quartile spread, (q3 - q1) / median, with
``statistics.quantiles(values, n=4)``, and flags an end-to-end spread at
or above a third of the metric's bound. With ``--against`` it also
compares medians with an earlier result set (worse by more than the
bound fails) and requires the exact counters of each seed to be
identical to that set's. Exits 1 on any failed check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench/run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    # counters of the first set-up and the first pipeline of each kind stand for the run
    firsts = {}
    for key, counters in detail["counters"].items():
        run, stage = key.split(":")
        kind = ("setup" if run.startswith("setup") else "pipeline") + (
            "-traced" if any(k.startswith("calls.") for k in counters) else "")
        firsts.setdefault(f"{kind}:{stage}", counters)
    return {"seed": seed, "elapsed_s": elapsed, "result": result, "counters": firsts,
            "setup_walls_s": detail["setup_walls_s"], "pipelines": detail["pipelines"],
            "failures": detail["failures"], "environment": detail["environment"]}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the result set here")
    parser.add_argument("--against", type=Path, help="an earlier result set to compare with")
    args = parser.parse_args()

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec[kind]}
    earlier = json.loads(args.against.read_text()) if args.against else None
    seeds = parse_seeds(args.seeds)
    ok = True
    out = {"seeds": seeds, "trace": args.trace, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            r = bench_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(r)
            status = "ok" if r["result"]["correct"] else f"FAILED {r['failures'][:2]}"
            print(f"{workload} seed {seed}: {r['elapsed_s']:.1f}s, "
                  f"{r['result']['failed']}/{r['result']['attempted']} stages failed, {status}", flush=True)
            ok &= r["result"]["correct"]
        summary = {}
        for name, m in declared.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(values) if len(values) > 1 else (values[0], values[0], values[0], 0.0)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "values": values}
            line = f"  {name:32s} median {med:14.6g} {m['unit']:9s} spread {rel:7.2%}"
            if "bound" in m and name != "setup_s" and rel >= m["bound"] / 3:
                line += f"  above bound/3 ({m['bound'] / 3:.2%})"
            if earlier is not None and "bound" in m:
                before = earlier["workloads"][workload]["metrics"][name]["median"]
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                line += f"  vs earlier {worse:+.2%} worse"
                if worse > m["bound"]:
                    line += " EXCEEDS BOUND"
                    ok = False
            print(line, flush=True)
        if earlier is not None:
            before_runs = {r["seed"]: r for r in earlier["workloads"][workload]["runs"]}
            for r in runs:
                prev = before_runs.get(r["seed"])
                if prev is not None and prev["counters"] != r["counters"]:
                    print(f"  counters of seed {r['seed']} differ from the earlier set")
                    ok = False
        out["workloads"][workload] = {"metrics": summary, "runs": runs}
    out["environment"] = runs[0]["environment"]
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
