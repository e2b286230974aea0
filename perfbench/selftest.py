#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy shape (the c09 config).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that spans nest (children inside their parents, every self time >= 0),
and that the exact counters are identical across two toy runs. Exits 0
when all hold.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import Workload, _config

TOY = Workload(
    name="toy",
    why="c09 determinism shape",
    config=_config(
        data={"n_train_per_class": 4, "n_test_per_class": 2, "n_locations": 9, "dim": 8},
        cluster={"k": 3},
        train={"epochs": 2, "bag_size": 4, "n_splits": 2},
        model={"encoder_dim": 8, "attention_hidden": 4},
    ),
)


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emitted(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    if not run.prepare():
        return 2
    problems = []

    untraced, _ = run.run(TOY, seed=4, seconds=0, trace=False)
    if emitted(untraced) != declared("end_to_end"):
        problems.append(f"end-to-end metrics {emitted(untraced)} != {declared('end_to_end')}")

    counters = []
    for attempt in range(2):
        traced, detail = run.run(TOY, seed=4, seconds=0, trace=True)
        if emitted(traced) != declared("per_layer"):
            missing = set(declared("per_layer")) ^ set(emitted(traced))
            problems.append(f"per-layer metrics differ from BENCHMARK.json: {sorted(missing)}")
        problems += [f"traced run {attempt}: {f}" for f in detail["failures"]]
        counters.append(detail["counters"])
        if traced["metrics"]["training.adam_steps"]["value"] != TOY.adam_steps:
            problems.append("traced Adam steps differ from the count the workload derives")
    for result in (untraced, traced):
        if not result["correct"] or result["failed"]:
            problems.append(f"a toy run failed: {result['failed']} of {result['attempted']} stages")
    if counters[0] != counters[1]:
        diff = [k for k in counters[0] if counters[0][k] != counters[1].get(k)]
        problems.append(f"counters differ between two toy runs at {diff}")
    if not any(k.startswith("calls.") for c in counters[0].values() for k in c):
        problems.append("traced runs recorded no call counts")

    for p in problems:
        print(f"FAIL: {p}")
    if not problems:
        print("PASS: metrics match BENCHMARK.json; spans nest with self time >= 0; "
              "counters identical across two toy runs")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
