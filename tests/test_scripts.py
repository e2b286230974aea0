import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, out: Path) -> None:
    """Run ``scripts/<name>`` at one BLAS thread; it must exit 0."""
    child = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--out", str(out), "--seed", "0"],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr


def test_run_pipeline_demo(tmp_path):
    """The README's end-to-end demo runs and leaves a report and every heatmap."""
    out = tmp_path / "demo"
    run_script("run_pipeline.py", out)
    assert (out / "eval/report.txt").read_text().startswith("auc=")
    manifest = json.loads((out / "data/test/manifest.json").read_text())
    expected = {
        f"{e['patient_id']}_scale-{label}.pgm"
        for e in manifest["patients"]
        for label in e["scale_labels"]
    }
    assert len(expected) == 60
    assert {p.name for p in (out / "maps").glob("*.pgm")} == expected


def test_variant_comparison_writes_the_comparison_table(tmp_path):
    """Eight variants against cs-attn, the table ``crossmil compare`` writes."""
    out = tmp_path / "variants.csv"
    run_script("variant_comparison.py", out)
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header == ["model", "auc", "ap", "acc", "p_auc_vs_ref", "p_ap_vs_ref"]
    assert [r[0] for r in rows] == [
        "cs-attn", "single-20x", "single-10x", "single-5x",
        "add-fusion", "concat-fusion", "pool-joint", "gated-pool",
    ]
    assert rows[0][4:] == ["", ""]
    assert all(0.0 <= float(p) <= 1.0 for r in rows[1:] for p in r[4:])


def test_bag_size_ablation_writes_its_table(tmp_path):
    out = tmp_path / "bag_sizes.csv"
    run_script("bag_size_ablation.py", out)
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header == ["bag_size", "auc", "ap", "accuracy"]
    assert [r[0] for r in rows] == ["1", "8", "16", "64"]
    assert all(0.0 <= float(v) <= 1.0 for r in rows for v in r[1:])


# The child's environment for the output digests: one BLAS thread, and
# OpenBLAS's Haswell kernels on any x86-64 CPU with AVX2, so that one record
# covers them. Other kernels change the bits (SkylakeX and Sandybridge move
# most digests), so the core is part of the key the script prints.
DIGEST_ENV = dict(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", OPENBLAS_CORETYPE="Haswell")


def test_output_digests_match_the_recorded_ones():
    """Every variant's checkpoints, loss curves and selection epochs keep their bits.

    The digests are recorded per environment (numpy, BLAS and OpenBLAS
    core) in ``tests/data/output_digests.json``. An environment without a
    record skips, naming its key; CI prints each leg's key and digests.
    """
    child = subprocess.run(
        [sys.executable, str(ROOT / "scripts/output_digests.py")],
        env=dict(os.environ, **DIGEST_ENV), capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    run = json.loads(child.stdout)
    recorded = json.loads((ROOT / "tests/data/output_digests.json").read_text())
    if run["environment"] not in recorded:
        pytest.skip(f"no output digests recorded for {run['environment']!r}")
    assert run["digests"] == recorded[run["environment"]]


def test_benchmark_selftest_passes():
    """The benchmark's spans and stage checks still fit the package."""
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench/selftest.py")],
        cwd=ROOT / "perfbench", capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert child.stdout.splitlines()[-1].startswith("PASS"), child.stdout


def test_benchmark_span_targets_resolve():
    """Every function the benchmark's tracer wraps still exists where it looks.

    The self-test passes with a target gone (its metrics read 0), so this
    names them. ``assign_dataset`` went with the per-location assignment
    table; its spans have read 0 since. The graph forward (``forward_bag``)
    and the graph layer functions were deleted once training ran
    ``train_step``, and their spans had read 0 on every pipeline before.
    The autodiff engine went once no code built a graph; its ``backward``
    span had read 0 on both workloads since training left the tape.
    """
    path = ROOT / "perfbench/tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {f"{m}.{p}" for m, p, _ in tracing.TARGETS if tracing._resolve(m, p) is None}
    assert missing == {
        "crossmil.clustering.assign_dataset",
        "crossmil.cli.assign_dataset",
        "crossmil.training.forward_bag",
        "crossmil.evaluation.forward_bag",
        "crossmil.models.mi_fcn_encode",
        "crossmil.models.cross_scale_attention",
        "crossmil.models.instance_pool",
        "crossmil.autodiff.backward",
    }
