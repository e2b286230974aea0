import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_pipeline_demo(tmp_path):
    """The README's end-to-end demo runs and leaves a report and every heatmap."""
    out = tmp_path / "demo"
    child = subprocess.run(
        [sys.executable, str(ROOT / "scripts/run_pipeline.py"), "--out", str(out), "--seed", "0"],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    assert (out / "eval/report.txt").read_text().startswith("auc=")
    manifest = json.loads((out / "data/test/manifest.json").read_text())
    expected = {
        f"{e['patient_id']}_scale-{label}.pgm"
        for e in manifest["patients"]
        for label in e["scale_labels"]
    }
    assert len(expected) == 60
    assert {p.name for p in (out / "maps").glob("*.pgm")} == expected
