"""Drive the unmodified crossmil pipeline in-process and check its outputs.

Each stage is one call to ``crossmil.cli.main`` with the argv a user
would type; its wall time is taken around that call. The checks run
after the stage, outside the timed region. A stage counts as failed when
it exits non-zero, raises, or fails one of its checks.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import time
import traceback
from pathlib import Path

from tracing import Tracer, patched, tensors_created
from workloads import Workload

SETUP_STAGE = "gen-data"
FIT_STAGES = ("cluster", "train")
INFER_STAGES = ("eval", "attn-map", "compare")
PIPELINE_STAGES = FIT_STAGES + INFER_STAGES

# c05 floor on test AUC and c06 rule on planted-scale attention
AUC_FLOOR = 0.95
LOCALIZATION_FLOOR = 1 / 3 + 0.10
SCORE_SUM_TOLERANCE = 1e-9

# stage -> (counter, file pattern) for the bytes each stage writes
STAGE_BYTES = {
    SETUP_STAGE: ("data.csv_bytes", "*.csv"),
    "cluster": ("clustering.model_bytes", "cluster_model.json"),
    "train": ("checkpoint.bytes", "checkpoint_split*.bin"),
    "attn-map": ("attention_maps.pgm_bytes", "*.pgm"),
}


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under ``root``."""
    h = hashlib.sha256()
    for f in sorted(root.rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(root)).encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def flush_tree(root: Path) -> None:
    """fsync every file under ``root``, so that its writeback does not
    overlap the stages timed after it."""
    for f in root.rglob("*"):
        if f.is_file():
            with f.open("rb+") as handle:
                os.fsync(handle.fileno())


def tree_bytes(root: Path, pattern: str = "*") -> int:
    return sum(f.stat().st_size for f in root.rglob(pattern) if f.is_file())


class Bench:
    """One workload at one seed: repeated set-ups and pipelines in one process."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, tracer: Tracer | None = None):
        from crossmil import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work_dir
        self.tracer = tracer
        self.config_path = work_dir / "config.json"
        self.data_dir: Path | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_walls: list[float] = []
        self.pipelines: list[dict] = []  # per pipeline: run id, traced flag, stage walls
        # "run:stage" -> {"traced", "digest", "counters"}; counters must repeat exactly
        self.records: dict[str, dict] = {}
        self._raw_records: list = []

    # --- stages ------------------------------------------------------------

    def _argv(self, stage: str, out: Path) -> list[str]:
        c, s, data = str(self.config_path), str(self.seed), self.data_dir
        rep = out.parent
        argv = [stage, "--config", c, "--seed", s, "--out-dir", str(out)]
        if stage == "cluster":
            argv += ["--data", str(data / "train/manifest.json")]
        elif stage == "train":
            argv += ["--data", str(data / "train/manifest.json"),
                     "--cluster", str(rep / "cluster/cluster_model.json")]
        elif stage == "eval":
            argv += ["--data", str(data / "test/manifest.json"),
                     "--cluster", str(rep / "cluster/cluster_model.json"),
                     "--ckpt-dir", str(rep / "train")]
        elif stage == "attn-map":
            argv += ["--data", str(data / "test/manifest.json"),
                     "--ckpt-dir", str(rep / "train")]
        elif stage == "compare":
            # One variant is trained, so its scores are compared with
            # themselves: DeLong and the bootstrap cost the same either way.
            scores = rep / "eval/scores.csv"
            argv += ["--scores", f"cs-attn={scores}", "--scores", f"cs-attn-again={scores}"]
        return argv

    def _run_stage(self, run_id: str, stage: str, argv: list[str], traced: bool) -> tuple[float, bool]:
        """Run one stage; returns (wall seconds, ok)."""
        self.attempted += 1
        gc.collect()  # start every stage with the previous stage's garbage gone
        key = f"{run_id}:{stage}"
        if self.tracer is not None:
            self.tracer.run_id = key
        sink = io.StringIO()
        before = tensors_created()
        span = self.tracer.span(f"cli.{stage}") if traced else contextlib.nullcontext()
        code = None
        error = ""
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with span:
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception:  # a crash fails the stage; the benchmark carries on
                    error = traceback.format_exc(limit=3)
                wall = time.perf_counter() - start
        after = tensors_created()
        counters = {}
        if before is not None and after is not None:
            counters["autodiff.tensors"] = after - before
        self.records[key] = {"traced": traced, "digest": None, "counters": counters}
        if code != 0:
            self.failures.append(f"{key}: exit {code} {error or sink.getvalue()}".strip())
            return wall, False
        return wall, True

    def setup(self, index: int, traced: bool = False) -> None:
        """Harness preparation plus the gen-data stage, timed as one."""
        run_id = f"setup{index}"
        start = time.perf_counter()
        out = self.work / run_id
        out.mkdir(parents=True)
        self.config_path.write_text(json.dumps(self.workload.config, indent=2, sort_keys=True))
        prep = time.perf_counter() - start
        with self.tracer.installed() if traced else contextlib.nullcontext():
            wall, ok = self._run_stage(run_id, SETUP_STAGE, [
                SETUP_STAGE, "--config", str(self.config_path), "--seed", str(self.seed),
                "--out-dir", str(out / "data"),
            ], traced)
        wall += prep
        if ok:
            self._check(run_id, SETUP_STAGE, out / "data", self._check_setup)
        flush_tree(out)
        if self.data_dir is None:
            self.data_dir = out / "data"
        self.setup_walls.append(wall)

    def pipeline(self, index: int, traced: bool = False) -> None:
        """cluster -> train -> eval -> attn-map -> compare, each stage timed."""
        run_id = f"pipeline{index}"
        rep = self.work / run_id
        walls = {}
        with contextlib.ExitStack() as stack:
            stack.enter_context(patched("crossmil.cli", "attention_records", self._capture))
            if traced:
                stack.enter_context(self.tracer.installed())
            for stage in PIPELINE_STAGES:
                out = rep / stage
                self._raw_records = []
                walls[stage], ok = self._run_stage(run_id, stage, self._argv(stage, out), traced)
                if ok:
                    self._check(run_id, stage, out, getattr(self, f"_check_{stage.replace('-', '_')}"))
        # flushed now and deleted with the run, so no writeback or discard
        # of this repeat's files overlaps the next one
        flush_tree(rep)
        self.pipelines.append({"run": run_id, "traced": traced, "walls": walls})

    def _capture(self, original):
        """Keep the raw attention records attn-map computes, for the checks."""

        def capture(*args, **kwargs):
            records = original(*args, **kwargs)
            self._raw_records.append(records)
            return records

        return capture

    # --- checks --------------------------------------------------------------

    def _check(self, run_id: str, stage: str, out: Path, check) -> None:
        """Run a stage's checks, then compare its output bytes and counters
        with the first repeat of the same stage."""
        try:
            problems = check(out)
        except (OSError, ValueError, KeyError, IndexError) as e:
            problems = [f"outputs unreadable: {e!r}"]
        key = f"{run_id}:{stage}"
        record = self.records[key]
        record["digest"] = tree_digest(out)
        if stage in STAGE_BYTES:
            name, pattern = STAGE_BYTES[stage]
            record["counters"][name] = tree_bytes(out, pattern)
        if record["traced"]:
            calls = {f"calls.{n}": v["calls"] for n, v in self.tracer.summary(key).items()}
            record["counters"].update(calls, **self.tracer.counters.get(key, {}))
        first = next(
            r for k, r in self.records.items()
            if k.endswith(f":{stage}") and r["traced"] == record["traced"] and r["digest"] is not None
        )
        if record["digest"] != first["digest"]:
            problems.append("output bytes differ from the first repeat of this seed")
        if record["counters"] != first["counters"]:
            problems.append(f"counters {record['counters']} differ from the first repeat {first['counters']}")
        if problems:
            self.failures.append(f"{key}: " + "; ".join(problems))

    def _check_setup(self, out: Path) -> list[str]:
        problems = []
        for part, per_class in (("train", "n_train_per_class"), ("test", "n_test_per_class")):
            manifest = json.loads((out / part / "manifest.json").read_text())
            if len(manifest["patients"]) != 2 * self.workload.data[per_class]:
                problems.append(f"{part} manifest lists {len(manifest['patients'])} patients")
        return problems

    def _check_cluster(self, out: Path) -> list[str]:
        doc = json.loads((out / "cluster_model.json").read_text())
        k = self.workload.config["cluster"]["k"]
        return [] if len(doc["centroids"]) == k else [f"{len(doc['centroids'])} centroids, expected {k}"]

    def _check_train(self, out: Path) -> list[str]:
        n = len(list(out.glob("checkpoint_split*.bin")))
        want = self.workload.train["n_splits"]
        return [] if n == want else [f"{n} checkpoints, expected {want}"]

    def _check_eval(self, out: Path) -> list[str]:
        problems = []
        lines = (out / "scores.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        ids = {r[0] for r in rows}
        if len(rows) != self.workload.n_test_patients or len(ids) != len(rows):
            problems.append(f"{len(rows)} score rows for {self.workload.n_test_patients} test patients")
        bad = [r[0] for r in rows if not 0.0 <= float(r[2]) <= 1.0]
        if bad:
            problems.append(f"scores outside [0, 1] for {bad[:3]}")
        if self.workload.signal_checks:
            report = dict(line.split("=", 1) for line in (out / "report.txt").read_text().splitlines())
            if not float(report["auc"]) >= AUC_FLOOR:
                problems.append(f"test AUC {report['auc']} < {AUC_FLOOR}")
        return problems

    def _check_attn_map(self, out: Path) -> list[str]:
        w = self.workload
        problems = []
        lines = (out / "attention_records.csv").read_text().splitlines()[1:]
        locations = {tuple(line.split(",")[:2]) for line in lines}
        if len(lines) != w.n_test_locations or len(locations) != len(lines):
            problems.append(f"{len(lines)} attention records for {w.n_test_locations} test locations")
        raw = [r for batch in self._raw_records for r in batch]
        n_models = w.train["n_splits"]
        if len(raw) != n_models * w.n_test_locations:
            problems.append(f"{len(raw)} raw attention records, expected {n_models * w.n_test_locations}")
        off = [r for r in raw if not math.isclose(math.fsum(r.scores), 1.0, abs_tol=SCORE_SUM_TOLERANCE)]
        if off:
            problems.append(f"{len(off)} attention records whose scores do not sum to 1")
        n_scales = w.data["n_scales"]
        pgms = list(out.glob("*.pgm"))
        if len(pgms) != w.n_test_patients * n_scales:
            problems.append(f"{len(pgms)} PGMs for {w.n_test_patients} patients x {n_scales} scales")
        if any(not p.read_bytes().startswith(b"P5\n") for p in pgms):
            problems.append("a heatmap is not a binary PGM")
        if w.signal_checks:
            planted = json.loads((self.data_dir / "test/signal_locations.json").read_text())
            planted_set = {(pid, loc) for pid, locs in planted.items() for loc in locs}
            informative = w.data["informative_scale"]
            hits = [r.scores[informative] for r in raw if (r.patient_id, r.location_id) in planted_set]
            mean = math.fsum(hits) / len(hits) if hits else 0.0
            if not mean > LOCALIZATION_FLOOR:
                problems.append(f"planted-scale attention {mean:.4f} <= {LOCALIZATION_FLOOR:.4f}")
        return problems

    def _check_compare(self, out: Path) -> list[str]:
        lines = (out / "comparison.csv").read_text().splitlines()
        return [] if len(lines) == 3 else [f"comparison.csv has {len(lines)} lines, expected 3"]
