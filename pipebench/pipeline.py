"""Run one workload's pipeline through the CLI, stage by stage.

Stages hand models to each other through checkpoint and depth files, the
way a user's shell session does. After a first pass in pipeline order,
stages repeat their identical work, interleaved, until ``seconds`` have
passed and each stage ran at least ``MIN_REPS`` times; every repetition
is timed and must write byte-identical outputs. In a traced run each
stage runs exactly three repetitions: untraced (warm-up), traced,
untraced; the two latter give the tracing overhead and the traced one
gives the per-layer spans.

Stage time is the process's CPU time (user + system), not wall time. The
run is one thread doing CPU-bound work, so the two agree on an idle
machine; on a shared virtual machine the hypervisor steals the CPU in
bursts, which inflated wall time by up to 40% for seconds at a time
while CPU time stayed within a few percent. Wall time is kept alongside.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from . import spans
from .workloads import N_LAYERS, RECON_PENALTY, STAGES, TRAIN_CORPUS_SEED, Workload

MIN_REPS = 3
SETUP_REPS = 5

DEPENDS = {
    "depths_mi": (),
    "train_mlm": (),
    "depths_recon": ("train_mlm",),
    "train_cls": ("depths_mi",),
    "eval": ("train_cls",),
    "eval_fixed": ("train_cls",),
}


class StageError(RuntimeError):
    pass


def call_cli(argv: list) -> str:
    """Run one ``depthformer`` command in-process; return its stdout."""
    from depthformer import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise StageError(f"depthformer {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def parse_kv_lines(text: str) -> dict[str, str]:
    """``key<TAB>value`` lines as printed by ``eval``."""
    return dict(line.split("\t", 1) for line in text.splitlines() if line.count("\t") == 1)


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class StageRun:
    name: str
    ops_per_rep: int
    tokens_per_rep: int
    rep_s: list[float] = field(default_factory=list)  # process CPU seconds per untraced repetition
    rep_wall_s: list[float] = field(default_factory=list)
    stdout: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    batch_ns: list[int] = field(default_factory=list)  # eval stages: CPU ns of each predict call
    traced_s: float | None = None
    error: str | None = None

    @property
    def attempted(self) -> int:
        return self.ops_per_rep * (len(self.stdout) + (self.error is not None))

    @property
    def failed(self) -> int:
        return self.ops_per_rep if self.error else 0


class Pipeline:
    def __init__(self, workload: Workload, seed: int, work: Path, src: Path, seconds: float, trace: bool):
        self.w = workload
        self.src = src
        self.seed = seed
        self.work = work
        self.seconds = seconds
        self.trace = trace
        self.tracer = spans.Tracer(run_id=f"{workload.name}-{seed}-{time.time_ns():x}")
        self.setup_s: list[float] = []
        self.setup_digests: list[str] = []
        self.stages: dict[str, StageRun] = {}

        data = work / "data"
        self.train_tsv, self.test_tsv = data / "train.tsv", data / "test.tsv"
        self.mlm_tsv = data / "mlm_train.tsv"
        self.recon_train_tsv, self.recon_test_tsv = data / "recon_train.tsv", data / "recon_test.tsv"
        self.mi_dir, self.recon_dir = work / "mi", work / "recon"
        self.mlm_ckpt, self.cls_ckpt = work / "mlm.ckpt", work / "cls.ckpt"

    # ------------------------------------------------------------------
    # set-up: corpus generation and model construction, several times

    def setup(self) -> None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(self.src), os.environ.get("PYTHONPATH", "")]))
        for i in range(SETUP_REPS):
            out = self.work / f"setup{i}"
            cmd = [sys.executable, "-m", "pipebench.setup_rep", "--workload", self.w.name, "--seed", str(self.seed),
                   "--out-dir", str(out)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=self.src.parent, env=env, capture_output=True, text=True)
            self.setup_s.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise StageError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
            self.setup_digests.append(_digest([out / "train.tsv", out / "test.tsv"]))
        for i in range(1, SETUP_REPS):
            shutil.rmtree(self.work / f"setup{i}")
        (self.work / "setup0").rename(self.work / "data")
        train = self.train_tsv.read_text(encoding="utf-8").splitlines(keepends=True)
        test = self.test_tsv.read_text(encoding="utf-8").splitlines(keepends=True)
        self.mlm_tsv.write_text("".join(train[: self.w.mlm.docs]), encoding="utf-8")
        self.recon_train_tsv.write_text("".join(train[: self.w.recon_docs]), encoding="utf-8")
        self.recon_test_tsv.write_text("".join(test[: self.w.recon_docs]), encoding="utf-8")

    # ------------------------------------------------------------------
    # stages

    def _train_argv(self, task: str, tsv: Path, out: Path, shape, seed: int) -> list:
        return ["train", "--task", task, "--train-tsv", tsv, "--out", out, "--steps", shape.steps,
                "--batch-size", shape.batch, "--d-model", shape.d_model, "--d-ff", shape.d_ff,
                "--n-layers", N_LAYERS, "--max-len", shape.max_len, "--lr", shape.lr,
                "--warmup", shape.warmup, "--seed", seed]

    def stage_plan(self, name: str) -> tuple[list, int, int, list[Path]]:
        """argv, ops per repetition, tokens per repetition, output files."""
        w = self.w
        test_batches = math.ceil(w.n_test / w.eval_batch)  # every document has doc_len tokens
        eval_argv = ["eval", "--ckpt", self.cls_ckpt, "--data-tsv", self.test_tsv,
                     "--batch-size", w.eval_batch, "--reps", 1]
        if name == "depths_mi":
            argv = ["depths", "--mode", "mi", "--train-tsv", self.train_tsv, "--test-tsv", self.test_tsv,
                    "--out-dir", self.mi_dir, "--n-bins", N_LAYERS]
            files = [self.mi_dir / n for n in ("train.depths", "test.depths", "mi_table.tsv", "vocab.tsv")]
            return argv, 1, (w.n_train + w.n_test) * w.doc_len, files
        if name == "train_mlm":
            argv = self._train_argv("mlm", self.mlm_tsv, self.mlm_ckpt, w.mlm, self.seed)
            files = [self.mlm_ckpt, Path(f"{self.mlm_ckpt}.log")]
            return argv, w.mlm.steps, w.mlm.steps * w.mlm.batch * w.mlm_len, files
        if name == "depths_recon":
            argv = ["depths", "--mode", "recon", "--mlm-ckpt", self.mlm_ckpt, "--train-tsv", self.recon_train_tsv,
                    "--test-tsv", self.recon_test_tsv, "--out-dir", self.recon_dir, "--penalty", RECON_PENALTY]
            files = [self.recon_dir / "train.depths", self.recon_dir / "test.depths"]
            return argv, 2 * w.recon_docs, 2 * w.recon_docs * w.mlm_len, files
        if name == "train_cls":
            # adaptive training runs each batch to its deepest token, so the
            # batch order sets the work; it stays with the train split's seed
            argv = self._train_argv("cls", self.train_tsv, self.cls_ckpt, w.cls, TRAIN_CORPUS_SEED)
            argv += ["--depths", self.mi_dir / "train.depths"]
            files = [self.cls_ckpt, Path(f"{self.cls_ckpt}.log")]
            return argv, w.cls.steps, w.cls.steps * w.cls.batch * w.doc_len, files
        if name == "eval":
            return eval_argv + ["--depths", self.mi_dir / "test.depths"], test_batches, w.n_test * w.doc_len, []
        if name == "eval_fixed":
            return eval_argv, test_batches, w.n_test * w.doc_len, []
        raise KeyError(name)

    def run_stages(self) -> None:
        started = time.perf_counter()
        plans = {name: self.stage_plan(name) for name in STAGES}
        for name in STAGES:  # first pass in pipeline order: later stages read earlier outputs
            argv, ops, tokens, files = plans[name]
            self.stages[name] = StageRun(name, ops, tokens)
            broken = [d for d in DEPENDS[name] if self.stages[d].error]
            if broken:
                self.stages[name].error = f"skipped: needs {', '.join(broken)}"
            else:
                self._rep(name, plans[name], traced=False)
        if self.trace:
            for name in STAGES:
                self._rep(name, plans[name], traced=True)
                self._rep(name, plans[name], traced=False)
            return
        # Fill the budget, always repeating the stage furthest behind its
        # share, so that every stage samples the whole run and a slow spell
        # of the machine does not land on one stage only.
        while True:
            live = [s for s in self.stages.values() if not s.error]
            if time.perf_counter() - started >= self.seconds:
                live = [s for s in live if len(s.rep_s) < MIN_REPS]
            if not live:
                return
            stage = min(live, key=lambda s: sum(s.rep_s) / self.w.shares[s.name])
            self._rep(stage.name, plans[stage.name], traced=False)

    def _rep(self, name: str, plan: tuple, traced: bool) -> None:
        """One timed repetition; an exception is recorded on the stage."""
        from depthformer.encoder import AdaptiveEncoder

        stage = self.stages[name]
        if stage.error:
            return
        argv, _, _, files = plan
        batch_timer = spans.Tracer(self.tracer.run_id, clock=time.process_time_ns)
        try:
            predict = spans.Target(AdaptiveEncoder, "predict", "encoder.predict")
            with spans.patched(batch_timer, [predict]), self._maybe_traced(traced):
                wall, cpu = time.perf_counter(), time.process_time()
                stdout = call_cli(argv)
                cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        except Exception:  # record it; stages that do not depend on this one go on
            stage.error = traceback.format_exc(limit=3).strip()
            return
        if traced:
            stage.traced_s = cpu
        else:
            stage.rep_s.append(cpu)
            stage.rep_wall_s.append(wall)
        stage.stdout.append(stdout)
        stage.batch_ns.extend(span.duration_ns for span in batch_timer.spans)
        kept = [ln for ln in stdout.splitlines() if not ln.startswith("wall_")]
        stage.digests.append(_digest(files) + hashlib.sha256("\n".join(kept).encode()).hexdigest())

    def _maybe_traced(self, traced: bool):
        if not traced:
            return contextlib.nullcontext()
        from .layers import targets

        return spans.patched(self.tracer, targets())

    # ------------------------------------------------------------------
    # derived figures

    def eval_fields(self, name: str) -> dict[str, str]:
        return parse_kv_lines(self.stages[name].stdout[0])
