"""Pipeline benchmark for depthformer: per-stage throughput on generated corpora.

Run from the repository root:

    python3 pipebench/run.py --workload short-pipeline --seed 1 --seconds 36 --trace 0
    python3 pipebench/run.py --workload all --seed 1        # every workload, each in its own process

One process, one BLAS thread, closed loop: each stage of the user's
pipeline (``depths --mode mi``, ``train --task mlm``, ``depths --mode
recon``, ``train --task cls``, ``eval``, fixed-depth ``eval``) runs through
the CLI in this process, repeated until its share of ``--seconds`` is used.
Stage throughput is tokens over the process CPU time the stage took, and
batch latency is the CPU time of each ``predict`` call (see ``pipeline.py``
for why); set-up time is wall clock.
The package is imported from ``src/`` of the checkout the script sits in.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds per-layer metrics from spans recorded around calls
into each module's public functions, plus the tracing overhead. The full
record (seed, environment, per-stage timings, checks and, with ``--trace
1``, every span) is written to
``.pipebench_results/<workload>-seed<seed>-trace<trace>.json``. The exit
code is 0 only when every stage ran and every output check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".pipebench_work"
RESULTS = ROOT / ".pipebench_results"

sys.path[0] = str(ROOT)  # import the benchmark as a package, never its files as top-level modules

from pipebench import envinfo  # noqa: E402  (sets no state; numpy is not imported yet)

for _var in envinfo.THREAD_VARS:
    os.environ[_var] = "1"

E2E_UNITS = {
    "setup_s": "s",
    "depths_mi_tokens_per_s": "tok/s",
    "train_mlm_tokens_per_s": "tok/s",
    "depths_recon_tokens_per_s": "tok/s",
    "train_cls_tokens_per_s": "tok/s",
    "eval_tokens_per_s": "tok/s",
    "eval_fixed_tokens_per_s": "tok/s",
    "eval_batch_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    from pipebench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed: corpus and model init")
    parser.add_argument("--seconds", type=float, default=36.0, help="time budget shared by the stages")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "depthformer" / "__init__.py").is_file():
        print(f"error: no depthformer sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=_plain) + "\n", encoding="utf-8")
    print_report(record)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


# ---------------------------------------------------------------------------


def run_workload(args) -> dict:
    from pipebench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    import depthformer.cli

    if not Path(depthformer.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported depthformer from {depthformer.cli.__file__}, not {SRC}")

    pin = envinfo.BlasPin()
    pin.check_single()
    environment = envinfo.capture(pin)

    from pipebench.checks import run_checks
    from pipebench.pipeline import Pipeline

    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        pipe = Pipeline(workload, args.seed, work, SRC, args.seconds, bool(args.trace))
        pipe.setup()
        pipe.run_stages()
        checks = run_checks(pipe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    attempted = len(pipe.setup_s) + len(checks) + sum(s.attempted for s in pipe.stages.values())
    failed = sum(not c.passed for c in checks) + sum(s.failed for s in pipe.stages.values())
    if args.trace:
        from pipebench.layers import PER_LAYER_UNITS, per_layer_metrics

        values, notes = per_layer_metrics(pipe.tracer.spans)
        values["trace.overhead_pct"] = tracing_overhead_pct(pipe)
        units = PER_LAYER_UNITS
    else:
        values, notes = end_to_end(pipe, peak_rss_mb)
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_id": pipe.tracer.run_id,
        "environment": environment,
        "setup_rep_s": pipe.setup_s,
        "stages": {
            s.name: {
                "reps_cpu_s": s.rep_s,
                "reps_wall_s": s.rep_wall_s,
                "traced_s": s.traced_s,
                "ops_per_rep": s.ops_per_rep,
                "tokens_per_rep": s.tokens_per_rep,
                "attempted": s.attempted,
                "failed": s.failed,
                "error": s.error,
            }
            for s in pipe.stages.values()
        },
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        "notes": notes,
        "failed_op_share": failed / attempted,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
        "spans": [dataclasses.asdict(span) for span in pipe.tracer.spans],
    }


def _plain(value):
    """numpy scalars in span attributes, as plain JSON numbers."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def end_to_end(pipe, peak_rss_mb: float) -> tuple[dict[str, float], dict[str, str]]:
    from statistics import median

    from pipebench.stats import tail_percentile

    values = {"setup_s": median(pipe.setup_s), "peak_rss_mb": peak_rss_mb}
    notes: dict[str, str] = {}
    for stage in pipe.stages.values():
        if stage.rep_s and not stage.error:  # work completed over the CPU time it took, all repetitions
            tokens = stage.tokens_per_rep * len(stage.rep_s)
            values[f"{stage.name}_tokens_per_s"] = tokens / sum(stage.rep_s)
            notes[f"{stage.name}_wall_tokens_per_s"] = f"{tokens / sum(stage.rep_wall_s):.6g}"
    for name in ("eval", "eval_fixed"):
        batch_ms = [ns / 1e6 for ns in pipe.stages[name].batch_ns]
        if not batch_ms:
            continue
        values[f"{name}_batch_ms_p50"] = median(batch_ms)
        tail = tail_percentile(batch_ms)
        if tail:
            notes[f"{name}_batch_ms_p{tail[0]:g}"] = f"{tail[1]:.4f} ms over {len(batch_ms)} batches"
        else:
            notes[f"{name}_batch_ms_tail"] = f"fewer than 20 batches ({len(batch_ms)})"
    if pipe.stages["eval"].stdout:
        notes["accuracy"] = pipe.eval_fields("eval")["accuracy"]
    return values, notes


def tracing_overhead_pct(pipe) -> float:
    """Traced repetition against the untraced one that follows it, summed
    over stages."""
    stages = [s for s in pipe.stages.values() if s.traced_s is not None and len(s.rep_s) > 1]
    untraced = sum(s.rep_s[-1] for s in stages)
    return 100.0 * (sum(s.traced_s for s in stages) / untraced - 1.0) if untraced else 0.0


def print_report(record: dict) -> None:
    env = record["environment"]
    pools = ", ".join(f"{p['api']} {p['version']} x{p['num_threads']} ({p['source']})" for p in env["threadpools"])
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']:g}  "
          f"trace {record['trace']}  run {record['run_id']}")
    print(f"why: {record['why']}")
    print(f"env: python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  pools [{pools}]  "
          f"nproc {env['nproc']}  cpu {env['cpu_model']}")
    print("setup reps (s): " + " ".join(f"{s:.3f}" for s in record["setup_rep_s"]))
    print(f"{'stage':<14}{'reps':>5}{'cpu_s':>9}{'wall_s':>9}{'ops/rep':>9}{'tok/rep':>9}  error")
    for name, s in record["stages"].items():
        cpu, wall = sum(s["reps_cpu_s"]), sum(s["reps_wall_s"])
        error = (s["error"] or "").splitlines()[-1:] or [""]
        print(f"{name:<14}{len(s['reps_cpu_s']):>5}{cpu:>9.3f}{wall:>9.3f}{s['ops_per_rep']:>9}{s['tokens_per_rep']:>9}  "
              f"{error[0]}")
    for c in record["checks"]:
        print(f"check {'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail'].splitlines()[-1]}")
    for name, m in record["result"]["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for name, note in record["notes"].items():
        print(f"note {name}: {note}")
    result = record["result"]
    print(f"ops attempted {result['attempted']} failed {result['failed']} "
          f"failed_op_share {record['failed_op_share']:.4f}")


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS and warm state do not leak."""
    from pipebench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.rstrip("\n").splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} exited {proc.returncode} without a result:\n{proc.stderr}")
            combined.update(correct=False, attempted=combined["attempted"] + 1, failed=combined["failed"] + 1)
            continue
        print("\n".join(lines[:-1]) + "\n")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
