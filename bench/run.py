"""posefuse benchmark: run one workload with one seed and report its
metrics.

    python3 bench/run.py --workload synth-short --seed 1 --seconds 20 --trace 0

Workloads, metrics and why they were chosen: bench/README.md.  Each run
starts fresh child processes (bench/worker.py) with BLAS pinned to one
thread: SETUP_REPEATS - 1 that only set up, for the set-up time median,
then one that sets up, measures and checks.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` additionally runs the loop with every
layer wrapped in span recorders and reports the per-layer metrics.

A human-readable table goes to stdout first; the last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with provenance and sample counts, is
written to ``.bench_run/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("synth-short", "csv-clean-long", "stream-default")
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, all children included
BLAS_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


class BenchError(Exception):
    """The benchmark itself could not run."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from the
    files so no git process is needed; "unknown" otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(args, tmp: Path, deadline: float, setup_only: bool, spans: Path | None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(0 if setup_only else args.trace),
           "--size", args.size, "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        # run() kills the worker on timeout and waits for it to end.
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result:\n{proc.stderr}")
    return json.loads(lines[-1])


def _entries(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}


def measure(args) -> dict:
    """All children of one run; returns the full record."""
    if not (SRC / "posefuse" / "__init__.py").is_file():
        raise BenchError(f"posefuse sources not found under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    RUN_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix=tag + "-", dir=RUN_DIR))
    try:
        setups = [
            _child(args, tmp / f"setup{i}", deadline, True, None)["setup_s"]
            for i in range(SETUP_REPEATS - 1)
        ]
        spans = RUN_DIR / f"spans-{tag}.csv" if args.trace else None
        main = _child(args, tmp / "main", deadline, False, spans)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(main["setup_s"])
    e2e = dict(main["e2e"])
    e2e["setup_s"] = (statistics.median(setups), "s", len(setups))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "error_rate": main["failed"] / max(main["attempted"], 1),
        "failures": main["failures"],
        "end_to_end": _entries(e2e),
        "accuracy": _entries(main["accuracy"]),
        "setup_samples_s": setups,
        "host_factor": main["host_factor"],
        "provenance": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": main["numpy"],
            "git_commit": _git_commit(),
            "sequence_seeds": main["seeds"],
            "blas_threads": BLAS_PINS,
        },
    }
    if args.trace:
        record["per_layer"] = _entries(main["per_layer"])
        record["spans"] = {"count": main["spans"], "file": str(spans.relative_to(ROOT))}
    (RUN_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def _table(title: str, metrics: dict) -> list[str]:
    lines = [title, f"  {'metric':44s} {'value':>14s}  {'unit':12s} samples"]
    for name, m in metrics.items():
        lines.append(f"  {name:44s} {m['value']:14.6g}  {m['unit']:12s} {m['samples']}")
    return lines


def report(record: dict) -> list[str]:
    prov = record["provenance"]
    lines = [
        f"posefuse benchmark: workload {record['workload']}, seed {record['seed']}, "
        f"{record['seconds']} s, trace {record['trace']}",
        "  " + ", ".join(f"{k}={v}" for k, v in prov.items()),
        "  timings scaled to the reference host; slowdown factors applied: "
        + ", ".join(f"{k} {v:.3f}" for k, v in record["host_factor"].items()),
    ]
    lines += _table("end-to-end (tracing off):", record["end_to_end"])
    lines += _table("accuracy (first pass over the inputs):", record["accuracy"])
    lines.append(
        f"  error_rate {record['error_rate']:.6g} "
        f"({record['failed']} failed of {record['attempted']} operations)"
    )
    lines += [f"  failure: {f}" for f in record["failures"]]
    if "per_layer" in record:
        lines += _table("per-layer (traced run):", record["per_layer"])
        lines.append(f"  spans: {record['spans']['count']} in {record['spans']['file']}")
    return lines


def result_line(record: dict) -> str:
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    values = {k: m["value"] for k, m in metrics.items()}
    finite = all(math.isfinite(v) for v in values.values())
    return json.dumps({
        "correct": record["failed"] == 0 and finite,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": metrics[k]["unit"]}
            for k, v in values.items()
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one posefuse benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed; inputs derive from it")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run a traced loop and report per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    args = parser.parse_args(argv)
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report(record)))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
