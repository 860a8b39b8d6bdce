"""Repeat bench/run.py over several seeds and summarize the spread.

    python3 bench/collect.py --seeds 1-10 --out bench/results/<name>.json
    python3 bench/collect.py --seeds 11-20 --baseline bench/results/<name>.json --out ...

For every workload and end-to-end metric it reports the median of the
runs, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the inter-quartile distance as a share of the median, against
the metric's bound in BENCHMARK.json.  With ``--baseline`` it also
checks that no median is worse than the baseline's by more than the
bound.  Runs go one after another, never in parallel, so they do not
compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_run" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "wall_s": wall_s, "result": result, "accuracy": record["accuracy"],
            "host_factor": record["host_factor"], "provenance": record["provenance"]}


def summarize(values: list[float], bound: float | None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    # Per-layer figures of a layer that does not run in a workload are 0.
    spread = (q3 - q1) / median if median else 0.0
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["within_bound"] = out["spread"] <= bound
        out["within_third_of_bound"] = out["spread"] <= bound / 3
    return out


def worse_by(new: float, old: float, better: str) -> float:
    """Relative worsening of ``new`` against ``old`` (negative: better)."""
    change = (new - old) / old
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all", help="comma list, or all")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, help="earlier output of this script to compare against")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
    out = {"seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, bench["run_seconds"], args.trace))
            print(f"{workload} seed {seed} ({runs[-1]['wall_s']:.1f} s): {json.dumps(runs[-1]['result'])}",
                  file=sys.stderr, flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            spec = specs[name]
            summary[name] = summarize(values, spec.get("bound"))
            line = f"{workload:16s} {name:40s} median {summary[name]['median']:12.6g}  spread {summary[name]['spread']:7.4f}"
            if "bound" in spec:
                line += f"  bound {spec['bound']}"
                ok &= summary[name]["within_bound"] or name == "setup_s"
            if baseline and "bound" in spec:
                old = baseline["workloads"][workload]["summary"][name]["median"]
                worse = worse_by(summary[name]["median"], old, spec["better"])
                summary[name]["worse_than_baseline_by"] = worse
                line += f"  vs baseline {worse:+.4f}"
                ok &= worse <= spec["bound"]
            print(line)
        out["workloads"][workload] = {
            "runs": runs,
            "summary": summary,
            "all_correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
        }
        ok &= out["workloads"][workload]["all_correct"]
    out["ok"] = ok
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"{'ok' if ok else 'NOT ok'}: wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
