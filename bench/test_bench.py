"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import worker  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# Timing-only per-layer metrics vary from run to run; everything else
# is an exact count or a deterministic function of the seed.
TIMED = ("_us", "trace.overhead_frac")


def bench(root: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(workload, trace):
    out = result(bench(ROOT, workload, trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    specs = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: m["unit"] for k, m in out["metrics"].items()} == {m["name"]: m["unit"] for m in specs}
    assert all(isinstance(m["value"], float) for m in out["metrics"].values())
    assert out["attempted"] >= 1
    assert out["failed"] == 0 and out["correct"], out


def test_traced_counts_repeat_exactly():
    runs = [result(bench(ROOT, "synth-short", 1)) for _ in range(2)]
    exact = [name for name in runs[0]["metrics"] if not any(t in name for t in TIMED)]
    assert "fusion.references_per_frame" in exact
    assert [runs[0]["metrics"][n] for n in exact] == [runs[1]["metrics"][n] for n in exact]


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "synth-short", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def synth_call(tmp_path):
    """A tiny synth-short workload after one checked CLI call."""
    wl = worker.SynthShort("synth-short", 5, "tiny", tmp_path)
    wl.setup()
    rate, _ = wl.run_op(0, "untraced")
    assert rate is not None and not wl.bad
    return wl, tmp_path / "call0"


def test_rerun_with_corrupted_output_counts_as_failure(synth_call):
    wl, out = synth_call
    frames = out / f"{wl.names(0)[0]}.frames.csv"
    wl.check_call(1, 0, out)
    assert not wl.bad
    lines = frames.read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = next(label for label in worker.LABELS if label != fields[2])
    lines[1] = ",".join(fields)
    frames.write_text("\n".join(lines) + "\n")
    wl.check_call(2, 0, out)
    assert wl.bad == {(2, wl.names(0)[0])}


@pytest.mark.parametrize("corrupt", [
    lambda lines: lines[:-1],
    lambda lines: lines[:1] + [lines[1].replace(",", ",bogus-label,", 1)] + lines[2:],
    lambda lines: lines[:1] + [lines[1].replace(lines[1].split(",")[2], "unknown")] + lines[2:],
    lambda lines: lines[:1] + lines[2:] + lines[1:2],
])
def test_frames_csv_check_rejects_corruption(synth_call, corrupt):
    wl, out = synth_call
    frames = out / f"{wl.names(0)[0]}.frames.csv"
    lines = frames.read_text().splitlines()
    worker.parse_frames_csv(frames, wl.frames)
    frames.write_text("\n".join(corrupt(lines)) + "\n")
    with pytest.raises(worker.CheckError):
        worker.parse_frames_csv(frames, wl.frames)


def test_failed_cli_call_counts_every_sequence(synth_call, monkeypatch):
    wl, _ = synth_call
    monkeypatch.setattr(wl, "cli_main", lambda argv: 1)
    wl.run_op(1, "untraced")
    assert len(wl.bad) == wl.per_call


def test_step_replay_matches_cli_outputs(synth_call):
    wl, _ = synth_call
    wl.verify()
    assert not wl.bad
    assert len(wl.fused_pos) == wl.per_call
