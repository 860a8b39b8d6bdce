"""One benchmark workload in one fresh process: set-up, timed closed
loop, output checks, metrics.

``run.py`` starts this script once per set-up sample and once for the
measured run, so that import cost and peak RSS belong to the workload.
It prints one JSON object on its last stdout line.  ``posefuse`` must be
importable (``run.py`` puts ``src`` on ``PYTHONPATH``).
"""

import time

T_START = time.perf_counter()  # import cost is part of set-up

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

from posefuse import cli, fusion, synth  # noqa: E402
from posefuse import io as pio  # noqa: E402

from tracing import Recorder  # noqa: E402

WORKLOADS = ("synth-short", "csv-clean-long", "stream-default")

# frames per sequence, sequences in the input pool, sequences per CLI call.
SIZES = {
    "full": {
        "synth-short": (200, 32, 4),
        "csv-clean-long": (5000, 2, 2),
        "stream-default": (5000, 2, 1),
    },
    "tiny": {
        "synth-short": (40, 4, 2),
        "csv-clean-long": (120, 2, 2),
        "stream-default": (120, 2, 1),
    },
}
WARMUP_FRAMES = {"full": 200, "tiny": 40}

# Sub-stream seed offsets documented for the CLI's synthetic sequences
# (README, "Synthetic models and randomness").
VIO_SEED_OFFSET = 1_000_003
APR_SEED_OFFSET = 2_000_003
# A "good relocalizer" absolute stream for csv-clean-long.
CLEAN_APR = synth.AprNoiseModel(inlier_pos_sigma=0.1, inlier_rot_sigma=0.5, outlier_prob=0.02)

FRAMES_HEADER = "frame,timestamp,label,x,y,z,qw,qx,qy,qz,ape_m,aoe_deg"
LABELS = tuple(label.value for label in fusion.Label)
STEP_KINDS = ("aligning", "optimizing", "reference")

# The speed of a shared host drifts by 20-40% in states that last a few
# seconds (measured on a 2-vCPU Xeon VM), which would swamp any regression
# bound.  Every run therefore interleaves a fixed calibration kernel with
# its measured work and scales each timing by the kernel's median time
# next to it, relative to CALIB_REFERENCE_S (its median on that VM): the
# numbers read as if measured on a host of that speed.  Step loops run
# one kernel per CALIB_INTERVAL_NS of step time between two calls; a CLI
# call is interrupted by a timer as often, and the kernel's time is taken
# out of the call's.
CALIB_REFERENCE_S = 0.0125
CALIB_INTERVAL_NS = 150_000_000
TRACED_CALIB_SHARE = 0.1  # kernel seconds per traced second
SETUP_CALIB_S = 0.25
# The CLI workloads replay their pool through fusion.step this many times
# for the step latencies: more samples of the host's states per run.
REPLAY_PASSES = 3
_CALIB_ROT = np.array([[0.8, -0.6, 0.0], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])


def calibration_kernel():
    """Fixed interpreter and small-numpy work of the same kind posefuse
    does, independent of posefuse so that no change to it moves this."""
    m = np.eye(3)
    acc = 0.0
    for i in range(3000):
        v = (i * 0.5, i + 1.0, 2.0)
        acc += math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        m = _CALIB_ROT @ m
        acc += float(np.linalg.norm(m[0]))
    return acc


class Calibrator:
    """Calibration kernel times, kept per phase of a run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)

    def sample(self, phase):
        t0 = perf_counter()
        calibration_kernel()
        dt = perf_counter() - t0
        self.samples[phase].append(dt)
        return dt

    def burst(self, phase, budget_s):
        """At least one sample, and more until ``budget_s`` has passed."""
        end = perf_counter() + budget_s
        taken = [self.sample(phase)]
        while perf_counter() < end:
            taken.append(self.sample(phase))
        return taken

    def factor(self, phase):
        """How much slower than the reference host this phase ran."""
        return host_factor(self.samples[phase])

    def timed_call(self, phase, fn, *args):
        """``fn(*args)`` with the kernel run from a SIGALRM handler every
        CALIB_INTERVAL_NS.  Returns the result, the call's own duration
        (handler time taken out) and the kernel samples taken during it.
        In the traced phase the kernel runs after the call instead, so
        that no span contains it."""
        if phase == "traced":
            t0 = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - t0
            return result, elapsed, self.burst(phase, elapsed * TRACED_CALIB_SHARE)
        taken, in_handler = [], [0.0]

        def tick(signum, frame):
            t0 = perf_counter()
            taken.append(self.sample(phase))
            in_handler[0] += perf_counter() - t0

        interval = CALIB_INTERVAL_NS / 1e9
        previous = signal.signal(signal.SIGALRM, tick)
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        if not taken:
            taken.append(self.sample(phase))
        return result, elapsed - in_handler[0], taken


def host_factor(samples):
    return statistics.median(samples) / CALIB_REFERENCE_S


PER_LAYER_UNITS = {
    "synth.generate_gt_us_per_frame": "us/frame",
    "synth.simulate_vio_us_per_frame": "us/frame",
    "synth.simulate_apr_us_per_frame": "us/frame",
    "io.write_sequence_us_per_frame": "us/frame",
    "io.parse_sequence_us_per_frame": "us/frame",
    "fusion.run_sequence_us_per_frame": "us/frame",
    "fusion.compute_reference_us_per_call": "us/call",
    "fusion.references_per_frame": "calls/frame",
    "fusion.optimize_pose_us_per_call": "us/call",
    "fusion.optimize_pose_calls_per_frame": "calls/frame",
    **{f"fusion.step_us.{kind}": "us" for kind in STEP_KINDS},
    "geometry.odometry_us_per_call": "us/call",
    "geometry.odometry_calls_per_frame": "calls/frame",
    **{f"fusion.label_share.{label}": "fraction" for label in LABELS},
    "fusion.window_restarts_per_frame": "1/frame",
    "fusion.window_yield": "fraction",
    "metrics.align_and_evaluate_us_per_frame": "us/frame",
    "metrics.relative_errors_us_per_frame": "us/frame",
    "metrics.summarize_errors_us_per_record": "us/record",
    "metrics.absolute_pose_error_calls_per_frame": "calls/frame",
    "metrics.absolute_pose_error_us_per_call": "us/call",
    "cli.self_us_per_frame": "us/frame",
    "trace.overhead_frac": "fraction",
}


class CheckError(Exception):
    """An output failed a correctness check."""


def make_sequence(seed, frames, apr_model, layer):
    """Synthetic sequence exactly as the CLI builds it for ``seed``.
    ``layer(name, fn)`` lets a traced set-up record the synth calls."""
    samples = layer("synth.generate_gt", synth.generate_gt)(
        synth.TrajectoryConfig(n_frames=frames, seed=seed)
    )
    gt = [s.gt for s in samples]
    vio = layer("synth.simulate_vio", synth.simulate_vio)(gt, synth.VioNoiseModel(), seed + VIO_SEED_OFFSET)
    apr = layer("synth.simulate_apr", synth.simulate_apr)(gt, apr_model, seed + APR_SEED_OFFSET)
    for s, v, a in zip(samples, vio, apr):
        s.vio, s.apr = v, a
    return samples


def _untraced(name, fn):
    return fn


def pose_arrays(poses):
    """(n, 3) positions and (n, 4) quaternions (w, x, y, z)."""
    pos = np.array([(p.position.x, p.position.y, p.position.z) for p in poses])
    quat = np.array([(p.orientation.w, p.orientation.x, p.orientation.y, p.orientation.z) for p in poses])
    return pos.reshape(-1, 3), quat.reshape(-1, 4)


class StepRun:
    """One stream fed through ``fusion.step`` frame by frame, with a
    fresh state and each call timed on its own.  With a calibrator the
    calibration kernel runs between steps, and ``lat_us`` and ``rate``
    are scaled to the reference host."""

    def __init__(self, samples, cfg, calibrator=None, phase=None):
        n = len(samples)
        calib, since_calib = [], 0
        state = fusion.FusionState()
        step = fusion.step
        final = [None] * n
        self.lat_ns = np.zeros(n, dtype=np.int64)
        self.kind = np.zeros(n, dtype=np.int8)  # index into STEP_KINDS
        self.restarts = self.opens = self.references = 0
        self.error = None
        for i, s in enumerate(samples):
            aligning = state.stage is fusion.Stage.ALIGNING
            window_before = len(state.window)
            t0 = perf_counter_ns()
            try:
                state, outs = step(state, s.apr, s.vio, cfg)
            except Exception as exc:  # noqa: BLE001 - an operation failure
                self.error = f"step raised on frame {i}: {exc!r}"
                self.lat_ns = self.lat_ns[:i]
                self.kind = self.kind[:i]
                break
            self.lat_ns[i] = perf_counter_ns() - t0
            since_calib += self.lat_ns[i]
            if calibrator is not None and since_calib >= CALIB_INTERVAL_NS:
                calib.append(calibrator.sample(phase))
                since_calib = 0
            for out in outs:
                final[out.frame_index] = out
            if len(outs) > 1:
                self.kind[i] = 2
                self.references += 1
            elif not aligning:
                self.kind[i] = 1
            if aligning and window_before == 0:
                self.opens += 1
            elif aligning and state.stage is fusion.Stage.ALIGNING and len(state.window) == 1:
                # The pair check failed and the window restarted at this
                # frame: one more alignment attempt.
                self.restarts += 1
                self.opens += 1
        self.done = len(self.lat_ns)
        if calibrator is not None and not calib:
            calib.append(calibrator.sample(phase))
        factor = host_factor(calib) if calib else 1.0
        self.lat_us = self.lat_ns / 1e3 / factor
        self.rate = self.done / (self.lat_ns.sum() / 1e9) * factor if self.done else None
        outputs = final[: self.done]
        self.labels = [o.label.value for o in outputs]
        self.pos, self.quat = pose_arrays([o.pose for o in outputs])


def parse_frames_csv(path, n_frames):
    """Labels and (n, 3) fused positions from a ``frames.csv``, checking
    one row per input frame in order, a valid label and finite poses."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != FRAMES_HEADER:
        raise CheckError(f"{path.name}: bad header")
    if len(lines) - 1 != n_frames:
        raise CheckError(f"{path.name}: {len(lines) - 1} rows for {n_frames} frames")
    labels, pos = [], np.empty((n_frames, 3))
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 12 or fields[0] != str(i) or fields[2] not in LABELS:
            raise CheckError(f"{path.name}: bad row {i + 1}: {line!r}")
        try:
            pose = [float(f) for f in fields[3:10]]
        except ValueError:
            raise CheckError(f"{path.name}: bad number in row {i + 1}") from None
        if not all(math.isfinite(v) for v in pose):
            raise CheckError(f"{path.name}: non-finite pose in row {i + 1}")
        labels.append(fields[2])
        pos[i] = pose[:3]
    return labels, pos


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _quantile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else math.nan


class Workload:
    """Shared bookkeeping: attempted operations, failed ones by key, and
    the first-pass data the metrics are computed from."""

    def __init__(self, name, seed, size, tmp, recorder=None):
        self.frames, self.n_seq, self.per_call = SIZES[size][name]
        self.warmup_frames = WARMUP_FRAMES[size]
        self.seeds = [seed * 1000 + i for i in range(self.n_seq)]
        self.warmup_seed = seed * 1000 + 999
        self.tmp = Path(tmp)
        self.recorder = recorder
        self.layer = recorder.wrap if recorder else _untraced
        self.cfg = fusion.FusionConfig()
        self.attempted = 0
        self.bad: set = set()
        self.failures: list[str] = []
        self.step_runs: list[StepRun] = []  # one per pool sequence, first pass
        self.gt_pos: list[np.ndarray] = []  # matching ground truth
        self.fused_pos: list[np.ndarray] = []  # matching fused positions
        self.labels: list[list[str]] = []
        self.calibrator = Calibrator()

    @property
    def pool_frames(self):
        return self.n_seq * self.frames

    def fail(self, key, message):
        if key not in self.bad:
            self.bad.add(key)
            if len(self.failures) < 20:
                self.failures.append(message)

    def timed(self, seconds, min_ops, traced):
        """Closed loop: run operations back to back for ``seconds`` and
        at least ``min_ops`` operations.  Returns per-operation rates
        (frames/s) and step latencies (us) observed, both scaled."""
        rates, lat = [], []
        op, begin = 0, perf_counter()
        while op < min_ops or perf_counter() - begin < seconds:
            if traced:
                self.recorder.op = op
            rate, op_lat = self.run_op(op, "traced" if traced else "untraced")
            if rate is not None:
                rates.append(rate)
            lat.append(op_lat)
            op += 1
        return rates, np.concatenate(lat)

    def e2e(self, fps, ops, lat_us):
        return {
            "frames_per_s": (fps, "frames/s", ops),
            "step_p50_us": (_quantile(lat_us, 50), "us", len(lat_us)),
            "step_p99_us": (_quantile(lat_us, 99), "us", len(lat_us)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }

    def accuracy(self):
        """Fused position error against ground truth over the first pass,
        computed here with numpy rather than through posefuse.metrics."""
        ape = [np.linalg.norm(f - g, axis=1) for f, g in zip(self.fused_pos, self.gt_pos)]
        ape = np.concatenate(ape) if ape else np.array([])
        return {
            "fused_ape_median_m": (_quantile(ape, 50), "m", len(ape)),
            "fused_ape_p99_m": (_quantile(ape, 99), "m", len(ape)),
        }

    def step_metrics(self, lat_us, kinds):
        """Stage split of step latency plus the first-pass stage mix."""
        kinds = np.asarray(kinds)
        out = {
            f"fusion.step_us.{kind}": float(np.median(lat_us[kinds == k])) if np.any(kinds == k) else 0.0
            for k, kind in enumerate(STEP_KINDS)
        }
        labels = [label for run in self.labels for label in run]
        for label in LABELS:
            out[f"fusion.label_share.{label}"] = labels.count(label) / max(len(labels), 1)
        restarts = sum(r.restarts for r in self.step_runs)
        opens = sum(r.opens for r in self.step_runs)
        references = sum(r.references for r in self.step_runs)
        out["fusion.window_restarts_per_frame"] = restarts / self.pool_frames
        out["fusion.window_yield"] = references / opens if opens else 0.0
        return out

    def layer_metrics(self, totals, cli_frames, factor):
        """Span timings, divided by the host ``factor``, and first-pass
        counts."""
        def entry(name):
            return totals.get(name, {"us": 0.0, "self_us": 0.0, "calls": 0, "size": 0, "first_pass_calls": 0})

        def per_size(name):
            e = entry(name)
            return e["us"] / factor / e["size"] if e["size"] else 0.0

        def per_call(name):
            e = entry(name)
            return e["us"] / factor / e["calls"] if e["calls"] else 0.0

        def calls_per_frame(name):
            return entry(name)["first_pass_calls"] / self.pool_frames

        out = {}
        for name in ("synth.generate_gt", "synth.simulate_vio", "synth.simulate_apr",
                     "io.write_sequence", "io.parse_sequence", "fusion.run_sequence",
                     "metrics.align_and_evaluate", "metrics.relative_errors"):
            out[f"{name}_us_per_frame"] = per_size(name)
        out["metrics.summarize_errors_us_per_record"] = per_size("metrics.summarize_errors")
        for name in ("fusion.compute_reference", "fusion.optimize_pose", "geometry.odometry",
                     "metrics.absolute_pose_error"):
            out[f"{name}_us_per_call"] = per_call(name)
        out["fusion.references_per_frame"] = calls_per_frame("fusion.compute_reference")
        for name in ("fusion.optimize_pose", "geometry.odometry", "metrics.absolute_pose_error"):
            out[f"{name}_calls_per_frame"] = calls_per_frame(name)
        out["cli.self_us_per_frame"] = entry("cli.main")["self_us"] / factor / cli_frames if cli_frames else 0.0
        return out


class CliWorkload(Workload):
    """Operations are ``posefuse.cli.main(argv)`` calls, timed in-process;
    each sequence of a call is one counted operation."""

    suffixes = (".frames.csv", ".summary.json", ".cdf.csv")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = self.n_seq // self.per_call
        self.cli_main = cli.main
        self.cli_frames = 0
        self.replays: list[StepRun] = []
        self.digests: dict[int, dict[str, str]] = {}
        self.first: dict[tuple[int, str], tuple[list[str], np.ndarray]] = {}

    def call_seeds(self, j):
        return self.seeds[j * self.per_call:(j + 1) * self.per_call]

    def run_op(self, op, phase):
        j = op % self.calls
        out = self.tmp / f"call{j}"
        shutil.rmtree(out, ignore_errors=True)
        argv = self.argv(j, out)
        try:
            rc, seconds, calib = self.calibrator.timed_call(phase, self.cli_main, argv)
        except Exception as exc:  # noqa: BLE001 - an operation failure
            rc = repr(exc)
        names = self.names(j)
        self.attempted += len(names)
        if phase == "traced":
            self.cli_frames += len(names) * self.frames
        if rc != 0:
            for name in names:
                self.fail((op, name), f"{name}: posefuse exited with {rc}")
            return None, np.array([])
        self.check_call(op, j, out)
        return len(names) * self.frames / seconds * host_factor(calib), np.array([])

    def check_call(self, op, j, out):
        """First output of call ``j``: parse and check every frames.csv.
        Later outputs: every file byte-identical to the first."""
        digests = {p.name: _digest(p) for p in sorted(out.iterdir())}
        first = self.digests.get(j)
        for name in self.names(j):
            files = [name + suffix for suffix in self.suffixes]
            missing = [f for f in files if f not in digests]
            if missing:
                self.fail((op, name), f"{name}: missing {missing}")
            elif first is None:
                try:
                    self.first[j, name] = parse_frames_csv(out / files[0], self.frames)
                    self.check_extra(out, name)
                except CheckError as exc:
                    self.fail((op, name), str(exc))
            else:
                changed = [f for f in files if first.get(f) != digests[f]]
                if changed:
                    self.fail((op, name), f"{name}: output differs from the first run: {changed}")
        if first is None:
            self.digests[j] = digests
        elif set(first) != set(digests):
            self.fail((op, "files"), f"call {j}: output file set changed")

    def check_extra(self, out, name):
        pass

    def verify(self):
        """Replay each pool sequence through ``fusion.step`` and compare
        the final labels and poses with the CLI's frames.csv.  Later
        replay passes must repeat the first exactly; all passes give the
        step latencies."""
        streams = []
        for j in range(self.calls):
            for name, samples in zip(self.names(j), self.reference_streams(j)):
                streams.append(samples)
                run = StepRun(samples, self.cfg, self.calibrator, "replay")
                self.step_runs.append(run)
                self.replays.append(run)
                if (j, name) not in self.first:
                    continue
                labels, pos = self.first[j, name]
                if run.error or run.labels != labels or not np.allclose(run.pos, pos, rtol=1e-9, atol=1e-9):
                    self.fail((j, name), f"{name}: frames.csv disagrees with a fusion.step replay")
                    continue
                self.labels.append(labels)
                self.fused_pos.append(pos)
                self.gt_pos.append(pose_arrays([s.gt for s in samples])[0])
        for _ in range(REPLAY_PASSES - 1):
            for first, samples in zip(self.step_runs, streams):
                run = StepRun(samples, self.cfg, self.calibrator, "replay")
                self.replays.append(run)
                if run.labels != first.labels or not np.array_equal(run.pos, first.pos):
                    self.fail(("replay", len(self.replays)), "a fusion.step replay did not repeat the first")


class SynthShort(CliWorkload):
    suffixes = CliWorkload.suffixes + (".sequence.csv",)

    def setup(self):
        warm = self.tmp / "warmup"
        if cli.main(["--synth", "1", "--frames", str(self.warmup_frames),
                     "--seed", str(self.warmup_seed), "--out", str(warm)]) != 0:
            raise RuntimeError("warm-up call failed")
        shutil.rmtree(warm)

    def argv(self, j, out):
        return ["--synth", str(self.per_call), "--frames", str(self.frames),
                "--seed", str(self.call_seeds(j)[0]), "--save-sequence", "--out", str(out)]

    def names(self, j):
        return [f"synth-{s}" for s in self.call_seeds(j)]

    def check_extra(self, out, name):
        rows = np.loadtxt(out / f"{name}.sequence.csv", delimiter=",", skiprows=1, ndmin=2)
        if rows.shape != (self.frames, 23) or not np.all(np.isfinite(rows)):
            raise CheckError(f"{name}.sequence.csv: shape {rows.shape}, want ({self.frames}, 23)")

    def reference_streams(self, j):
        return [make_sequence(s, self.frames, synth.AprNoiseModel(), _untraced) for s in self.call_seeds(j)]


class CsvCleanLong(CliWorkload):
    def setup(self):
        write = self.layer("io.write_sequence", pio.write_sequence)
        inputs = self.tmp / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        for s in self.seeds:
            write(inputs / f"clean-{s}.csv", make_sequence(s, self.frames, CLEAN_APR, self.layer))
        warm_in = self.tmp / "warmup.csv"
        pio.write_sequence(warm_in, make_sequence(self.warmup_seed, self.warmup_frames, CLEAN_APR, _untraced))
        if cli.main(["--input", str(warm_in), "--out", str(self.tmp / "warmup")]) != 0:
            raise RuntimeError("warm-up call failed")
        shutil.rmtree(self.tmp / "warmup")

    def argv(self, j, out):
        argv = []
        for s in self.call_seeds(j):
            argv += ["--input", str(self.tmp / "inputs" / f"clean-{s}.csv")]
        return argv + ["--out", str(out)]

    def names(self, j):
        return [f"clean-{s}" for s in self.call_seeds(j)]

    def reference_streams(self, j):
        # The CLI fused the printed (12 significant digit) values, so
        # the replay reads the same files.
        return [pio.parse_sequence(self.tmp / "inputs" / f"clean-{s}.csv") for s in self.call_seeds(j)]


class StreamDefault(Workload):
    """Operations are single ``fusion.step`` calls; the loop feeds whole
    pool sequences, each with a fresh state."""

    def setup(self):
        self.streams = [make_sequence(s, self.frames, synth.AprNoiseModel(), self.layer) for s in self.seeds]
        StepRun(make_sequence(self.warmup_seed, self.warmup_frames, synth.AprNoiseModel(), _untraced), self.cfg)
        self.kinds: list[np.ndarray] = []

    def run_op(self, op, phase):
        q = op % self.n_seq
        traced = phase == "traced"
        run = StepRun(self.streams[q], self.cfg, self.calibrator, phase)
        self.attempted += run.done
        name = f"stream-{self.seeds[q]}"
        if run.error:
            self.fail((op, "error"), f"{name}: {run.error}")
        if op < self.n_seq and not traced:
            self.step_runs.append(run)
            self.labels.append(run.labels)
            self.fused_pos.append(run.pos)
            self.gt_pos.append(pose_arrays([s.gt for s in self.streams[q]])[0])
        elif run.done == self.step_runs[q].done:  # a shorter run already failed
            first = self.step_runs[q]
            same = np.array(run.labels) == np.array(first.labels)
            same &= np.all(run.pos == first.pos, axis=1) & np.all(run.quat == first.quat, axis=1)
            for i in np.flatnonzero(~same):
                self.fail((op, int(i)), f"{name}: frame {i} differs from the first pass")
        if not traced:
            self.kinds.append(run.kind)
        return run.rate, run.lat_us

    def verify(self):
        """``run_sequence`` on the same streams must reproduce the final
        step labels and poses within 1e-12."""
        for q, samples in enumerate(self.streams):
            first = self.step_runs[q]
            outputs = fusion.run_sequence(samples, self.cfg)
            pos, quat = pose_arrays([o.pose for o in outputs])
            labels = np.array([o.label.value for o in outputs])
            n = first.done
            same = labels[:n] == np.array(first.labels)
            same &= np.all(np.abs(pos[:n] - first.pos) <= 1e-12, axis=1)
            same &= np.all(np.abs(quat[:n] - first.quat) <= 1e-12, axis=1)
            for i in np.flatnonzero(~same):
                self.fail((q, int(i)), f"stream-{self.seeds[q]}: run_sequence disagrees on frame {i}")


CLASSES = {"synth-short": SynthShort, "csv-clean-long": CsvCleanLong, "stream-default": StreamDefault}


def run(args):
    recorder = Recorder() if args.trace and not args.setup_only else None
    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    workload = CLASSES[args.workload](args.workload, args.seed, args.size, tmp, recorder)
    workload.setup()
    setup_s = time.perf_counter() - T_START
    calibrator = workload.calibrator
    calibration_kernel()  # first calls into numpy's linalg are slower
    calibrator.burst("setup", SETUP_CALIB_S)
    result = {"setup_s": setup_s / calibrator.factor("setup"), "numpy": np.__version__, "seeds": workload.seeds}
    if args.setup_only:
        return result

    # Tracing off: end-to-end metrics.  At least one full pass over the
    # pool plus one repeat, so every output is checked against a rerun.
    rates, step_us = workload.timed(args.seconds, len(workload.seeds) // workload.per_call + 1, traced=False)
    workload.verify()
    if isinstance(workload, StreamDefault):
        step_kind = np.concatenate(workload.kinds)
    else:
        step_us = np.concatenate([r.lat_us for r in workload.replays])
        step_kind = np.concatenate([r.kind for r in workload.replays])
    fps = statistics.median(rates) if rates else math.nan
    result["e2e"] = workload.e2e(fps, len(rates), step_us)
    result["accuracy"] = workload.accuracy()

    if recorder is not None:
        # Tracing on: the same loop with every layer wrapped.  Counts
        # come from its first pass over the pool, so they repeat exactly.
        first_pass_ops = len(workload.seeds) // workload.per_call
        with recorder.installed():
            if isinstance(workload, CliWorkload):
                workload.cli_main = recorder.wrap("cli.main", cli.main)
            traced_rates, _ = workload.timed(args.seconds, first_pass_ops, traced=True)
        workload.cli_main = cli.main
        per_layer = workload.layer_metrics(
            recorder.totals(first_pass_ops), getattr(workload, "cli_frames", 0), calibrator.factor("traced")
        )
        per_layer.update(workload.step_metrics(step_us, step_kind))
        traced_fps = statistics.median(traced_rates) if traced_rates else math.nan
        per_layer["trace.overhead_frac"] = 1.0 - traced_fps / fps
        result["per_layer"] = {k: (per_layer[k], unit, "-") for k, unit in PER_LAYER_UNITS.items()}
        result["per_layer"].update(result["accuracy"])
        result["spans"] = len(recorder.spans)
        if args.spans:
            recorder.write_csv(Path(args.spans))

    result["host_factor"] = {phase: calibrator.factor(phase) for phase in calibrator.samples}
    result["attempted"] = workload.attempted
    result["failed"] = len(workload.bad)
    result["failures"] = workload.failures
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--tmp", required=True, help="scratch directory for inputs and reports")
    parser.add_argument("--spans", help="write the traced run's spans to this CSV")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


if __name__ == "__main__":
    out = run(parse_args(sys.argv[1:]))
    print(json.dumps(out, allow_nan=True))
