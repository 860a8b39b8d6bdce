"""The traced benchmark run swaps named package attributes for span
recorders (``bench/tracing.py``).  Every name it patches must still
resolve to a callable, and the CLI must still call each layer through
that name, or a refactor would silently break the traced run (or zero
its per-layer figures) instead of failing here."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import posefuse.fusion
from posefuse import cli
from posefuse.fusion import FusionConfig, FusionState, Label, Stage, step
from posefuse.geometry import PoseTrack, track_array
from posefuse.synth import AprNoiseModel, TrajectoryConfig, VioNoiseModel, generate_gt, simulate_apr, simulate_vio

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
WORKER = TRACING.parent / "worker.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def count_cli_calls(monkeypatch, names):
    patched = {(module, attr) for module, attr, _, _ in load_tracing().PATCHES}
    counts = Counter()
    for name in names:
        assert ("posefuse.cli", name) in patched, name
        original = getattr(cli, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    return counts


def test_synth_run_calls_each_traced_layer_once_per_sequence(tmp_path, monkeypatch):
    names = ("generate_gt", "simulate_vio", "simulate_apr", "write_sequence", "run_sequence")
    counts = count_cli_calls(monkeypatch, names)
    argv = ["--synth", "2", "--frames", "30", "--save-sequence", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert counts == {name: 2 for name in names}


def test_input_run_calls_parse_sequence(tmp_path, monkeypatch):
    assert cli.main(["--synth", "1", "--frames", "30", "--save-sequence", "--out", str(tmp_path)]) == 0
    counts = count_cli_calls(monkeypatch, ("parse_sequence", "run_sequence"))
    argv = ["--input", str(tmp_path / "synth-0.sequence.csv"), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 0
    assert counts == {"parse_sequence": 1, "run_sequence": 1}


def test_every_patched_attribute_is_callable():
    tracing = load_tracing()
    assert tracing.PATCHES
    for module_name, attr, _, _ in tracing.PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_step_calls_traced_fusion_names(monkeypatch):
    # The stream workload's traced geometry.odometry and
    # fusion.optimize_pose figures count the calls step makes through
    # these module globals; inlining either would zero them silently.
    patched = {(module, attr) for module, attr, _, _ in load_tracing().PATCHES}
    counts = Counter()
    for name in ("odometry", "optimize_pose"):
        assert ("posefuse.fusion", name) in patched, name
        original = getattr(posefuse.fusion, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(posefuse.fusion, name, counting)
    gt = [s.gt for s in generate_gt(TrajectoryConfig(n_frames=300, seed=5))]
    vio = simulate_vio(gt, VioNoiseModel(), 11)
    apr = simulate_apr(gt, AprNoiseModel(), 12)
    state, cfg = FusionState(), FusionConfig()
    checked = mapped = 0
    for a, v in zip(apr, vio):
        # A frame is checked in an optimization period, or when the
        # alignment window already holds a frame to pair it with.
        was_checked = state.stage is Stage.OPTIMIZING or len(state.window) >= 1
        state, outs = step(state, a, v, cfg)
        checked += was_checked
        mapped += outs[0].label in (Label.TRACKED, Label.OPTIMIZED)
    assert checked > 0 and mapped > 0
    assert counts == {"odometry": 2 * checked, "optimize_pose": mapped}


def test_worker_reads_poses_through_the_views(monkeypatch):
    # The worker's pose_arrays reads pose.position.x and
    # pose.orientation.w, which is why Pose keeps both views.  The worker
    # imports tracing from its own directory.
    monkeypatch.syspath_prepend(str(WORKER.parent))
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    samples = worker.make_sequence(3, 40, AprNoiseModel(), worker._untraced)
    assert len(samples) == 40 and all(s.vio is not None and s.apr is not None for s in samples)
    track = PoseTrack(track_array([s.vio for s in samples]))
    pos, quat = worker.pose_arrays(list(track))
    assert np.array_equal(pos, track.track[:, :3]) and np.array_equal(quat, track.track[:, 3:])
