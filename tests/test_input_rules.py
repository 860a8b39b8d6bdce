"""The rules a pose row keeps where it enters posefuse: every field
finite, |x|, |y| and |z| below COORD_LIMIT, a unit quaternion, and a
finite timestamp.  Within them both fusion paths run without an
overflow; Recording and PoseTrack refuse a row that breaks them, naming
its frame, parse_sequence refuses it naming its line, and the Pose
constructor naming the field."""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posefuse import cli
from posefuse.fusion import FusionConfig, FusionState, Label, run_sequence, step
from posefuse.geometry import COORD_LIMIT, Pose, PoseTrack, track_array
from posefuse.io import SEQUENCE_COLUMNS, PoseSample, Recording, SequenceFormatError, parse_sequence
from oracles import step_run_sequence

# The largest float below the bound.
BELOW = math.nextafter(COORD_LIMIT, 0.0)


def random_track(rng, n, scale):
    """n poses with coordinates uniform in (-scale, scale), clipped to
    just below the bound, and random unit quaternions."""
    pos = np.clip(rng.uniform(-scale, scale, (n, 3)), -BELOW, BELOW)
    quat = rng.normal(size=(n, 4))
    return [Pose(*p, *q) for p, q in zip(pos.tolist(), quat.tolist())]


@st.composite
def near_bound_samples(draw):
    """A sequence whose coordinates reach up to just below the bound.
    With twin streams vio equals apr, except on the frames where apr is
    replaced by an outlier, so windows complete and references, periods
    and mapped poses all occur at that scale."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e6, 1e100, 1e149, BELOW]))
    apr = random_track(rng, n, scale)
    if draw(st.booleans()):
        vio = list(apr)
        outliers = random_track(rng, n, scale)
        for i in np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))).tolist():
            apr[i] = outliers[i]
    else:
        vio = random_track(rng, n, scale)
    return [PoseSample(10 + i, 0.5 * i, vio=v, apr=a) for i, (v, a) in enumerate(zip(vio, apr))]


def fused_bytes(outputs):
    """Frame indices, labels and the fused track's bytes."""
    outputs = list(outputs)
    track = track_array([o.pose for o in outputs])
    return [o.frame_index for o in outputs], [o.label for o in outputs], track.tobytes()


class TestBelowTheBound:
    @settings(max_examples=150, deadline=None)
    @given(near_bound_samples(), st.sampled_from([FusionConfig(), FusionConfig(n_pairs=1, t_opt=3)]))
    def test_batch_and_step_agree_bit_for_bit(self, samples, cfg):
        # Any RuntimeWarning fails the test suite, an overflow's included.
        expect = fused_bytes(step_run_sequence(samples, cfg))
        assert fused_bytes(run_sequence(samples, cfg)) == expect
        assert fused_bytes(run_sequence(Recording.of(samples), cfg)) == expect


    @pytest.mark.parametrize("turned, limit", [(False, 3.0), (True, 4.5)])
    def test_fused_poses_stay_finite(self, turned, limit):
        # Mapped poses may leave the bound the inputs keep: t adds the apr
        # reference to the rotated vio reference, so a coordinate can reach
        # 3 * COORD_LIMIT on one axis and (1 + 2 sqrt 3) * COORD_LIMIT once
        # the map turns the diagonal (BELOW, BELOW, BELOW) of vio onto x.
        # Frames 3 to 10 are optimized, the rest tracked through the first
        # reference.
        # apr's turn of acos(1 / sqrt 3) about (0, 1, -1) takes the diagonal
        # onto x, and the map's rotation is that turn.
        half = math.acos(math.sqrt(1.0 / 3.0)) / 2.0
        s = math.sin(half) * math.sqrt(0.5)
        ori = (math.cos(half), 0.0, s, -s) if turned else (1.0, 0.0, 0.0, 0.0)
        samples = [
            PoseSample(
                i, float(i),
                vio=Pose(*[-BELOW if i < 3 else BELOW] * 3, 1.0, 0.0, 0.0, 0.0),
                apr=Pose(*[BELOW if i < 11 or i % 2 else -BELOW] * 3, *ori),
            )
            for i in range(20)
        ]
        cfg, state, outs = FusionConfig(), FusionState(), []
        for sample in samples:
            state, emitted = step(state, sample.apr, sample.vio, cfg)
            outs += emitted
        fused = run_sequence(samples, cfg)
        assert {o.label for o in fused} >= {Label.OPTIMIZED, Label.TRACKED}
        for track in (track_array([o.pose for o in outs]), fused.track):
            assert np.isfinite(track).all()
            assert np.abs(track[:, :3]).max() < limit * COORD_LIMIT
        reach = np.abs(fused.track[:, :3]).max() / COORD_LIMIT
        assert reach > (1.0 + 2.0 * math.sqrt(3.0) if turned else 3.0) - 1e-9
        with pytest.raises(ValueError, match="must be finite and below"):
            PoseTrack(fused.track)


# What breaks a rule, applied to one frame of one stream.
KINDS = ("bound", "nan_field", "nan_timestamp", "zero_quaternion", "scaled_quaternion")


@st.composite
def refused_cases(draw):
    """Valid arrays of a few frames, then one frame k of one stream
    broken in one way: (frames, timestamps, tracks by stream, k, stream,
    kind)."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = [100 + 3 * i for i in range(n)]
    ts = 0.25 * np.arange(n)
    tracks = {name: track_array(random_track(rng, n, 50.0)) for name in ("gt", "vio", "apr")}
    k = draw(st.integers(0, n - 1))
    stream = draw(st.sampled_from(["gt", "vio", "apr"]))
    kind = draw(st.sampled_from(KINDS))
    row = tracks[stream][k]
    if kind == "bound":
        row[draw(st.integers(0, 2))] = draw(st.sampled_from([1.0, -1.0])) * draw(
            st.sampled_from([COORD_LIMIT, 1e200, 1.7e308])
        )
    elif kind == "nan_field":
        row[draw(st.integers(0, 6))] = math.nan
    elif kind == "nan_timestamp":
        ts[k] = math.nan
    elif kind == "zero_quaternion":
        row[3:] = 0.0
    else:
        row[3:] *= 10.0
    return frames, ts, tracks, k, stream, kind


def sequence_text(frames, ts, tracks):
    """The sequence file of the arrays, every float as repr writes it."""
    lines = [",".join(SEQUENCE_COLUMNS)]
    for i, frame in enumerate(frames):
        fields = [str(frame), repr(float(ts[i]))]
        for name in ("gt", "vio", "apr"):
            fields += [repr(v) for v in tracks[name][i].tolist()]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("value", [COORD_LIMIT, 1e155, 1.7e308, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("axis", range(3))
def test_pose_refuses_the_bound(axis, value):
    row = [1.0, -2.0, 3.0, 1.0, 0.0, 0.0, 0.0]
    row[axis] = value
    refused = f"{'xyz'[axis]} must be finite and below 1e+150 m in magnitude, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        Pose(*row)
    row[axis] = math.copysign(BELOW, value)
    assert getattr(Pose(*row), "xyz"[axis]) == row[axis]


class TestRefusedRows:
    @settings(max_examples=200, deadline=None)
    @given(refused_cases())
    def test_constructors_name_the_frame(self, case):
        frames, ts, tracks, k, stream, kind = case
        with pytest.raises(ValueError, match=f"^frame {frames[k]}: "):
            Recording(frames, ts, tracks["gt"], tracks["vio"], tracks["apr"])
        if kind != "nan_timestamp":
            with pytest.raises(ValueError, match=f"^frame {k}: "):
                PoseTrack(tracks[stream])
        if kind == "nan_timestamp":
            # A list of samples meets the timestamp rule through
            # Recording.of; the Pose constructor keeps the others.
            poses = {name: [Pose(*r) for r in t.tolist()] for name, t in tracks.items()}
            samples = [
                PoseSample(f, t, gt=g, vio=v, apr=a)
                for f, t, g, v, a in zip(frames, ts.tolist(), poses["gt"], poses["vio"], poses["apr"])
            ]
            with pytest.raises(ValueError, match=f"^frame {frames[k]}: "):
                run_sequence(samples, FusionConfig())

    @settings(max_examples=100, deadline=None)
    @given(refused_cases())
    def test_parser_names_the_line(self, case):
        frames, ts, tracks, k, _, _ = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seq.csv"
            path.write_text(sequence_text(frames, ts, tracks), encoding="utf-8")
            with pytest.raises(SequenceFormatError) as info:
                parse_sequence(path)
            assert info.value.line == k + 2
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["--input", str(path), "--out", str(Path(tmp) / "out")])
        assert code == 1
        assert err.getvalue().startswith(f"posefuse: error: line {k + 2}: ")
