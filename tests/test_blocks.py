"""Block-at-a-time writing and iteration.

The sequence writer, the frames report writer and the iteration of
Recording, PoseTrack and FusedTrack work _WRITE_ROWS rows at a time.
These tests check that their memory stays bounded by the block, not by
the sequence, and that the bytes and values across block edges are the
ones the whole-sequence forms gave.
"""

import hashlib
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from posefuse import cli
from posefuse.cli import main
from posefuse.fusion import FusedTrack, FusionConfig, run_sequence
from posefuse.geometry import _WRITE_ROWS, PoseTrack, _normalize_rows, track_array
from posefuse.io import Recording, write_sequence
from posefuse.synth import AprNoiseModel, TrajectoryConfig, VioNoiseModel, generate_gt, simulate_apr, simulate_vio

# Long enough for 19 whole blocks: memory that grows with the sequence
# shows as a peak many blocks' worth above the bound.
FRAMES = 20_000


def peak_bytes(fn) -> int:
    """The tracemalloc peak of one call of fn, after a first call has
    done any lazy imports and set-up."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_track(rng, n):
    track = rng.normal(size=(n, 7))
    track[:, :3] *= 10.0
    _normalize_rows(track[:, 3:])
    return track


@pytest.fixture(scope="module")
def long_rec():
    rng = np.random.default_rng(32)
    return Recording(range(FRAMES), np.arange(FRAMES) * 0.1, *(random_track(rng, FRAMES) for _ in range(3)))


class TestBoundedMemory:
    """Each bound is a per-row allowance times _WRITE_ROWS: a whole block
    of objects or text fits in it, the sequence does not.  The readings
    in the comments are at FRAMES frames, before the change that made
    these forms work a block at a time and after it."""

    def test_spans_many_blocks(self):
        assert FRAMES >= 8 * _WRITE_ROWS

    def test_write_sequence(self, long_rec, tmp_path):
        # A row of 22 floats holds them as Python floats and as ~330
        # characters of text, twice while the block's lines are joined
        # and once more encoded.  Whole sequence 21.2 MB, a block 1.4 MB.
        peak = peak_bytes(lambda: write_sequence(tmp_path / "s.csv", long_rec))
        assert peak < 2048 * _WRITE_ROWS, peak

    def test_write_frames_csv(self, long_rec, tmp_path):
        # A row of 10 floats, its label and ~200 characters of text; the
        # error columns of the whole sequence are two float64 arrays,
        # 16 bytes a frame.  Whole sequence 13.7 MB, a block 1.1 MB.
        rng = np.random.default_rng(1)
        has_gt = np.arange(FRAMES) % 3 != 0
        labels = np.array(["keyframe", "tracked"])[np.arange(FRAMES) % 2]
        pos_err, ori_err = rng.random((2, int(has_gt.sum())))
        args = (long_rec.frames, long_rec.timestamps, long_rec.apr, labels, has_gt, pos_err, ori_err)
        peak = peak_bytes(lambda: cli._write_frames_csv(tmp_path / "f.csv", *args))
        assert peak < 1536 * _WRITE_ROWS + 16 * FRAMES, peak

    def test_first_sample(self, long_rec):
        # The first block's samples: three Poses, a PoseSample and the
        # lists that hold them, ~1 KB a row.  Whole sequence 19.6 MB, a
        # block 1.0 MB.
        peak = peak_bytes(lambda: next(iter(long_rec)))
        assert peak < 2048 * _WRITE_ROWS, peak

    def test_pose_track(self, long_rec):
        # A Pose and its seven floats, ~400 bytes a row.  Whole sequence
        # 7.7 MB, a block 0.4 MB.
        track = PoseTrack(long_rec.vio)
        peak = peak_bytes(lambda: deque(track, maxlen=0))
        assert peak < 1024 * _WRITE_ROWS, peak

    def test_fused_track(self, long_rec):
        # A FusionOutput, its Pose and floats, ~400 bytes a row.  Whole
        # sequence 7.8 MB, a block 0.4 MB.
        labels = np.arange(FRAMES) % 5
        fused = FusedTrack(long_rec.frames, labels, long_rec.apr)
        peak = peak_bytes(lambda: deque(fused, maxlen=0))
        assert peak < 1024 * _WRITE_ROWS, peak


# A synthetic sequence two blocks and 37 rows long, with gt absent on
# every fifth row and apr absent on a run across the first block edge.
PIN_ROWS = 2 * 1024 + 37
GT_STRIDE = 5
APR_GAP = slice(1000, 1060)

# Recorded with the whole-sequence forms of the writers and iterations:
# sha256 of the bytes written, and of the float.hex lines of the
# elements listed.
PINS = {
    "sequence.csv": "e040a90bb060c3f890238d9003d5f3baaf5cb1ee3a3e9d7baf8e5cc0051d9458",
    "frames.csv": "900986dd0d871453a304f69be7191dbe9b757203522f946e448ee67809cfd0d8",
    "list(rec)": "fe087c25fab50fdca090ad6f97edc87c07333f0fd9a6c19d8deb8a62a028ed56",
    "list(track)": "849e5107ec5f977137c805c7f88989eaab5d74f65312a570e7390ae76823e4de",
    "list(fused)": "1813d6ff4decd8ecd62205fa7a71019c1375702cf99fb137b9e5e4d069a5fa21",
}


def pose_hex(pose) -> str:
    if pose is None:
        return "-"
    return " ".join(float.hex(v) for v in (pose.x, pose.y, pose.z, pose.qw, pose.qx, pose.qy, pose.qz))


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update((line + "\n").encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """The digests of PINS, from the current code."""
    out = tmp_path_factory.mktemp("pins")
    samples = generate_gt(TrajectoryConfig(n_frames=PIN_ROWS, seed=3))
    gt = PoseTrack(track_array([s.gt for s in samples]))
    vio = simulate_vio(gt, VioNoiseModel(), 1_000_006)
    apr = simulate_apr(gt, AprNoiseModel(), 2_000_006)
    frames, ts = [s.frame_index for s in samples], [s.timestamp for s in samples]
    gt_rows, apr_rows = gt.track.copy(), apr.track.copy()
    gt_rows[::GT_STRIDE] = math.nan
    apr_rows[APR_GAP] = math.nan
    rec = Recording(frames, ts, gt_rows, vio.track, apr_rows)
    # Fusion needs apr on every frame; gt stays partial.
    partial_gt = Recording(frames, ts, gt_rows, vio.track, apr.track)

    write_sequence(out / "sequence.csv", rec)
    write_sequence(out / "partial.csv", partial_gt)
    assert main(["--input", str(out / "partial.csv"), "--formats", "csv", "--out", str(out / "reports")]) == 0
    fused = run_sequence(partial_gt, FusionConfig())
    return {
        "sequence.csv": hashlib.sha256((out / "sequence.csv").read_bytes()).hexdigest(),
        "frames.csv": hashlib.sha256((out / "reports" / "partial.frames.csv").read_bytes()).hexdigest(),
        "list(rec)": sha256_lines(
            f"{s.frame_index} {s.timestamp.hex()} {pose_hex(s.gt)} {pose_hex(s.vio)} {pose_hex(s.apr)}"
            for s in list(rec)
        ),
        "list(track)": sha256_lines(map(pose_hex, list(vio))),
        "list(fused)": sha256_lines(f"{o.frame_index} {o.label.value} {pose_hex(o.pose)}" for o in list(fused)),
    }


class TestAcrossBlockEdges:
    def test_rows_cross_two_block_edges(self):
        assert 2 * _WRITE_ROWS < PIN_ROWS and APR_GAP.start < _WRITE_ROWS < APR_GAP.stop

    @pytest.mark.parametrize("name", PINS)
    def test_matches_whole_sequence_forms(self, pinned, name):
        assert pinned[name] == PINS[name]
