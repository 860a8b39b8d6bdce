"""Streaming fusion of an absolute-pose stream with relative odometry.

The absolute stream (apr) is drift-free but individual estimates can be
wildly wrong.  The odometry stream (vio) is locally precise but drifts
and lives in its own coordinate frame.  The fuser walks the sequence
through two alternating stages:

* Alignment.  Hunt for n_pairs consecutive frame pairs whose apr and vio
  motion magnitudes agree within (d_th, o_th).  Agreement between the
  two independent streams vouches for the absolute estimates, so the
  n_pairs + 1 frames involved are emitted as keyframes and their
  averaged apr / vio poses become the reference pair bridging the vio
  frame into world coordinates.
* Optimization.  For the next t_opt frames, motion relative to the
  reference is checked the same way.  Frames that agree keep their apr
  pose (reliable); the rest are replaced by the vio pose pushed through
  the reference transform (optimized).  Then alignment starts over,
  which caps how much vio drift the reference transform can accumulate.

While alignment is searching, every frame still emits a provisional
output so the stream stays gap-free: tracked (vio through the previous
reference) once a reference exists, pending (raw apr) before the first
one.  When a window completes, its frames are re-emitted as keyframes;
run_sequence keeps the last label per frame.

step is the streaming form, one frame of Pose objects at a time.
run_sequence fuses a whole Recording on its arrays and returns a
FusedTrack: label codes and the fused (N, 7) track, which build
FusionOutput objects only when indexed or iterated, a block at a time.
Both form their references in the one stacked kernel, _references.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import (
    Pose,
    _FrameSequence,
    _frozen,
    _hamilton,
    _motions,
    _normalize,
    _normalize_rows,
    _norms,
    _pose,
    _poses,
    _rotate,
    _top_quaternions,
    apply_rigid,
    odometry,
    track_array,
)
from .io import PoseSample, Recording


@dataclass(frozen=True)
class FusionConfig:
    """Thresholds and stage lengths.  The defaults are the operating
    point used throughout: 0.4 m / 4 deg gates, windows of 2 pairs,
    8-frame optimization periods."""

    d_th: float = 0.4
    o_th: float = 4.0
    n_pairs: int = 2
    t_opt: int = 8

    def __post_init__(self) -> None:
        if not self.d_th > 0.0:
            raise ValueError("d_th must be positive")
        if not self.o_th > 0.0:
            raise ValueError("o_th must be positive")
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if self.t_opt < 1:
            raise ValueError("t_opt must be >= 1")


class Stage(enum.Enum):
    ALIGNING = "aligning"
    OPTIMIZING = "optimizing"


class Label(enum.Enum):
    """Provenance of an output pose.

    KEYFRAME  apr pose that anchored a reference (alignment window member)
    RELIABLE  apr pose that agreed with the reference during optimization
    OPTIMIZED vio pose mapped through the reference transform
    TRACKED   provisional vio-through-previous-reference during alignment
    PENDING   provisional raw apr before any reference exists
    """

    KEYFRAME = "keyframe"
    RELIABLE = "reliable"
    OPTIMIZED = "optimized"
    TRACKED = "tracked"
    PENDING = "pending"


# The members step reads, bound once: on Python 3.11 a read such as
# Label.TRACKED goes through EnumType.__getattr__, ~100 ns, and every
# frame needs two.  _LABELS is also the table the batch pass's label
# codes index, which the CLI's reports read too.
_ALIGNING, _OPTIMIZING = Stage
_LABELS = tuple(Label)
_KEYFRAME_LABEL, _RELIABLE_LABEL, _OPTIMIZED_LABEL, _TRACKED_LABEL, _PENDING_LABEL = _LABELS


@dataclass(frozen=True)
class ReferencePair:
    """Averaged anchor poses of one alignment window, index-aligned
    between the two streams.  The vio-to-world map they define is formed
    once, on first use, and reused for every frame mapped through this
    reference; its formula lives in _reference_map."""

    apr_ref: Pose
    vio_ref: Pose

    @cached_property
    def _map(self) -> tuple[tuple[float, float, float], tuple[float, float, float, float]]:
        """_reference_map's (t, q_g) floats of the pair."""
        return _reference_map(*track_array([self.apr_ref, self.vio_ref]).tolist())


@dataclass(frozen=True)
class FusionOutput:
    # Slots by hand, as Pose declares them, so that setting a name that
    # is not a field raises FrozenInstanceError.
    __slots__ = ("frame_index", "pose", "label")

    frame_index: int
    pose: Pose
    label: Label

    def __init__(self, frame_index: int, pose: Pose, label: Label) -> None:
        # step and FusedTrack build one or more per frame; storing
        # through the slot descriptors skips the frozen __setattr__.
        _out_frame(self, frame_index)
        _out_pose(self, pose)
        _out_label(self, label)

    def __reduce__(self):
        # The frozen __setattr__ refuses the default unpickling.
        return FusionOutput, (self.frame_index, self.pose, self.label)


_out_frame, _out_pose, _out_label = (
    FusionOutput.frame_index.__set__, FusionOutput.pose.__set__, FusionOutput.label.__set__,
)


@dataclass
class FusionState:
    """Mutable per-sequence state.  Single-owner: feed frames strictly in
    order and never share a state across sequences."""

    stage: Stage = Stage.ALIGNING
    window: list[tuple[int, Pose, Pose]] = field(default_factory=list)
    reference: Optional[ReferencePair] = None
    opt_count: int = 0
    frame_index: int = 0


def relative_pose_check(u_apr: tuple, u_vio: tuple, cfg: FusionConfig) -> bool | np.ndarray:
    """True when the two (distance, angle) pairs agree within the
    thresholds.  Boundary values pass.  Agreement of independent streams
    is evidence the absolute estimates are good, with one known blind
    spot: a shared offset on both apr poses cancels in the comparison.
    Given odometry's floats it returns a bool, given _motions of many
    pairs one bool per pair."""
    (da, aa), (dv, av) = u_apr, u_vio
    return (abs(da - dv) <= cfg.d_th) & (abs(aa - av) <= cfg.o_th)


# The median iteration's stopping rule, read by _iterate_medians at call time.
_MEDIAN_TOL = 1e-9
_MEDIAN_MAX_ITER = 100


def compute_reference(aprs: Sequence[Pose], vios: Sequence[Pose]) -> ReferencePair:
    """Collapse an alignment window into its reference pair: geometric
    median of positions, eigenvector average of orientations, per stream.
    The two streams' windows are stacked and formed in one _references
    call, as run_sequence forms all of its windows."""
    if len(aprs) != len(vios):
        raise ValueError(
            f"window streams differ in length: {len(aprs)} apr vs {len(vios)} vio"
        )
    n = len(aprs)
    if n == 0:
        raise ValueError("compute_reference needs a non-empty window")
    return ReferencePair(*_poses(_references(track_array([*aprs, *vios]), np.array([0, n]), n)))


def _reference_map(apr, vio, normalize=_normalize):
    """(t, q_g) of the vio-to-world map of a reference pair, the one place
    its formula lives: G * vio_ref = apr_ref for camera-to-world poses, so
    q_g = q_apr_ref * q_vio_ref^-1 and t = p_apr_ref - R(q_g) p_vio_ref.
    apr and vio are track rows of floats, or of columns (refs.T) with a
    normalize for columns, 10x faster than a map over the rows (0.13
    against 1.3 ms at 448 rows)."""
    vx, vy, vz, vw, ux, uy, uz = vio
    q_g = normalize(_hamilton(apr[3:], normalize((vw, -ux, -uy, -uz))))
    rx, ry, rz = _rotate(q_g, (vx, vy, vz))
    return (apr[0] - rx, apr[1] - ry, apr[2] - rz), q_g


def optimize_pose(p_vio: Pose, ref: ReferencePair) -> Pose:
    """Re-express a vio pose in world coordinates through the reference
    pair, applying the map the pair forms once (ReferencePair._map).
    At the reference itself this returns apr_ref, and being rigid it
    preserves relative distances and angles of the vio stream.  A vio
    stream that is any rigid transform of the world trajectory maps back
    onto it.  Its coordinates are not held to COORD_LIMIT: near the
    bound one can reach (1 + 2 sqrt 3) * COORD_LIMIT, which Pose,
    PoseTrack and Recording refuse if the pose is fed back in."""
    # apply_rigid's float form: the position rotated by q_g, then shifted
    # by t; the orientation q_g * o, normalized.
    (tx, ty, tz), q_g = ref._map
    x, y, z = _rotate(q_g, (p_vio.x, p_vio.y, p_vio.z))
    w, qx, qy, qz = _normalize(_hamilton(q_g, (p_vio.qw, p_vio.qx, p_vio.qy, p_vio.qz)))
    return _pose(x + tx, y + ty, z + tz, w, qx, qy, qz)


def step(
    state: FusionState, apr: Pose, vio: Pose, cfg: FusionConfig
) -> tuple[FusionState, list[FusionOutput]]:
    """Advance the state machine by one frame.

    Mutates and returns the state.  The output list holds the provisional
    output for this frame and, when an alignment window just completed,
    keyframe re-emissions for the window frames (those supersede earlier
    provisional labels of the same frames).  A Pose from the constructor
    or from checked rows keeps the input rules, within which no motion,
    reference or mapped pose overflows, so it raises nothing.
    """
    outputs: list[FusionOutput] = []
    idx = state.frame_index
    state.frame_index = idx + 1
    if state.stage is _OPTIMIZING:
        assert state.reference is not None
        u_apr = odometry(apr, state.reference.apr_ref)
        u_vio = odometry(vio, state.reference.vio_ref)
        if relative_pose_check(u_apr, u_vio, cfg):
            outputs.append(FusionOutput(idx, apr, _RELIABLE_LABEL))
        else:
            outputs.append(
                FusionOutput(idx, optimize_pose(vio, state.reference), _OPTIMIZED_LABEL)
            )
        state.opt_count += 1
        if state.opt_count >= cfg.t_opt:
            state.stage = _ALIGNING
            state.window.clear()
            state.opt_count = 0
        return state, outputs

    # Alignment: provisional output first, so every frame emits something.
    if state.reference is not None:
        outputs.append(
            FusionOutput(idx, optimize_pose(vio, state.reference), _TRACKED_LABEL)
        )
    else:
        outputs.append(FusionOutput(idx, apr, _PENDING_LABEL))

    window = state.window
    if window:
        _, apr_prev, vio_prev = window[-1]
        pair_ok = relative_pose_check(
            odometry(apr_prev, apr), odometry(vio_prev, vio), cfg
        )
        if not pair_ok:
            # Restart the window at the newest frame, it may open the
            # next consistent run.
            window.clear()
        elif len(window) == cfg.n_pairs:
            full = [*window, (idx, apr, vio)]
            state.reference = compute_reference([w[1] for w in full], [w[2] for w in full])
            for kf_idx, kf_apr, _ in full:
                outputs.append(FusionOutput(kf_idx, kf_apr, _KEYFRAME_LABEL))
            window.clear()
            state.stage = _OPTIMIZING
            state.opt_count = 0
            return state, outputs
    window.append((idx, apr, vio))
    return state, outputs


class FusedTrack(_FrameSequence):
    """The fused output of a sequence in array form: the caller's frame
    indices, one label code per frame (an index into tuple(Label)) and
    the (N, 7) fused track, rows x, y, z, qw, qx, qy, qz.  Keyframe,
    reliable and pending rows are the apr rows bit for bit, so their
    errors against gt are the raw apr errors.

    It is a read-only sequence of FusionOutput, one per frame; indexing
    builds one, and iterating builds them a block of _WRITE_ROWS frames
    at a time."""

    __slots__ = ("frames", "labels", "track")

    def __init__(self, frames, labels, track) -> None:
        self.frames = tuple(frames)
        n = len(self.frames)
        self.labels = _frozen(labels, (n,), dtype=np.intp)
        self.track = _frozen(track, (n, 7))

    def _elements(self) -> list[FusionOutput]:
        labels = map(_LABELS.__getitem__, self.labels.tolist())
        return list(map(FusionOutput, self.frames, _poses(self.track), labels))


def run_sequence(samples: Sequence[PoseSample], cfg: FusionConfig) -> FusedTrack:
    """Run the full pipeline over an in-order sequence, a Recording or
    any other sequence of samples.

    Returns exactly one output per input frame, in input order, with the
    final label per frame (keyframe re-emissions supersede provisional
    tracked/pending outputs).  Raises ValueError, naming the frame, at a
    sample without vio or apr, at a timestamp not above its predecessor,
    and, through Recording.of, at a row that breaks Recording's checks,
    within which no value it computes overflows.

    The result equals feeding the frames to step one by one, bit for
    bit, but the sequence is fused in one pass over its arrays.  The
    stage changes only on the consecutive-pair check and after t_opt
    optimization frames, so one vectorized pair check and a walk over
    its results place every window and period.  Then the references of
    all completed windows, of both streams, are formed in one stacked
    pass, the _references call that compute_reference makes for one
    window.
    All references' vio maps come from one _reference_map call on columns,
    and each one's optimization checks and map run as array operations
    over the frames it governs.
    """
    rec = Recording.of(samples)
    _check_inputs(rec)
    apr, vio = rec.apr, rec.vio
    pair_ok = relative_pose_check(_motions(apr[:-1], apr[1:]), _motions(vio[:-1], vio[1:]), cfg)
    windows = _windows(pair_ok.tolist(), cfg)
    labels = np.full(len(rec), _PENDING)
    track = apr.copy()
    if windows:
        size = cfg.n_pairs + 1
        frames = np.array([a for a, _ in windows])[:, None] + np.arange(size)
        # One stack holds the windows of both streams, apr's then vio's.
        both = np.concatenate((apr[frames], vio[frames])).reshape(-1, 7)
        refs = _references(both, np.arange(0, len(both), size), size)
        _label_and_map(*np.split(refs, 2), windows, apr, vio, labels, track, cfg)
    return FusedTrack(rec.frames, labels, track)


def _check_inputs(rec: Recording) -> None:
    """Raise at the first frame that lacks vio, lacks apr or does not
    follow its predecessor in time, naming the first of these it
    breaks."""
    no_vio, no_apr = ~rec.has("vio"), ~rec.has("apr")
    ts = rec.timestamps
    late = np.zeros(len(rec), dtype=bool)
    late[1:] = ts[1:] <= ts[:-1]
    bad = np.flatnonzero(no_vio | no_apr | late)
    if not bad.size:
        return
    i = bad[0]
    frame = rec.frames[i]
    if no_vio[i]:
        raise ValueError(f"frame {frame}: vio pose missing, fusion needs it")
    if no_apr[i]:
        raise ValueError(f"frame {frame}: apr pose missing, fusion needs it")
    raise ValueError(f"frame {frame}: timestamps must be strictly increasing")


# Label codes of the batch pass: index into _LABELS.
_KEYFRAME, _RELIABLE, _OPTIMIZED, _TRACKED, _PENDING = range(len(_LABELS))


def _windows(pair_ok: list[bool], cfg: FusionConfig) -> list[tuple[int, int]]:
    """First and last frame of every alignment window that completes,
    given pair_ok[i - 1], the check of frame i against frame i - 1.  The
    frame after a window's optimization period opens the next window
    without a check; a failed check restarts the window at its frame."""
    windows = []
    start, i = 0, 1
    while i <= len(pair_ok):
        if not pair_ok[i - 1]:
            start = i
        elif i - start == cfg.n_pairs:
            windows.append((start, i))
            start = i = i + cfg.t_opt + 1
        i += 1
    return windows


# Kuhn's test holds size * size pairwise entries per window, so windows
# are stacked in blocks of at most this many entries: each (..., 3) float
# temporary of a block stays near 6 MB, whatever the window size and the
# sequence length.
_PAIRS_PER_BLOCK = 1 << 18


def _references(track: np.ndarray, firsts: np.ndarray, size: int) -> np.ndarray:
    """The (W, 7) reference rows of a track: row w is the median
    position and averaged orientation of frames firsts[w] to
    firsts[w] + size - 1, with a normalized, sign-canonical quaternion.
    Each window's arithmetic is its own, so neither the other windows
    (of either stream) nor the blocks change a bit of it."""
    rows = max(1, _PAIRS_PER_BLOCK // (size * size))
    blocks = []
    for start in range(0, len(firsts), rows):
        stack = track[firsts[start : start + rows, None] + np.arange(size)]
        blocks.append(
            np.column_stack((_medians(stack[:, :, :3]), _average_quaternions(stack[:, :, 3:])))
        )
    return np.concatenate(blocks)


def _medians(pts: np.ndarray) -> np.ndarray:
    """The geometric median, the minimizer of the summed Euclidean
    distance, of every window of a (W, n, 3) stack of points, n >= 1.

    Kuhn's optimality test (Kuhn 1973; Vardi & Zhang 2000) comes first:
    input point p_k is the median, and is returned, when the unit vectors
    from it to every other distinct input sum to a vector shorter than
    p_k's multiplicity by more than a 1e-9 relative margin.  A window of
    one point is its own vertex.  Ties (two points, collinear sets) go on
    to _iterate_medians: reweighted averaging from the centroid, with a
    Newton candidate and over-relaxation that are kept where they lower
    the objective, since the reweighted step alone crawls when one
    cluster dominates the weights.  It stops when the iterate moves less
    than _MEDIAN_TOL, after _MEDIAN_MAX_ITER rounds, or when it lands
    within _MEDIAN_TOL of an input point, and the result is the best of
    the final iterate and the input points."""
    # Kuhn's test.  diff[w, k, j] holds p_j - p_k of window w; coincident
    # points add a zero vector to the pull and one each to the multiplicity.
    diff = pts[:, None, :, :] - pts[:, :, None, :]
    dist = _norms(diff)
    same = dist == 0.0
    pull = _norms((diff / np.where(same, 1.0, dist)[:, :, :, None]).sum(axis=2))
    vertex = pull < same.sum(axis=2) * (1.0 - 1e-9)
    out = pts[np.arange(len(pts)), vertex.argmax(axis=1)]
    rest = np.flatnonzero(~vertex.any(axis=1))
    if rest.size:
        out[rest] = _iterate_medians(pts[rest], dist[rest])
    return out


def _objectives(pts: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Summed distance from at[w] to the points of window w."""
    return np.add.reduce(_norms(pts - at[:, None, :]), axis=1)


def _iterate_medians(pts: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The iteration of _medians, then its best-of-inputs pass,
    for windows that Kuhn's test does not settle.  dist holds the
    pairwise distances Kuhn's test computed.  The live windows are
    compacted only in a round where some of them finish."""
    eye, y = np.eye(3), pts.mean(axis=1)
    live, p, y_live = np.arange(len(pts)), pts, y.copy()
    for _ in range(_MEDIAN_MAX_ITER):
        diff = p - y_live[:, None, :]
        d = _norms(diff)
        near = d < _MEDIAN_TOL
        if near.any():
            landed = near.any(axis=1)
            y[live[landed]] = p[landed, near[landed].argmax(axis=1)]
            keep = ~landed
            live, p, y_live, diff, d = live[keep], p[keep], y_live[keep], diff[keep], d[keep]
            if not live.size:
                break
        w = 1.0 / d
        w_sum = np.add.reduce(w, axis=1)
        y_next = np.add.reduce(p * w[:, :, None], axis=1) / w_sum[:, None]
        f_next = _objectives(p, y_next)
        units = diff * w[:, :, None]
        grad = -np.add.reduce(units, axis=1)
        hess = eye * w_sum[:, None, None] - np.matmul((units * w[:, :, None]).transpose(0, 2, 1), units)
        newton = y_live - _newton_steps(hess, grad)
        # Where the solve failed the candidate is y_next, which it cannot beat.
        newton = np.where(np.isfinite(newton).all(axis=1)[:, None], newton, y_next)
        f_newton = _objectives(p, newton)
        better = f_newton < f_next
        y_next, f_next = np.where(better[:, None], newton, y_next), np.where(better, f_newton, f_next)
        # Over-relax each window while doubling its displacement still
        # lowers its objective; the windows still growing share one scale.
        delta = y_next - y_live
        scale, grow = 2.0, np.arange(len(live))
        while grow.size:
            cand = y_live[grow] + scale * delta[grow]
            f_cand = _objectives(p[grow], cand)
            better = f_cand < f_next[grow]
            grow = grow[better]
            y_next[grow], f_next[grow] = cand[better], f_cand[better]
            scale *= 2.0
        step = _norms(y_next - y_live)
        y_live = y_next
        done = step < _MEDIAN_TOL
        if done.any():
            y[live[done]] = y_live[done]
            keep = ~done
            live, p, y_live = live[keep], p[keep], y_live[keep]
            if not live.size:
                break
    y[live] = y_live
    # The best of the final iterate and the input points, ties kept by
    # the earlier candidate.  Row k of dist sums to the objective at p_k.
    best = _objectives(pts, y)
    at_inputs = np.add.reduce(dist, axis=2)
    k = at_inputs.argmin(axis=1)
    swap = np.flatnonzero(at_inputs[np.arange(len(pts)), k] < best)
    y[swap] = pts[swap, k[swap]]
    return y


def _newton_steps(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """hess^-1 grad for each window, NaN where the solve fails.  One
    singular Hessian fails the stacked solve, and then each window is
    solved on its own."""
    try:
        return np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full_like(grad, np.nan)
        for i in range(len(grad)):
            try:
                out[i] = np.linalg.solve(hess[i], grad[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _average_quaternions(quats: np.ndarray) -> np.ndarray:
    """The rotation average of every window of a (W, n, 4) stack, n >= 1:
    the largest eigenvector of the accumulated outer-product matrix, as
    normalized, sign-canonical rows.  Negating a quaternion leaves every
    product of two of its components unchanged, bit for bit, so the sum
    of outer products is already blind to the cover of each input, and
    either cover gives the same answer without sign alignment."""
    acc = np.zeros((len(quats), 4, 4))
    for k in range(quats.shape[1]):
        acc += quats[:, k, :, None] * quats[:, k, None, :]
    return _top_quaternions(acc)


def _label_and_map(
    apr_ref: np.ndarray, vio_ref: np.ndarray, windows: list[tuple[int, int]],
    apr: np.ndarray, vio: np.ndarray, labels: np.ndarray, track: np.ndarray, cfg: FusionConfig,
) -> None:
    """Fill in the label of every frame from the first reference on, and
    write the vio poses of the optimized and tracked frames, mapped to
    the world, into track.  Reference r, rows r of apr_ref and vio_ref,
    governs the t_opt frames of its optimization period, then tracks the
    next alignment search up to the frame where window r + 1 completes,
    whose frames become keyframes."""
    n, first = len(apr), windows[0][1] + 1
    lasts = np.array([last for _, last in windows])
    ref_of = np.repeat(np.arange(len(windows)), np.diff(np.append(lasts, n - 1)))
    in_period = np.arange(first, n) - (lasts + 1)[ref_of] < cfg.t_opt
    period_ref = ref_of[in_period]
    u_apr = _motions(apr[first:][in_period], apr_ref[period_ref])
    u_vio = _motions(vio[first:][in_period], vio_ref[period_ref])
    reliable = relative_pose_check(u_apr, u_vio, cfg)
    governed = labels[first:]
    governed[:] = _TRACKED
    governed[in_period] = np.where(reliable, _RELIABLE, _OPTIMIZED)
    for a, b in windows:
        labels[a : b + 1] = _KEYFRAME
    rows = np.flatnonzero((governed == _OPTIMIZED) | (governed == _TRACKED))
    t, q_g = _reference_map(apr_ref.T, vio_ref.T, lambda q: _normalize_rows(np.column_stack(q)).T)
    ref = ref_of[rows]
    track[first + rows] = apply_rigid(q_g.T[ref], np.column_stack(t)[ref], vio[first + rows])

