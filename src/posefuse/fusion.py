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
FusionOutput objects only when indexed or iterated.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import (
    Odometry,
    Pose,
    RigidTransform,
    UnitQuaternion,
    Vec3,
    _angles_deg,
    _apply_rigid,
    _distances,
    _FrameSequence,
    _frozen,
    _normalize_rows,
    _poses,
    compose,
    inverse,
    odometry,
    rotate,
)
from .io import PoseSample, Recording
from .metrics import track_array


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


@dataclass(frozen=True)
class ReferencePair:
    """Averaged anchor poses of one alignment window, index-aligned
    between the two streams.  The vio-to-world map they define is built
    once, on first use, and reused for every frame mapped through this
    reference; its formula lives in reference_transform."""

    apr_ref: Pose
    vio_ref: Pose

    @cached_property
    def vio_to_world(self) -> RigidTransform:
        return reference_transform(self)


@dataclass(frozen=True, slots=True)
class FusionOutput:
    frame_index: int
    pose: Pose
    label: Label


@dataclass
class FusionState:
    """Mutable per-sequence state.  Single-owner: feed frames strictly in
    order and never share a state across sequences."""

    stage: Stage = Stage.ALIGNING
    window: list[tuple[int, Pose, Pose]] = field(default_factory=list)
    reference: Optional[ReferencePair] = None
    opt_count: int = 0
    frame_index: int = 0


def relative_pose_check(u_apr: Odometry, u_vio: Odometry, cfg: FusionConfig) -> bool:
    """True when the two motion magnitudes agree within the thresholds.
    Boundary values pass.  Agreement of independent streams is evidence
    the absolute estimates are good, with one known blind spot: a shared
    offset on both apr poses cancels in the comparison."""
    return (
        abs(u_apr.dist - u_vio.dist) <= cfg.d_th
        and abs(u_apr.angle - u_vio.angle) <= cfg.o_th
    )


# weiszfeld_median's default stopping rule, which the stacked medians of
# run_sequence also apply; one definition keeps the two forms equal.
_MEDIAN_TOL = 1e-9
_MEDIAN_MAX_ITER = 100


def weiszfeld_median(
    points: Sequence[Vec3], tol: float = _MEDIAN_TOL, max_iter: int = _MEDIAN_MAX_ITER
) -> Vec3:
    """Geometric median, the minimizer of the summed Euclidean distance.

    The median often sits exactly on an input point, and iterating
    toward one crawls.  Kuhn's optimality test settles that case before
    any iteration: input point p_k is the median when the unit vectors
    from it to every other distinct input sum to a vector shorter than
    p_k's multiplicity, and then p_k itself is returned.  A pull that
    equals the multiplicity (two points, collinear sets) is a tie and
    falls through to the iteration, as does a pull within a 1e-9
    relative rounding margin of it.

    Otherwise: iteratively reweighted averaging from the centroid, with
    a Newton candidate each round that is kept only when it lowers the
    objective.  The reweighted step alone crawls when one cluster
    dominates the weights; the polish restores fast convergence without
    giving up its monotone descent.  tol and max_iter bound only this
    iterative path: it stops when the iterate moves less than tol, after
    max_iter rounds, or when it lands within tol of an input point, which
    guards the 1/distance weights.  The result is then the best of the
    final iterate and the input points, so a landing on a tied set's
    non-optimal input point does not stick.

    This is the scalar form of the median that run_sequence forms for
    all its windows at once; that stacked kernel must match it bit for
    bit.
    """
    if len(points) == 0:
        raise ValueError("weiszfeld_median needs at least one point")
    pts = np.array([[p.x, p.y, p.z] for p in points], dtype=float)
    if len(pts) == 1:
        return points[0]

    # Kuhn's test (Kuhn 1973; Vardi & Zhang 2000).  Row k of diff holds
    # p_j - p_k; coincident points contribute a zero vector to the pull
    # and one each to the multiplicity.
    diff = pts[None, :, :] - pts[:, None, :]
    dist = np.linalg.norm(diff, axis=2)
    same = dist == 0.0
    pull = np.linalg.norm(
        (diff / np.where(same, 1.0, dist)[:, :, None]).sum(axis=1), axis=1
    )
    vertex = np.nonzero(pull < same.sum(axis=1) * (1.0 - 1e-9))[0]
    if vertex.size:
        return points[vertex[0]]

    def objective(at: np.ndarray) -> float:
        return float(np.linalg.norm(pts - at, axis=1).sum())

    y = pts.mean(axis=0)
    for _ in range(max_iter):
        diff = pts - y
        d = np.linalg.norm(diff, axis=1)
        hits = np.nonzero(d < tol)[0]
        if hits.size:
            y = pts[hits[0]]
            break
        w = 1.0 / d
        y_next = (pts * w[:, None]).sum(axis=0) / w.sum()
        f_next = objective(y_next)
        units = diff * w[:, None]
        grad = -units.sum(axis=0)
        hess = np.eye(3) * w.sum() - (units * w[:, None]).T @ units
        try:
            newton = y - np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            newton = None
        # Collinear inputs make the Hessian singular along the line and
        # the solve either fails or shoots far out; the objective test
        # rejects those candidates.
        if newton is not None and np.isfinite(newton).all():
            f_newton = objective(newton)
            if f_newton < f_next:
                y_next, f_next = newton, f_newton
        # Over-relax: double the displacement while that still improves
        # the objective.  The reweighted step alone contracts painfully
        # slowly when a tight cluster dominates the weights.
        delta = y_next - y
        scale = 2.0
        while True:
            cand = y + scale * delta
            f_cand = objective(cand)
            if not f_cand < f_next:
                break
            y_next, f_next = cand, f_cand
            scale *= 2.0
        step = np.linalg.norm(y_next - y)
        y = y_next
        if step < tol:
            break
    # Degenerate clusters leave a near-flat valley whose minimum hugs an
    # input point; the input points are always candidates.
    best = objective(y)
    for i in range(len(pts)):
        f = objective(pts[i])
        if f < best:
            best, y = f, pts[i]
    return Vec3.from_array(y)


def average_quaternions(quats: Sequence[UnitQuaternion]) -> UnitQuaternion:
    """Rotation average via the largest eigenvector of the accumulated
    outer-product matrix.  Inputs are sign-aligned to the first element
    beforehand, so either cover of each rotation gives the same answer.

    This is the scalar form of the average that run_sequence forms for
    all its windows at once; that stacked kernel must match it bit for
    bit.
    """
    if len(quats) == 0:
        raise ValueError("average_quaternions needs at least one quaternion")
    ref = quats[0].as_array()
    acc = np.zeros((4, 4))
    for q in quats:
        v = q.as_array()
        if float(v @ ref) < 0.0:
            v = -v
        acc += np.outer(v, v)
    _, vecs = np.linalg.eigh(acc)
    top = vecs[:, -1]  # eigh sorts eigenvalues ascending
    return UnitQuaternion(top[0], top[1], top[2], top[3])


def compute_reference(aprs: Sequence[Pose], vios: Sequence[Pose]) -> ReferencePair:
    """Collapse an alignment window into its reference pair: geometric
    median of positions, eigenvector average of orientations, per stream."""
    if len(aprs) != len(vios):
        raise ValueError(
            f"window streams differ in length: {len(aprs)} apr vs {len(vios)} vio"
        )
    if len(aprs) == 0:
        raise ValueError("compute_reference needs a non-empty window")

    def _avg(poses: Sequence[Pose]) -> Pose:
        return Pose(
            weiszfeld_median([p.position for p in poses]),
            average_quaternions([p.orientation for p in poses]),
        )

    return ReferencePair(apr_ref=_avg(aprs), vio_ref=_avg(vios))


def reference_transform(ref: ReferencePair) -> RigidTransform:
    """The vio-to-world map of a reference pair, the one place its
    formula lives.  Poses are camera-to-world, so the map is the rigid
    transform G with G * vio_ref = apr_ref: rotation
    q_g = apr_ref * inverse(vio_ref) and translation
    t = p_apr_ref - rotate(q_g, p_vio_ref)."""
    q_g = compose(ref.apr_ref.orientation, inverse(ref.vio_ref.orientation))
    return RigidTransform(q_g, ref.apr_ref.position - rotate(q_g, ref.vio_ref.position))


def optimize_pose(p_vio: Pose, ref: ReferencePair) -> Pose:
    """Re-express a vio pose in world coordinates through the reference
    pair, applying the map the pair builds once (see reference_transform).
    At the reference itself this returns apr_ref, and being rigid it
    preserves relative distances and angles of the vio stream.  A vio
    stream that is any rigid transform of the world trajectory maps back
    onto it."""
    return ref.vio_to_world.apply_pose(p_vio)


def step(
    state: FusionState, apr: Pose, vio: Pose, cfg: FusionConfig
) -> tuple[FusionState, list[FusionOutput]]:
    """Advance the state machine by one frame.

    Mutates and returns the state.  The output list holds the provisional
    output for this frame and, when an alignment window just completed,
    keyframe re-emissions for the window frames (those supersede earlier
    provisional labels of the same frames).
    """
    outputs: list[FusionOutput] = []
    idx = state.frame_index
    state.frame_index = idx + 1

    if state.stage is Stage.OPTIMIZING:
        assert state.reference is not None
        u_apr = odometry(apr, state.reference.apr_ref)
        u_vio = odometry(vio, state.reference.vio_ref)
        if relative_pose_check(u_apr, u_vio, cfg):
            outputs.append(FusionOutput(idx, apr, Label.RELIABLE))
        else:
            outputs.append(
                FusionOutput(idx, optimize_pose(vio, state.reference), Label.OPTIMIZED)
            )
        state.opt_count += 1
        if state.opt_count >= cfg.t_opt:
            state.stage = Stage.ALIGNING
            state.window.clear()
            state.opt_count = 0
        return state, outputs

    # Alignment: provisional output first, so every frame emits something.
    if state.reference is not None:
        outputs.append(
            FusionOutput(idx, optimize_pose(vio, state.reference), Label.TRACKED)
        )
    else:
        outputs.append(FusionOutput(idx, apr, Label.PENDING))

    state.window.append((idx, apr, vio))
    if len(state.window) >= 2:
        _, apr_prev, vio_prev = state.window[-2]
        pair_ok = relative_pose_check(
            odometry(apr_prev, apr), odometry(vio_prev, vio), cfg
        )
        if not pair_ok:
            # Restart the window at the newest frame, it may open the
            # next consistent run.
            del state.window[:-1]
        elif len(state.window) == cfg.n_pairs + 1:
            for kf_idx, kf_apr, _ in state.window:
                outputs.append(FusionOutput(kf_idx, kf_apr, Label.KEYFRAME))
            state.reference = compute_reference(
                [w[1] for w in state.window],
                [w[2] for w in state.window],
            )
            state.window.clear()
            state.stage = Stage.OPTIMIZING
            state.opt_count = 0
    return state, outputs


class FusedTrack(_FrameSequence):
    """The fused output of a sequence in array form: the caller's frame
    indices, one label code per frame (an index into tuple(Label)) and
    the (N, 7) fused track, rows x, y, z, qw, qx, qy, qz.

    It is a read-only sequence of FusionOutput, one per frame; indexing
    or iterating builds them."""

    __slots__ = ("frames", "labels", "track")

    def __init__(self, frames, labels, track) -> None:
        self.frames = tuple(frames)
        n = len(self.frames)
        self.labels = _frozen(labels, (n,), dtype=np.intp)
        self.track = _frozen(track, (n, 7))

    def __iter__(self) -> Iterator[FusionOutput]:
        labels = map(_LABELS.__getitem__, self.labels.tolist())
        return map(FusionOutput, self.frames, _poses(self.track), labels)


def run_sequence(samples: Sequence[PoseSample], cfg: FusionConfig) -> FusedTrack:
    """Run the full pipeline over an in-order sequence, a Recording or
    any other sequence of samples.

    Returns exactly one output per input frame, in input order, with the
    final label per frame (keyframe re-emissions supersede provisional
    tracked/pending outputs).  Requires vio and apr on every sample and
    strictly increasing timestamps.

    The result equals feeding the frames to step one by one, bit for
    bit, but the sequence is fused in one pass over its arrays.  The
    stage changes only on the consecutive-pair check and after t_opt
    optimization frames, so one vectorized pair check and a walk over
    its results place every window and period.  Then the references of
    all completed windows are formed in one stacked pass, each equal to
    what compute_reference gives for its window, and each reference's
    optimization checks and vio map run as array operations over the
    frames it governs.
    """
    rec = Recording.of(samples)
    _check_inputs(rec)
    apr, vio = rec.apr, rec.vio
    if not (
        (np.abs(apr[:, :3]) < _COORD_LIMIT).all() and (np.abs(vio[:, :3]) < _COORD_LIMIT).all()
    ):
        return _run_steps(rec, cfg)
    windows = _windows(_agree(apr[:-1], apr[1:], vio[:-1], vio[1:], cfg).tolist(), cfg)
    labels = np.full(len(rec), _PENDING)
    track = apr.copy()
    if windows:
        firsts = np.array([a for a, _ in windows])
        apr_ref = _references(apr, firsts, cfg.n_pairs + 1)
        vio_ref = _references(vio, firsts, cfg.n_pairs + 1)
        rows, mapped = _label_and_map(apr_ref, vio_ref, windows, apr, vio, labels, cfg)
        track[rows] = mapped
    return FusedTrack(rec.frames, labels, track)


def _check_inputs(rec: Recording) -> None:
    """Raise at the first frame that lacks vio, lacks apr or does not
    follow its predecessor in time, naming the first of these it
    breaks."""
    no_vio, no_apr = ~rec.has("vio"), ~rec.has("apr")
    # A NaN timestamp compares false, so it is not refused here.
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


# Below this magnitude every squared coordinate difference is finite, so
# no motion, reference or mapped position can overflow, and step never
# raises.  run_sequence feeds sequences with larger coordinates to step
# frame by frame, which raises where it meets an overflow, or fuses the
# sequence when none of the values it computes overflows.
_COORD_LIMIT = 1e150

# Label codes of the batch pass: index into _LABELS.
_LABELS = tuple(Label)
_KEYFRAME, _RELIABLE, _OPTIMIZED, _TRACKED, _PENDING = range(len(_LABELS))


def _agree(
    apr_a: np.ndarray, apr_b: np.ndarray, vio_a: np.ndarray, vio_b: np.ndarray,
    cfg: FusionConfig,
) -> np.ndarray:
    """relative_pose_check(odometry(a, b) of apr, odometry(a, b) of vio)
    for each row pair of the (N, 7) tracks."""
    d_apr = _distances(apr_a[:, :3], apr_b[:, :3])
    d_vio = _distances(vio_a[:, :3], vio_b[:, :3])
    a_apr = _angles_deg(apr_a[:, 3:], apr_b[:, 3:])
    a_vio = _angles_deg(vio_a[:, 3:], vio_b[:, 3:])
    return (np.abs(d_apr - d_vio) <= cfg.d_th) & (np.abs(a_apr - a_vio) <= cfg.o_th)


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
    """The (W, 7) reference rows of one stream: row w is the pose
    compute_reference forms from frames firsts[w] to firsts[w] + size - 1,
    equal to it bit for bit.  Each window's arithmetic is its own, so
    the blocks the windows are stacked in do not change the bits."""
    rows = max(1, _PAIRS_PER_BLOCK // (size * size))
    blocks = []
    for start in range(0, len(firsts), rows):
        stack = track[firsts[start : start + rows, None] + np.arange(size)]
        blocks.append(
            np.column_stack((_medians(stack[:, :, :3]), _average_quaternions(stack[:, :, 3:])))
        )
    return np.concatenate(blocks)


def _medians(pts: np.ndarray) -> np.ndarray:
    """weiszfeld_median of every window of a (W, n, 3) stack of points,
    n >= 2.  Each window takes the operations weiszfeld_median applies
    to it, in the same order and with the same numpy reductions, so the
    (W, 3) result equals it bit for bit; windows leave the iteration as
    they finish."""
    # Kuhn's test.  diff[w, k, j] holds p_j - p_k of window w.
    diff = pts[:, None, :, :] - pts[:, :, None, :]
    dist = np.linalg.norm(diff, axis=3)
    same = dist == 0.0
    pull = np.linalg.norm(
        (diff / np.where(same, 1.0, dist)[:, :, :, None]).sum(axis=2), axis=2
    )
    vertex = pull < same.sum(axis=2) * (1.0 - 1e-9)
    out = pts[np.arange(len(pts)), vertex.argmax(axis=1)]
    rest = np.flatnonzero(~vertex.any(axis=1))
    if rest.size:
        out[rest] = _iterate_medians(pts[rest], dist[rest])
    return out


def _objectives(pts: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Summed distance from at[w] to the points of window w."""
    return np.linalg.norm(pts - at[:, None, :], axis=2).sum(axis=1)


def _iterate_medians(pts: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The iterative path of weiszfeld_median at its default stopping
    rule (_MEDIAN_TOL, _MEDIAN_MAX_ITER), then its best-of-inputs pass,
    for windows that Kuhn's test does not settle.  dist holds the
    pairwise distances Kuhn's test computed."""
    y = pts.mean(axis=1)
    live = np.arange(len(pts))
    for _ in range(_MEDIAN_MAX_ITER):
        p, y_live = pts[live], y[live]
        diff = p - y_live[:, None, :]
        d = np.linalg.norm(diff, axis=2)
        near = d < _MEDIAN_TOL
        landed = near.any(axis=1)
        if landed.any():
            y[live[landed]] = p[landed, near[landed].argmax(axis=1)]
            keep = ~landed
            live, p, y_live, diff, d = live[keep], p[keep], y_live[keep], diff[keep], d[keep]
            if not live.size:
                break
        w = 1.0 / d
        w_sum = w.sum(axis=1)
        y_next = (p * w[:, :, None]).sum(axis=1) / w_sum[:, None]
        f_next = _objectives(p, y_next)
        units = diff * w[:, :, None]
        grad = -units.sum(axis=1)
        hess = np.eye(3) * w_sum[:, None, None] - np.matmul(
            (units * w[:, :, None]).transpose(0, 2, 1), units
        )
        newton = y_live - _newton_steps(hess, grad)
        ok = np.flatnonzero(np.isfinite(newton).all(axis=1))
        f_newton = _objectives(p[ok], newton[ok])
        better = f_newton < f_next[ok]
        y_next[ok[better]] = newton[ok[better]]
        f_next[ok[better]] = f_newton[better]
        # Over-relax each window while doubling its displacement still
        # lowers its objective.
        delta = y_next - y_live
        scale = np.full(len(live), 2.0)
        grow = np.arange(len(live))
        while grow.size:
            cand = y_live[grow] + scale[grow, None] * delta[grow]
            f_cand = _objectives(p[grow], cand)
            better = f_cand < f_next[grow]
            grow = grow[better]
            y_next[grow], f_next[grow] = cand[better], f_cand[better]
            scale[grow] *= 2.0
        # np.linalg.norm of a vector squares it through a BLAS dot; a
        # (1, 3) @ (3, 1) product makes the same call.
        moved = y_next - y_live
        step = np.sqrt(np.matmul(moved[:, None, :], moved[:, :, None])[:, 0, 0])
        y[live] = y_next
        live = live[~(step < _MEDIAN_TOL)]
        if not live.size:
            break
    # The best of the final iterate and the input points, ties kept by
    # the earlier candidate.  Row k of dist sums to the objective at p_k.
    best = _objectives(pts, y)
    at_inputs = dist.sum(axis=2)
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
    """average_quaternions of every window of a (W, n, 4) stack, bit for
    bit.  Its sign alignment is left out: negating a quaternion leaves
    every product of two of its components unchanged, bit for bit."""
    acc = np.zeros((len(quats), 4, 4))
    for k in range(quats.shape[1]):
        acc += quats[:, k, :, None] * quats[:, k, None, :]
    return _normalize_rows(np.linalg.eigh(acc)[1][:, :, -1].copy())


def _label_and_map(
    apr_ref: np.ndarray,
    vio_ref: np.ndarray,
    windows: list[tuple[int, int]],
    apr: np.ndarray,
    vio: np.ndarray,
    labels: np.ndarray,
    cfg: FusionConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Fill in the label of every frame from the first reference on, and
    map the vio poses of the optimized and tracked frames to the world.
    Reference r, rows r of apr_ref and vio_ref, governs the t_opt frames
    of its optimization period, then tracks the next alignment search up
    to the frame where window r + 1 completes, whose frames become
    keyframes.  Returns the indices of the mapped frames and their
    (M, 7) poses."""
    n, first = len(apr), windows[0][1] + 1
    lasts = np.array([last for _, last in windows])
    ref_of = np.repeat(np.arange(len(windows)), np.diff(np.append(lasts, n - 1)))
    in_period = np.arange(first, n) - (lasts + 1)[ref_of] < cfg.t_opt
    period_ref = ref_of[in_period]
    reliable = _agree(
        apr[first:][in_period], apr_ref[period_ref],
        vio[first:][in_period], vio_ref[period_ref], cfg,
    )
    governed = labels[first:]
    governed[:] = _TRACKED
    governed[in_period] = np.where(reliable, _RELIABLE, _OPTIMIZED)
    for a, b in windows:
        labels[a : b + 1] = _KEYFRAME
    rows = np.flatnonzero((governed == _OPTIMIZED) | (governed == _TRACKED))
    # Each map is built once per reference, as step builds it, and only
    # for references that map a frame.
    used, ref_row = np.unique(ref_of[rows], return_inverse=True)
    maps = [
        reference_transform(ReferencePair(a, v))
        for a, v in zip(_poses(apr_ref[used]), _poses(vio_ref[used]))
    ]
    mapped = _apply_rigid(
        np.array([g.rotation.as_array() for g in maps]).reshape(-1, 4)[ref_row],
        np.array([g.translation.as_array() for g in maps]).reshape(-1, 3)[ref_row],
        vio[first + rows],
    )
    return first + rows, mapped


def _run_steps(rec: Recording, cfg: FusionConfig) -> FusedTrack:
    """run_sequence through step, frame by frame."""
    state = FusionState()
    latest: dict[int, FusionOutput] = {}
    for s in rec:
        state, outs = step(state, s.apr, s.vio, cfg)
        for out in outs:
            latest[out.frame_index] = out
    # step() numbers frames 0..n-1 in feed order.
    outputs = [latest[i] for i in range(len(rec))]
    labels = [_LABELS.index(out.label) for out in outputs]
    return FusedTrack(rec.frames, labels, track_array([out.pose for out in outputs]))
