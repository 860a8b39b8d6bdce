"""Independent reference implementations used only by the tests.

Everything here is deliberately written from first principles (or
delegated to scipy) rather than importing the package's own math, so a
shared bug cannot hide.
"""

from __future__ import annotations

import math

import numpy as np


def grid_median_objective(points: np.ndarray) -> float:
    """Best achievable sum-of-distances on a millimeter grid.

    A flat 1 mm scan of the bounding box is infeasible (billions of
    cells), but the objective x -> sum ||x - p_i|| is convex, so a
    coarse bracket refined around its argmin converges to the global
    grid optimum.  Three tenfold refinements take the spacing from
    ~1 cm to < 1 mm.
    """
    lo = points.min(axis=0) - 1e-3
    hi = points.max(axis=0) + 1e-3
    span = float((hi - lo).max())
    if span == 0.0:
        return float(np.linalg.norm(points - points[0], axis=1).sum())
    center = (lo + hi) / 2.0
    spacing = span / 20.0
    half = span / 2.0 + spacing
    best = None
    while True:
        axes = [np.arange(c - half, c + half + spacing / 2, spacing) for c in center]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
        obj = np.linalg.norm(grid[:, None, :] - points[None, :, :], axis=2).sum(axis=1)
        k = int(np.argmin(obj))
        best = float(obj[k])
        center = grid[k]
        if spacing < 1e-3:
            return best
        half = 2.0 * spacing
        spacing /= 10.0


def slerp_midpoint(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Halfway spherical interpolation of two unit quaternions (wxyz)."""
    a = np.asarray(qa, dtype=float)
    b = np.asarray(qb, dtype=float)
    if float(np.dot(a, b)) < 0.0:
        b = -b
    dot = min(1.0, max(-1.0, float(np.dot(a, b))))
    theta = math.acos(dot)
    if theta < 1e-12:
        mid = a + b
    else:
        mid = (math.sin(theta / 2) / math.sin(theta)) * (a + b)
    mid /= np.linalg.norm(mid)
    if mid[0] < 0 or (mid[0] == 0 and (mid[1] < 0 or (mid[1] == 0 and (mid[2] < 0 or (mid[2] == 0 and mid[3] < 0))))):
        mid = -mid
    return mid


def matrix_rotation_angle_deg(ra: np.ndarray, rb: np.ndarray) -> float:
    """Relative rotation angle from matrices via the trace identity."""
    rel = ra.T @ rb
    c = (np.trace(rel) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def quat_angle_stable_deg(qa: np.ndarray, qb: np.ndarray) -> float:
    """Rotation angle between two unit quaternions (wxyz), stable near 0.

    acos of the dot product loses ~1e-6 deg of resolution at identity;
    the chord length ||qa - qb|| = 2 sin(theta/4) does not.
    """
    a = np.asarray(qa, dtype=float)
    b = np.asarray(qb, dtype=float)
    chord = min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))
    return math.degrees(4.0 * math.asin(min(1.0, chord / 2.0)))


def sort_median(values) -> float:
    """Order-statistic median: middle element, or mean of the two middles."""
    s = sorted(values)
    n = len(s)
    if n % 2:
        return float(s[n // 2])
    return 0.5 * (s[n // 2 - 1] + s[n // 2])


def line_median_objective(values) -> float:
    """Least summed distance sum |x - v| over the real line.  Any x
    between the two central order statistics attains it, the middle
    element of the sorted values among them."""
    s = sorted(float(v) for v in values)
    m = s[len(s) // 2]
    return sum(abs(v - m) for v in s)


def kuhn_optimal_point(points) -> tuple[int, float]:
    """Input point best placed to be the geometric median, by Kuhn's
    optimality condition (Kuhn 1973, "A note on Fermat's problem").

    The summed distance x -> sum ||x - p_j|| is minimized at input point
    p_k exactly when the unit vectors from p_k to every other distinct
    input sum to a vector no longer than p_k's multiplicity.  Returns
    (k, margin) for the input with the largest margin, multiplicity
    minus that length.  A positive margin makes p_k the unique
    minimizer; zero is a tie (two points, collinear sets), negative
    means the median lies elsewhere.  Ties between equal points go to
    the first index.
    """
    pts = [tuple(float(c) for c in p) for p in points]
    best: tuple[int, float] | None = None
    for k, p in enumerate(pts):
        multiplicity = 0
        pull = [0.0, 0.0, 0.0]
        for q in pts:
            d = [qc - pc for qc, pc in zip(q, p)]
            r = math.sqrt(sum(c * c for c in d))
            if r == 0.0:
                multiplicity += 1
                continue
            for a in range(3):
                pull[a] += d[a] / r
        margin = multiplicity - math.sqrt(sum(c * c for c in pull))
        if best is None or margin > best[1]:
            best = (k, margin)
    if best is None:
        raise ValueError("kuhn_optimal_point needs at least one point")
    return best


def rigid_map_pose(g_quat, g_t, position, quat) -> tuple[np.ndarray, np.ndarray]:
    """A pose under the rigid map x -> R(g) x + t, through scipy's
    rotations: the position is rotated then shifted, the orientation
    picks up g on the left.  Quaternions are (w, x, y, z) in and out."""
    from scipy.spatial.transform import Rotation

    def rot(q):
        w, x, y, z = (float(c) for c in q)
        return Rotation.from_quat([x, y, z, w])

    g = rot(g_quat)
    x, y, z, w = (g * rot(quat)).as_quat()
    return g.apply(np.asarray(position, dtype=float)) + np.asarray(g_t, dtype=float), np.array([w, x, y, z])


def chordal_distance(qa, qb) -> float:
    """Distance between two rotations as unit quaternions, blind to the
    double cover: min(||qa - qb||, ||qa + qb||).  Unlike an acos of the
    dot product it keeps full resolution near zero."""
    a = np.asarray(qa, dtype=float)
    b = np.asarray(qb, dtype=float)
    return min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))


def sequential_vio(gt, model, rng):
    """Odometry track over gt, drawn one generator call per draw: the loop
    ``posefuse.synth.simulate_vio`` ran before it took each step's draws
    from one block.

    Unlike the rest of this module it builds on the package's rotation
    functions, on purpose: it pins the order in which draws are taken and
    used (a rejected rotation axis is redrawn before its angle), while
    the stream digests in ``test_synth.py`` pin the arithmetic.
    """
    from posefuse.geometry import Pose, Vec3, axis_angle_quaternion, compose, inverse

    def random_unit():
        while True:
            v = rng.normal(0.0, 1.0, 3)
            n = float(np.linalg.norm(v))
            if n > 1e-6:
                return Vec3(v[0] / n, v[1] / n, v[2] / n)

    bias_dir = random_unit()
    bias_axis = random_unit()
    out = [gt[0]]
    for i in range(1, len(gt)):
        d_pos = gt[i].position - gt[i - 1].position
        d_rot = compose(inverse(gt[i - 1].orientation), gt[i].orientation)
        noise = rng.normal(0.0, model.step_pos_sigma, 3)
        pos = (
            out[-1].position
            + d_pos
            + Vec3(noise[0], noise[1], noise[2])
            + bias_dir * model.drift_bias_pos
        )
        ori = compose(out[-1].orientation, d_rot)
        if model.step_rot_sigma > 0.0:
            ori = compose(
                ori,
                axis_angle_quaternion(random_unit(), float(rng.normal(0.0, model.step_rot_sigma))),
            )
        if model.drift_bias_rot > 0.0:
            ori = compose(ori, axis_angle_quaternion(bias_axis, model.drift_bias_rot))
        out.append(Pose(pos, ori))
    return out
