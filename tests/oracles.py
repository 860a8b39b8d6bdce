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


def rotation_matrix(q) -> np.ndarray:
    """The rotation matrix of a quaternion (w, x, y, z), entry by entry
    from the textbook formula.  q need not have unit norm: the products
    are scaled by 2 / |q|^2."""
    w, x, y, z = (float(c) for c in q)
    s = 2.0 / (w * w + x * x + y * y + z * z)
    return np.array([
        [1.0 - s * (y * y + z * z), s * (x * y - w * z), s * (x * z + w * y)],
        [s * (x * y + w * z), 1.0 - s * (x * x + z * z), s * (y * z - w * x)],
        [s * (x * z - w * y), s * (y * z + w * x), 1.0 - s * (x * x + y * y)],
    ])


def axis_angle_quaternion(axis, angle_deg) -> tuple[float, float, float, float]:
    """The rotation of angle_deg about axis as a quaternion (w, x, y, z),
    not normalized: cos h, then the axis times sin h over its norm, h
    half the angle, in plain float arithmetic."""
    ax, ay, az = (float(c) for c in axis)
    n = math.sqrt(ax * ax + ay * ay + az * az)
    half = math.radians(angle_deg) * 0.5
    s = math.sin(half) / n
    return math.cos(half), ax * s, ay * s, az * s


def hamilton_product(a, b) -> tuple[float, float, float, float]:
    """The Hamilton product a * b of two quaternions (w, x, y, z), term
    by term from the textbook formula."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


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

    It pins the order in which draws are taken and used (a rejected
    rotation axis is redrawn before its angle), while the stream digests
    in ``test_synth.py`` pin the arithmetic.  Its rotations come from
    this module's plain-float ``axis_angle_quaternion`` and
    ``hamilton_product``, the formulas the package evaluates in the same
    order, so the bits agree.  Each product and rotation is normalized as
    the ``Pose`` constructor normalizes a quaternion before it is used,
    and the poses store the floats as they are.
    """
    from posefuse.geometry import _normalize, _pose

    def random_unit():
        while True:
            x, y, z = rng.normal(0.0, 1.0, 3).tolist()
            n = math.sqrt(x * x + y * y + z * z)
            if n > 1e-6:
                return x / n, y / n, z / n

    def times(a, b):
        return _normalize(hamilton_product(a, b))

    bias_dir = random_unit()
    bias_axis = random_unit()
    out = [(gt[0].position, gt[0].orientation)]
    for i in range(1, len(gt)):
        a, b, (prev, prev_ori) = gt[i - 1].position, gt[i].position, out[-1]
        qw, qx, qy, qz = gt[i - 1].orientation
        d_rot = times(_normalize((qw, -qx, -qy, -qz)), gt[i].orientation)
        noise = rng.normal(0.0, model.step_pos_sigma, 3).tolist()
        # ((previous + true step) + noise) + bias, summed in that order.
        pos = tuple(
            ((p + (bc - ac)) + n) + u * model.drift_bias_pos
            for p, ac, bc, n, u in zip(prev, a, b, noise, bias_dir)
        )
        ori = times(prev_ori, d_rot)
        if model.step_rot_sigma > 0.0:
            axis = random_unit()
            angle = float(rng.normal(0.0, model.step_rot_sigma))
            ori = times(ori, _normalize(axis_angle_quaternion(axis, angle)))
        if model.drift_bias_rot > 0.0:
            ori = times(ori, _normalize(axis_angle_quaternion(bias_axis, model.drift_bias_rot)))
        out.append((pos, ori))
    return [gt[0]] + [_pose(*p, *q) for p, q in out[1:]]


def step_run_sequence(samples, cfg):
    """``posefuse.fusion.run_sequence`` as it was written before the batch
    pass: every frame fed to ``step`` in order, keeping the last output
    per frame.  Like ``sequential_vio`` it calls the package on purpose:
    ``step`` is the streaming reference the batch pass must reproduce."""
    from dataclasses import replace

    from posefuse.fusion import FusionState, step

    prev_ts = None
    for s in samples:
        if s.vio is None:
            raise ValueError(f"frame {s.frame_index}: vio pose missing, fusion needs it")
        if s.apr is None:
            raise ValueError(f"frame {s.frame_index}: apr pose missing, fusion needs it")
        if prev_ts is not None and s.timestamp <= prev_ts:
            raise ValueError(
                f"frame {s.frame_index}: timestamps must be strictly increasing"
            )
        prev_ts = s.timestamp

    state = FusionState()
    latest = {}
    for s in samples:
        state, outs = step(state, s.apr, s.vio, cfg)
        for out in outs:
            latest[out.frame_index] = out
    return [
        replace(latest[i], frame_index=samples[i].frame_index)
        for i in range(len(samples))
    ]


def row_parse_sequence(path):
    """``posefuse.io.parse_sequence`` as it was written before chunked
    parsing, with the coordinate bound and the int64 frame range added
    since: one ``csv.reader`` row at a time, each field converted and
    checked on its own.  It builds the package's pose and sample types,
    so its results compare with the parser's directly."""
    import csv
    from pathlib import Path

    from posefuse.geometry import COORD_LIMIT, Pose
    from posefuse.io import QUAT_NORM_SLACK, SEQUENCE_COLUMNS, PoseSample, SequenceFormatError

    def parse_int(text, name, line_no):
        try:
            v = int(text.strip())
        except ValueError:
            raise SequenceFormatError(f"{name} is not an integer: {text!r}", line=line_no)
        if not -(2**63) <= v < 2**63:
            raise SequenceFormatError(f"{name} is outside the int64 range: {text!r}", line=line_no)
        return v

    def parse_float(text, name, line_no):
        try:
            v = float(text.strip())
        except ValueError:
            raise SequenceFormatError(f"{name} is not a number: {text!r}", line=line_no)
        if not math.isfinite(v):
            raise SequenceFormatError(f"{name} must be finite: {text!r}", line=line_no)
        return v

    def parse_pose_group(fields, name, line_no):
        stripped = [f.strip() for f in fields]
        if all(f == "" for f in stripped):
            return None
        if any(f == "" for f in stripped):
            raise SequenceFormatError(
                f"{name} pose group is partially filled, give all 7 fields or none",
                line=line_no,
            )
        x, y, z, qw, qx, qy, qz = [parse_float(f, name, line_no) for f in stripped]
        for axis, text, v in zip("xyz", stripped, (x, y, z)):
            if abs(v) >= COORD_LIMIT:
                raise SequenceFormatError(
                    f"{name} {axis} must be below {COORD_LIMIT:g} m in magnitude: {text!r}", line=line_no
                )
        norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        if abs(norm - 1.0) > QUAT_NORM_SLACK:
            raise SequenceFormatError(
                f"{name} quaternion norm {norm:.6f} is further than "
                f"{QUAT_NORM_SLACK} from 1, refusing to renormalize",
                line=line_no,
            )
        return Pose(x, y, z, qw, qx, qy, qz)

    def rows_by_line(reader):
        # Each row with the physical line it starts on; a quoted field
        # can carry a row over several lines.
        start = reader.line_num + 1
        for row in reader:
            yield start, row
            start = reader.line_num + 1

    samples = []
    prev_ts = None
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SequenceFormatError("empty file, expected a header row", line=1)
        if tuple(h.strip() for h in header) != SEQUENCE_COLUMNS:
            raise SequenceFormatError(
                f"bad header, expected {','.join(SEQUENCE_COLUMNS)}", line=1
            )
        for line_no, row in rows_by_line(reader):
            if not row or all(f.strip() == "" for f in row):
                continue
            if len(row) != len(SEQUENCE_COLUMNS):
                raise SequenceFormatError(
                    f"expected {len(SEQUENCE_COLUMNS)} fields, got {len(row)}",
                    line=line_no,
                )
            frame = parse_int(row[0], "frame", line_no)
            ts = parse_float(row[1], "timestamp", line_no)
            gt = parse_pose_group(row[2:9], "gt", line_no)
            vio = parse_pose_group(row[9:16], "vio", line_no)
            apr = parse_pose_group(row[16:23], "apr", line_no)
            if vio is None:
                raise SequenceFormatError("vio pose is required on every row", line=line_no)
            if prev_ts is not None and ts <= prev_ts:
                raise SequenceFormatError(
                    f"timestamps must be strictly increasing, {ts!r} follows {prev_ts!r}",
                    line=line_no,
                )
            prev_ts = ts
            samples.append(PoseSample(frame, ts, gt=gt, vio=vio, apr=apr))
    return samples


def scalar_reference(poses):
    """The reference pose ``posefuse.fusion.compute_reference`` formed
    for one stream's window before it went through the stacked kernel:
    the scalar Weiszfeld loop and the scalar quaternion average below,
    which the stacked kernel must match by ``float.hex``.  It builds the
    package's pose types, so its results compare with the package's
    directly."""
    from posefuse.geometry import Pose

    def weiszfeld_median(points, tol=1e-9, max_iter=100):
        pts = np.array(points, dtype=float)
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

        def objective(at):
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
            mx, my, mz = (y_next - y).tolist()
            step = math.sqrt(mx * mx + my * my + mz * mz)
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
        return tuple(y.tolist())

    def average_quaternions(quats):
        ref = np.array([quats[0].w, quats[0].x, quats[0].y, quats[0].z])
        acc = np.zeros((4, 4))
        for q in quats:
            v = np.array([q.w, q.x, q.y, q.z])
            if float(v @ ref) < 0.0:
                v = -v
            acc += np.outer(v, v)
        _, vecs = np.linalg.eigh(acc)
        top = vecs[:, -1]  # eigh sorts eigenvalues ascending
        return top.tolist()  # normalized by the Pose constructor

    return Pose(
        *weiszfeld_median([p.position for p in poses]),
        *average_quaternions([p.orientation for p in poses]),
    )


def _finite_check(values):
    """Raise at the first field that is not finite, as the constructor of
    the package's former 3-vector type did."""
    for name, v in zip("xyz", values):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def object_odometry(a, b):
    """``posefuse.geometry.odometry`` as it was when it built objects: the
    position difference through a 3-vector, then the distance and the
    angle through the ``Odometry`` constructor.  Plain floats here, with
    those constructors' checks written out.  Returns (distance, angle)."""
    pa, pb, qa, qb = a.position, b.position, a.orientation, b.orientation
    d = (pb.x - pa.x, pb.y - pa.y, pb.z - pa.z)
    _finite_check(d)
    dist = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    c = min(1.0, abs(qa.w * qb.w + qa.x * qb.x + qa.y * qb.y + qa.z * qb.z))
    angle = math.degrees(2.0 * math.acos(c))
    if not (math.isfinite(dist) and dist >= 0.0):
        raise ValueError(f"odometry distance must be finite and >= 0, got {dist!r}")
    if not (math.isfinite(angle) and 0.0 <= angle <= 180.0):
        raise ValueError(f"odometry angle must be in [0, 180] degrees, got {angle!r}")
    return dist, angle


def object_apply_pose(q, t, pose):
    """A pose under the rigid map (q, t), as ``RigidTransform.apply_pose``
    formed it when it built objects: the rotated position, the shifted
    position and the Hamilton product q * o, each written out.  Plain
    floats here, with the checks of the 3-vector and unit-quaternion
    constructors each went through written out: finite fields, then the
    product normalized and its sign fixed (w >= 0, ties broken by the
    first nonzero vector component).  Returns the 7 fields x, y, z, qw,
    qx, qy, qz."""
    qw, qx, qy, qz = q
    v, o = pose.position, pose.orientation
    # v' = v + 2 w (u x v) + 2 u x (u x v), u the vector part of q.
    cx = qy * v.z - qz * v.y
    cy = qz * v.x - qx * v.z
    cz = qx * v.y - qy * v.x
    dx = qy * cz - qz * cy
    dy = qz * cx - qx * cz
    dz = qx * cy - qy * cx
    r = (v.x + 2.0 * (qw * cx + dx), v.y + 2.0 * (qw * cy + dy), v.z + 2.0 * (qw * cz + dz))
    _finite_check(r)
    p = (r[0] + t[0], r[1] + t[1], r[2] + t[2])
    _finite_check(p)
    w = qw * o.w - qx * o.x - qy * o.y - qz * o.z
    x = qw * o.x + qx * o.w + qy * o.z - qz * o.y
    y = qw * o.y - qx * o.z + qy * o.w + qz * o.x
    z = qw * o.z + qx * o.y - qy * o.x + qz * o.w
    if not all(map(math.isfinite, (w, x, y, z))):
        raise ValueError(f"quaternion components must be finite, got {[w, x, y, z]}")
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n < 1e-12:
        raise ValueError("quaternion norm too close to zero to normalize")
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0.0 or (w == 0.0 and (x < 0.0 or (x == 0.0 and (y < 0.0 or (y == 0.0 and z < 0.0))))):
        w, x, y, z = -w, -x, -y, -z
    return (*p, w, x, y, z)
