"""Pose and rotation primitives shared by the whole package.

Conventions, fixed once here so every module agrees:

* Quaternions are Hamilton, scalar-first (w, x, y, z), unit norm.
  Their product matches matrix composition: R(a * b) = R(a) @ R(b).
* The double cover is collapsed on construction: w >= 0, with ties on
  w == 0 broken so the first nonzero of (x, y, z) is >= 0.  Two
  quaternions describing the same rotation therefore compare equal
  componentwise up to float noise.
* Distances are meters, angles are degrees.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, starmap
from math import isfinite
from typing import NamedTuple

import numpy as np


# Float forms of the pose formulas, quaternions as (w, x, y, z).  The
# Pose constructor, the functions of this module, fusion.step's
# per-frame path (odometry, optimize_pose) and the synthetic generators
# are built on them, and the array forms below apply them to columns.


def _dot4(aw: float, ax: float, ay: float, az: float, bw: float, bx: float, by: float, bz: float) -> float:
    """Dot product of two 4-vectors, of floats or of columns (*a.T, *b.T)."""
    return aw * bw + ax * bx + ay * by + az * bz


def _squared_distance(ax: float, ay: float, az: float, bx: float, by: float, bz: float) -> float:
    """|b - a|^2 of two points, of floats or of columns (*a.T, *b.T)."""
    dx, dy, dz = bx - ax, by - ay, bz - az
    return dx * dx + dy * dy + dz * dz


def _normalize(q: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """Unit norm, then the sign rule collapsing the double cover: w >= 0,
    ties broken by the first nonzero vector component.  step maps frames
    through it, so its norm skips the call to _dot4; its sign rule
    branches, so _normalize_rows is a second form anyway."""
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n < 1e-12:
        raise ValueError("quaternion norm too close to zero to normalize")
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0.0 or (w == 0.0 and (x < 0.0 or (x == 0.0 and (y < 0.0 or (y == 0.0 and z < 0.0))))):
        return -w, -x, -y, -z
    return w, x, y, z


def _hamilton(
    a: tuple[float, float, float, float], b: tuple[float, float, float, float]
) -> tuple[float, float, float, float]:
    """Hamilton product a * b, not normalized."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _rotate(
    q: tuple[float, float, float, float], v: tuple[float, float, float]
) -> tuple[float, float, float]:
    """Vector v rotated by unit quaternion q, q v q*."""
    # v' = v + 2 w (u x v) + 2 u x (u x v), u the vector part.
    w, ux, uy, uz = q
    vx, vy, vz = v
    cx = uy * vz - uz * vy
    cy = uz * vx - ux * vz
    cz = ux * vy - uy * vx
    dx = uy * cz - uz * cy
    dy = uz * cx - ux * cz
    dz = ux * cy - uy * cx
    return vx + 2.0 * (w * cx + dx), vy + 2.0 * (w * cy + dy), vz + 2.0 * (w * cz + dz)


# Below COORD_LIMIT every squared coordinate difference is finite, so no
# motion, reference or mapped position formed from checked rows overflows.
COORD_LIMIT = 1e150
UNIT_NORM_TOL = 1e-9


def _coord_fault(name: str, v: float) -> str:
    """Why coordinate name, of value v, breaks the bound."""
    return f"{name} must be finite and below {COORD_LIMIT:g} m in magnitude, got {v!r}"


class _Position(NamedTuple):
    """Pose.position, the view (x, y, z)."""

    x: float
    y: float
    z: float


class _Orientation(NamedTuple):
    """Pose.orientation, the view (w, x, y, z)."""

    w: float
    x: float
    y: float
    z: float


@dataclass(frozen=True, init=False)
class Pose:
    """Position plus orientation of one frame, stored flat as its track
    row: x, y, z (m), then the quaternion qw, qx, qy, qz.  The
    constructor takes the seven fields.  It refuses a coordinate not
    finite or of magnitude COORD_LIMIT or more, and a quaternion
    component not finite; it normalizes and sign-canonicalizes the
    quaternion, so any four finite non-degenerate components are
    accepted.  position and orientation are tuple views of the row."""

    # Slots by hand: the frozen __setattr__ of a class that slots=True
    # rebuilds refers to the class before the rebuild, and raises
    # TypeError, not FrozenInstanceError, at a name that is not a field,
    # such as position.
    __slots__ = ("x", "y", "z", "qw", "qx", "qy", "qz")

    x: float
    y: float
    z: float
    qw: float
    qx: float
    qy: float
    qz: float

    # The constructor is __new__, so that it checks the fields and then
    # builds through _pose, as every other path does.
    def __new__(cls, x: float, y: float, z: float, qw: float, qx: float, qy: float, qz: float) -> Pose:
        pos = float(x), float(y), float(z)
        for name, v in zip("xyz", pos):
            if not abs(v) < COORD_LIMIT:
                raise ValueError(_coord_fault(name, v))
        q = float(qw), float(qx), float(qy), float(qz)
        if not all(map(isfinite, q)):
            raise ValueError(f"quaternion components must be finite, got {list(q)}")
        return _pose(*pos, *_normalize(q))

    def __reduce__(self):
        # The frozen __setattr__ refuses the default unpickling.
        return _pose, (self.x, self.y, self.z, self.qw, self.qx, self.qy, self.qz)

    @property
    def position(self) -> _Position:
        return _Position(self.x, self.y, self.z)

    @property
    def orientation(self) -> _Orientation:
        return _Orientation(self.qw, self.qx, self.qy, self.qz)


def odometry(a: Pose, b: Pose) -> tuple[float, float]:
    """Scalar motion magnitudes between two poses, a (distance, angle)
    pair: a distance in m, finite below COORD_LIMIT, and the magnitude
    of the relative rotation in [0, 180] degrees, symmetric and blind to
    the quaternion double cover.  Directions are dropped, the
    reliability checks compare magnitudes only.  The pair is an exact
    tuple because Python 3.11 unpacks only exact tuples on its
    specialized path, and step unpacks two of them a frame."""
    # _squared_distance and _dot4 written out: step comes here twice a
    # frame.  The scalar part of a^-1 * b is the dot product, and |dot|
    # can exceed 1 by float noise, so it is clamped before acos by a
    # comparison: min(1.0, c) takes 3.11's generic builtin call path.
    dx, dy, dz = b.x - a.x, b.y - a.y, b.z - a.z
    c = abs(a.qw * b.qw + a.qx * b.qx + a.qy * b.qy + a.qz * b.qz)
    if c > 1.0:
        c = 1.0
    return math.sqrt(dx * dx + dy * dy + dz * dz), math.degrees(2.0 * math.acos(c))


# Array forms of the formulas above, one row per pose: (N, 3) positions,
# (N, 4) quaternions (w, x, y, z), (N, 7) tracks of both.  Elementwise
# float64 operations round as Python floats do, so each applies the
# float formula to the columns and each row equals it bit for bit;
# angles go through math.acos, which np.arccos differs from in the last
# bit on some inputs.  A row form with its own body says why.


def _motions(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """odometry(a, b) of each row pair of two (N, 7) tracks, as a
    (distance, angle) pair of arrays.  Only acos runs per row: odometry
    of each pair of 5000 poses takes ~12x longer."""
    c = np.minimum(1.0, np.abs(_dot4(*a[:, 3:].T, *b[:, 3:].T))).tolist()
    angle = np.degrees(2.0 * np.fromiter(map(math.acos, c), float))
    return np.sqrt(_squared_distance(*a[:, :3].T, *b[:, :3].T)), angle


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, of 3-vectors here.  numpy
    adds fewer than 8 squares left to right, x*x + y*y + z*z, and makes
    no BLAS call, so the bits do not depend on the CPU."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _normalize_rows(q: np.ndarray) -> np.ndarray:
    """_normalize of each row of a quaternion array, in place, with its
    sign rule as a mask; the rows must not be near zero."""
    # The norm sums the unpacked columns: _norms' sum along a last axis
    # of four costs less on a few rows but ~5x more on thousands.
    w, x, y, z = q.T
    q /= np.sqrt(_dot4(w, x, y, z, w, x, y, z))[:, None]
    # The sign rule: the first nonzero component is positive.  Times
    # -1.0 or 1.0 flips or keeps each row exactly.
    lead = q[np.arange(len(q)), np.argmax(q != 0.0, axis=1)]
    q *= np.where(lead < 0.0, -1.0, 1.0)[:, None]
    return q


def _top_quaternions(m: np.ndarray) -> np.ndarray:
    """The unit eigenvector of the largest eigenvalue of each symmetric
    4x4 matrix of a (W, 4, 4) stack, as normalized, sign-canonical rows.
    Both the quaternion average and the rigid fit are this eigenvector of
    a matrix they build."""
    return _normalize_rows(np.linalg.eigh(m)[1][:, :, -1].copy())


def _hamilton_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_hamilton of each row pair of two quaternion arrays, not
    normalized; either may also be one quaternion of shape (4,)."""
    return np.column_stack(_hamilton(a.T, b.T))


def _axis_angle_rows(axes: np.ndarray, angles_deg: np.ndarray) -> np.ndarray:
    """The rotation of angle_deg about the axis of each row of an (N, 3)
    axis array, not normalized: cos h, then the axis times sin h over its
    norm, h half the angle.  The trig comes from math, a float at a time:
    numpy's vectorized sin and cos may differ from it in the last bit."""
    ax, ay, az = axes.T
    n = _norms(axes)
    if (n < 1e-12).any():
        raise ValueError("rotation axis must be nonzero")
    half = (np.fromiter(map(math.radians, angles_deg.tolist()), float) * 0.5).tolist()
    s = np.fromiter(map(math.sin, half), float) / n
    return np.column_stack((np.fromiter(map(math.cos, half), float), ax * s, ay * s, az * s))


def _rotate_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """_rotate(q, p) of each row pair; q may also be one quaternion (4,)."""
    return np.column_stack(_rotate(q.T, p.T))


def apply_rigid(q: np.ndarray, t: np.ndarray, track: np.ndarray) -> np.ndarray:
    """A track under the rigid map (q, t), x' = R(q) x + t: positions
    rotated by q, then shifted by t; orientations q * o, normalized.
    q and t give one map, shapes (4,) and (3,), or one map per row,
    (N, 4) and (N, 3).  fusion.optimize_pose is its float form.  A map
    of fusion's, applied to rows within the input rules, can give
    coordinates up to (1 + 2 sqrt 3) * COORD_LIMIT, which the input rules
    refuse when the track is fed back in."""
    pos = _rotate_rows(q, track[:, :3]) + t
    return np.column_stack((pos, _normalize_rows(_hamilton_rows(q, track[:, 3:]))))


# Pose's slot descriptors.  _pose, which its constructor ends in, stores
# the fields through them, past the frozen __setattr__.
_new = object.__new__
_px, _py, _pz, _pw, _pqx, _pqy, _pqz = (getattr(Pose, name).__set__ for name in Pose.__slots__)


def _pose(x: float, y: float, z: float, w: float, qx: float, qy: float, qz: float) -> Pose:
    """The Pose of floats that keep the constructor's rules and whose
    quaternion is already normalized and sign-canonical.  The fields are
    stored as they are: the constructor would normalize a normalized
    quaternion once more, which can move its last bits."""
    pose = _new(Pose)
    _px(pose, x)
    _py(pose, y)
    _pz(pose, z)
    _pw(pose, w)
    _pqx(pose, qx)
    _pqy(pose, qy)
    _pqz(pose, qz)
    return pose


def _poses(track: np.ndarray) -> list[Pose]:
    """_pose of each row of a track, x, y, z, qw, qx, qy, qz."""
    return list(starmap(_pose, track.tolist()))


def track_array(poses: Sequence[Pose]) -> np.ndarray:
    """The (N, 7) track of a pose sequence, the inverse of _poses: each
    Pose's fields x, y, z, qw, qx, qy, qz.  A PoseTrack gives a writable
    copy of its array."""
    if isinstance(poses, PoseTrack):
        return poses.track.copy()
    rows = [(p.x, p.y, p.z, p.qw, p.qx, p.qy, p.qz) for p in poses]
    return np.array(rows, dtype=float).reshape(len(rows), 7)


# io._write_rows, the one row writer, formats, and the array sequences
# build their objects, at most this many rows at a time, which bounds the
# Python objects held at once whatever the length of the sequence.
_WRITE_ROWS = 1024


def _blocks(n: int) -> Iterator[slice]:
    """The slices of _WRITE_ROWS rows, the last one shorter, that cover
    n rows in order."""
    return (slice(start, start + _WRITE_ROWS) for start in range(0, n, _WRITE_ROWS))


class _FrameSequence(Sequence):
    """A read-only sequence whose fields each hold one entry per frame,
    named in __slots__.  _elements, which subclasses define, builds the
    elements of every frame at once; iteration builds them a block of
    _WRITE_ROWS frames at a time, so it holds at most one block's
    objects, and indexing builds the one-frame slice's.  Slicing slices
    every field.  It equals any sequence with equal elements, a list of
    them included."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            # Slices of checked fields skip the constructor and its checks.
            part = _new(type(self))
            for name in self.__slots__:
                setattr(part, name, getattr(self, name)[i])
            return part
        i = range(len(self))[i]
        return self[i : i + 1]._elements()[0]

    def __iter__(self) -> Iterator:
        return chain.from_iterable(self[block]._elements() for block in _blocks(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} frames>"


def _pose_fault(rows: np.ndarray, unit_tol: float) -> tuple[int, str] | None:
    """(index, fault) of the first row of an (N, 7) pose block with a
    coordinate not finite or of magnitude COORD_LIMIT or more, or a
    quaternion norm further than unit_tol from 1; None if there is none."""
    # A non-finite or huge component makes a norm NaN or inf, which fails.
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt(_dot4(*rows[:, 3:].T, *rows[:, 3:].T))
        ok = (np.abs(rows[:, :3]) < COORD_LIMIT).all(axis=1) & (np.abs(norm - 1.0) <= unit_tol)
    if ok.all():
        return None
    i = int(np.argmin(ok))
    for name, v in zip("xyz", rows[i, :3].tolist()):
        if not abs(v) < COORD_LIMIT:
            return i, _coord_fault(name, v)
    return i, f"quaternion norm {norm.item(i)!r} is further than {unit_tol:g} from 1"


def _frozen(values, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """A read-only copy of values, which must have the given shape."""
    a = np.array(values, dtype=dtype)
    if a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    a.flags.writeable = False
    return a


class PoseTrack(_FrameSequence):
    """A sequence of poses in array form: one (N, 7) track, rows x, y,
    z, qw, qx, qy, qz as a Pose holds them, with normalized and
    sign-canonical quaternions.  The constructor stores the rows as
    given; it raises ValueError, naming the row as its frame, at a field
    not finite, a coordinate of magnitude COORD_LIMIT (1e150 m) or more,
    or a quaternion norm further than UNIT_NORM_TOL (1e-9) from 1.

    It is a read-only sequence of Pose.  Indexing builds one Pose and
    iteration builds them a block at a time; it equals a list of equal
    poses."""

    __slots__ = ("track",)

    def __init__(self, track) -> None:
        self.track = _frozen(track, (len(track), 7))
        if (fault := _pose_fault(self.track, UNIT_NORM_TOL)) is not None:
            raise ValueError("frame %d: %s" % fault)

    def _elements(self) -> list[Pose]:
        return _poses(self.track)
