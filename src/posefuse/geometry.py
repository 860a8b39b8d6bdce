"""Pose and rotation primitives shared by the whole package.

Conventions, fixed once here so every module agrees:

* Quaternions are Hamilton, scalar-first (w, x, y, z), unit norm.
  Composition matches matrix composition: R(compose(a, b)) = R(a) @ R(b).
* The double cover is collapsed on construction: w >= 0, with ties on
  w == 0 broken so the first nonzero of (x, y, z) is >= 0.  Two
  quaternions describing the same rotation therefore compare equal
  componentwise up to float noise.
* Distances are meters, angles are degrees.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from math import isfinite

import numpy as np

# The value classes are frozen: their constructors, which validate and
# convert each field once, store fields past the frozen __setattr__.
_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class Vec3:
    """Point or translation in 3-space, meters."""

    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float) -> None:
        x, y, z = float(x), float(y), float(z)
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            for name, v in (("x", x), ("y", y), ("z", z)):
                if not isfinite(v):
                    raise ValueError(f"Vec3.{name} must be finite, got {v!r}")
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, a: Iterable[float]) -> "Vec3":
        ax, ay, az = a
        return cls(float(ax), float(ay), float(az))

    @classmethod
    def zero(cls) -> "Vec3":
        return cls(0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class UnitQuaternion:
    """Unit quaternion, scalar first.  Normalized and sign-canonicalized
    by the constructor, so any four finite non-degenerate components are
    accepted."""

    w: float
    x: float
    y: float
    z: float

    def __init__(self, w: float, x: float, y: float, z: float) -> None:
        w, x, y, z = float(w), float(x), float(y), float(z)
        if not (isfinite(w) and isfinite(x) and isfinite(y) and isfinite(z)):
            raise ValueError(f"quaternion components must be finite, got {[w, x, y, z]}")
        w, x, y, z = _normalize((w, x, y, z))
        _set(self, "w", w)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

    @classmethod
    def identity(cls) -> "UnitQuaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)


# Float-tuple forms of the quaternion formulas, (w, x, y, z).  The
# classes and functions of this module are built on them, and so is the
# synthetic stream generator, which chains many rotations per frame
# without building an object for each.


def _normalize(q: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """Unit norm, then the sign rule collapsing the double cover: w >= 0,
    ties broken by the first nonzero vector component."""
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


def _axis_angle(
    axis: tuple[float, float, float], angle_deg: float
) -> tuple[float, float, float, float]:
    """Rotation of angle_deg about axis, not normalized."""
    ax, ay, az = axis
    n = math.sqrt(ax * ax + ay * ay + az * az)
    if n < 1e-12:
        raise ValueError("rotation axis must be nonzero")
    half = math.radians(angle_deg) * 0.5
    s = math.sin(half) / n
    return math.cos(half), ax * s, ay * s, az * s


@dataclass(frozen=True, slots=True)
class Pose:
    """Position plus orientation of one frame."""

    position: Vec3
    orientation: UnitQuaternion


@dataclass(frozen=True, slots=True)
class Odometry:
    """Scalar motion between two poses: distance traveled (m) and
    rotation magnitude (deg).  Directions are deliberately dropped, the
    reliability checks compare magnitudes only."""

    dist: float
    angle: float

    def __init__(self, dist: float, angle: float) -> None:
        dist, angle = float(dist), float(angle)
        if not (isfinite(dist) and dist >= 0.0):
            raise ValueError(f"odometry distance must be finite and >= 0, got {dist!r}")
        if not (isfinite(angle) and 0.0 <= angle <= 180.0):
            raise ValueError(f"odometry angle must be in [0, 180] degrees, got {angle!r}")
        _set(self, "dist", dist)
        _set(self, "angle", angle)


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotation followed by translation, x' = rotate(rotation, x) + t."""

    rotation: UnitQuaternion
    translation: Vec3

    def apply_point(self, p: Vec3) -> Vec3:
        return rotate(self.rotation, p) + self.translation

    def apply_pose(self, pose: Pose) -> Pose:
        # Orientations pick up the transform rotation on the left, the
        # world frame is what the transform re-expresses.
        return Pose(self.apply_point(pose.position), compose(self.rotation, pose.orientation))

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(UnitQuaternion.identity(), Vec3.zero())


def compose(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product a * b, renormalized and sign-canonicalized."""
    return UnitQuaternion(*_hamilton((a.w, a.x, a.y, a.z), (b.w, b.x, b.y, b.z)))


def inverse(q: UnitQuaternion) -> UnitQuaternion:
    """Conjugate, which is the inverse for unit quaternions."""
    return UnitQuaternion(q.w, -q.x, -q.y, -q.z)


def rotation_angle_deg(a: UnitQuaternion, b: UnitQuaternion) -> float:
    """Magnitude of the relative rotation between two orientations, in
    [0, 180] degrees.  Symmetric in its arguments and blind to the
    quaternion double cover."""
    # The scalar part of inverse(a) * b is the 4-vector dot product.
    c = a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z
    # |c| can exceed 1 by float noise, clamp before acos.
    c = min(1.0, abs(c))
    return math.degrees(2.0 * math.acos(c))


def translation_distance(a: Vec3, b: Vec3) -> float:
    """Euclidean distance in meters."""
    return (b - a).norm()


def odometry(a: Pose, b: Pose) -> Odometry:
    """Scalar motion magnitudes between two poses."""
    return Odometry(
        translation_distance(a.position, b.position),
        rotation_angle_deg(a.orientation, b.orientation),
    )


def rotate(q: UnitQuaternion, v: Vec3) -> Vec3:
    """Rotate a vector by a unit quaternion, q v q*."""
    # v' = v + 2 w (u x v) + 2 u x (u x v), u the vector part.
    ux, uy, uz = q.x, q.y, q.z
    cx = uy * v.z - uz * v.y
    cy = uz * v.x - ux * v.z
    cz = ux * v.y - uy * v.x
    dx = uy * cz - uz * cy
    dy = uz * cx - ux * cz
    dz = ux * cy - uy * cx
    return Vec3(
        v.x + 2.0 * (q.w * cx + dx),
        v.y + 2.0 * (q.w * cy + dy),
        v.z + 2.0 * (q.w * cz + dz),
    )


def axis_angle_quaternion(axis: Vec3, angle_deg: float) -> UnitQuaternion:
    """Quaternion for a rotation of angle_deg about axis."""
    return UnitQuaternion(*_axis_angle((axis.x, axis.y, axis.z), angle_deg))


# Array forms of the formulas above, one row per pose, for code that
# handles whole tracks: (N, 3) positions, (N, 4) quaternions (w, x, y,
# z), (N, 7) tracks of both.  Each row equals, bit for bit, what the
# per-object formula gives: same operations in the same order, and angles
# through math.acos, which np.arccos differs from in the last bit on some
# inputs.


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """translation_distance(a, b) of each row pair of two position
    arrays."""
    d = b - a
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])


def _angles_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rotation_angle_deg(a, b) of each row pair of two quaternion
    arrays."""
    c = a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2] + a[:, 3] * b[:, 3]
    c = np.minimum(1.0, np.abs(c))
    return np.degrees(2.0 * np.fromiter(map(math.acos, c.tolist()), float))


def _normalize_rows(q: np.ndarray) -> np.ndarray:
    """_normalize of each row of a quaternion array, in place; the rows
    must not be near zero."""
    q /= np.sqrt(q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1] + q[:, 2] * q[:, 2] + q[:, 3] * q[:, 3])[:, None]
    # The sign rule: the first nonzero component is positive.
    lead = q[np.arange(len(q)), np.argmax(q != 0.0, axis=1)]
    q[lead < 0.0] *= -1.0
    return q


def _hamilton_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_hamilton of each row pair of two quaternion arrays, not
    normalized; either may also be one quaternion of shape (4,)."""
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    return np.column_stack((
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ))


def _axis_angle_rows(axes: np.ndarray, angles_deg: np.ndarray) -> np.ndarray:
    """_axis_angle of each row of an (N, 3) axis array with its angle,
    not normalized.  The trig comes from math, as in _axis_angle: numpy's
    vectorized sin and cos may differ from it in the last bit."""
    ax, ay, az = axes.T
    n = np.sqrt(ax * ax + ay * ay + az * az)
    if (n < 1e-12).any():
        raise ValueError("rotation axis must be nonzero")
    half = (np.fromiter(map(math.radians, angles_deg.tolist()), float) * 0.5).tolist()
    s = np.fromiter(map(math.sin, half), float) / n
    return np.column_stack((np.fromiter(map(math.cos, half), float), ax * s, ay * s, az * s))


def _rotate_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """rotate(q, p) of each row pair; q may also be one quaternion (4,)."""
    qw, qx, qy, qz = q.T
    px, py, pz = p.T
    cx = qy * pz - qz * py
    cy = qz * px - qx * pz
    cz = qx * py - qy * px
    dx = qy * cz - qz * cy
    dy = qz * cx - qx * cz
    dz = qx * cy - qy * cx
    return np.column_stack((px + 2.0 * (qw * cx + dx), py + 2.0 * (qw * cy + dy), pz + 2.0 * (qw * cz + dz)))


def _apply_rigid(g: np.ndarray, t: np.ndarray, track: np.ndarray) -> np.ndarray:
    """A track under the rigid map with rotation g and translation t:
    positions go through RigidTransform.apply_point, orientations
    through compose(g, q).  g and t give one map, shapes (4,) and (3,),
    or one map per row, (N, 4) and (N, 3)."""
    pos = _rotate_rows(g, track[:, :3]) + t
    return np.column_stack((pos, _normalize_rows(_hamilton_rows(g, track[:, 3:]))))


# The slot descriptors of the frozen value classes; setting a field
# through one costs less than _set, which looks the slot up by name.
_new = object.__new__
_vx, _vy, _vz = Vec3.x.__set__, Vec3.y.__set__, Vec3.z.__set__
_qw, _qx, _qy, _qz = (
    UnitQuaternion.w.__set__, UnitQuaternion.x.__set__,
    UnitQuaternion.y.__set__, UnitQuaternion.z.__set__,
)
_pp, _pq = Pose.position.__set__, Pose.orientation.__set__


def _poses(track: np.ndarray) -> list[Pose]:
    """One Pose per row of a track whose rows are finite and whose
    quaternions are already normalized and sign-canonical.  The fields
    are stored as they are: running the constructors again would
    normalize a normalized quaternion once more, which can move its last
    bits."""
    out = []
    for x, y, z, w, qx, qy, qz in track.tolist():
        p = _new(Vec3)
        _vx(p, x)
        _vy(p, y)
        _vz(p, z)
        q = _new(UnitQuaternion)
        _qw(q, w)
        _qx(q, qx)
        _qy(q, qy)
        _qz(q, qz)
        pose = _new(Pose)
        _pp(pose, p)
        _pq(pose, q)
        out.append(pose)
    return out


class _FrameSequence(Sequence):
    """A read-only sequence whose fields each hold one entry per frame,
    named in __slots__.  Iteration, which subclasses define, builds every
    element; slicing slices every field, and indexing iterates the
    one-frame slice.  It equals any sequence with equal elements, a list
    of them included."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return type(self)(*(getattr(self, name)[i] for name in self.__slots__))
        i = range(len(self))[i]
        return next(iter(self[i : i + 1]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} frames>"


def _frozen(values, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """A read-only copy of values, which must have the given shape."""
    a = np.array(values, dtype=dtype)
    if a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    a.flags.writeable = False
    return a


class PoseTrack(_FrameSequence):
    """A sequence of poses in array form: one (N, 7) track, rows x, y,
    z, qw, qx, qy, qz as a Pose holds them, finite, with normalized and
    sign-canonical quaternions.

    It is a read-only sequence of Pose.  Indexing builds one Pose and
    iteration builds them all; it equals a list of equal poses."""

    __slots__ = ("track",)

    def __init__(self, track) -> None:
        self.track = _frozen(track, (len(track), 7))

    def __iter__(self) -> Iterator[Pose]:
        return iter(_poses(self.track))
