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
from dataclasses import dataclass
from math import isfinite
from typing import Iterable

import numpy as np

# Orthonormality / determinant bound for rotation matrices.
ROTATION_TOL = 1e-9

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
class RotationMatrix:
    """Proper rotation, 3x3.  Validated orthonormal with det +1."""

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"rotation matrix must be 3x3, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("rotation matrix entries must be finite")
        if not np.allclose(m @ m.T, np.eye(3), atol=ROTATION_TOL, rtol=0.0):
            raise ValueError("matrix is not orthonormal within 1e-9")
        if abs(np.linalg.det(m) - 1.0) > 1e-8:
            raise ValueError("matrix determinant is not +1, improper rotation rejected")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    def apply(self, v: Vec3) -> Vec3:
        return Vec3.from_array(self.m @ v.as_array())

    def to_quaternion(self) -> UnitQuaternion:
        """Shepperd-style extraction, branch on the largest diagonal term."""
        m = self.m
        t = np.trace(m)
        if t > 0.0:
            s = math.sqrt(t + 1.0) * 2.0
            w = 0.25 * s
            x = (m[2, 1] - m[1, 2]) / s
            y = (m[0, 2] - m[2, 0]) / s
            z = (m[1, 0] - m[0, 1]) / s
        elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            w = (m[2, 1] - m[1, 2]) / s
            x = 0.25 * s
            y = (m[0, 1] + m[1, 0]) / s
            z = (m[0, 2] + m[2, 0]) / s
        elif m[1, 1] > m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            w = (m[0, 2] - m[2, 0]) / s
            x = (m[0, 1] + m[1, 0]) / s
            y = 0.25 * s
            z = (m[1, 2] + m[2, 1]) / s
        else:
            s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            w = (m[1, 0] - m[0, 1]) / s
            x = (m[0, 2] + m[2, 0]) / s
            y = (m[1, 2] + m[2, 1]) / s
            z = 0.25 * s
        return UnitQuaternion(w, x, y, z)

    @classmethod
    def identity(cls) -> "RotationMatrix":
        return cls(np.eye(3))


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotation followed by translation, x' = R x + t."""

    rotation: RotationMatrix
    translation: Vec3

    def apply_point(self, p: Vec3) -> Vec3:
        return self.rotation.apply(p) + self.translation

    def apply_pose(self, pose: Pose) -> Pose:
        # Orientations pick up the transform rotation on the left, the
        # world frame is what the transform re-expresses.
        q = compose(self.rotation.to_quaternion(), pose.orientation)
        return Pose(self.apply_point(pose.position), q)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(RotationMatrix.identity(), Vec3.zero())

    @classmethod
    def from_quaternion(cls, q: UnitQuaternion, t: Vec3) -> "RigidTransform":
        return cls(to_rotation_matrix(q), t)


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


def to_rotation_matrix(q: UnitQuaternion) -> RotationMatrix:
    w, x, y, z = q.w, q.x, q.y, q.z
    m = np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )
    return RotationMatrix(m)


def rotate(q: UnitQuaternion, v: Vec3) -> Vec3:
    """Rotate a vector by a quaternion without building the matrix."""
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
    return np.degrees(2.0 * np.array([math.acos(v) for v in c.tolist()], dtype=float))


def _normalize_rows(q: np.ndarray) -> np.ndarray:
    """_normalize of each row of a quaternion array, in place; the rows
    must not be near zero."""
    q /= np.sqrt(q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1] + q[:, 2] * q[:, 2] + q[:, 3] * q[:, 3])[:, None]
    # The sign rule: the first nonzero component is positive.
    lead = q[np.arange(len(q)), np.argmax(q != 0.0, axis=1)]
    q[lead < 0.0] *= -1.0
    return q


def _apply_rigid(m: np.ndarray, g: np.ndarray, t: np.ndarray, track: np.ndarray) -> np.ndarray:
    """A track under the rigid map x -> m x + t, whose rotation m is the
    quaternion g: positions go through RigidTransform.apply_point,
    orientations through compose(g, q).  m, g and t give one map, shapes
    (3, 3), (4,) and (3,), or one map per row, (N, 3, 3), (N, 4) and
    (N, 3)."""
    # A stack of 3x3 @ 3x1 products runs the same kernel as the single
    # product in RotationMatrix.apply, so every row matches it bit for
    # bit; one (N, 3) @ (3, 3) product rounds about a quarter of the
    # entries differently.
    pos = np.matmul(m, track[:, :3, None])[:, :, 0]
    pos += t
    gw, gx, gy, gz = g.T
    w, x, y, z = track[:, 3:].T
    q = np.column_stack((
        gw * w - gx * x - gy * y - gz * z,
        gw * x + gx * w + gy * z - gz * y,
        gw * y - gx * z + gy * w + gz * x,
        gw * z + gx * y - gy * x + gz * w,
    ))
    return np.column_stack((pos, _normalize_rows(q)))


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
