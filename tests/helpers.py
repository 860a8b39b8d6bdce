from __future__ import annotations

import math

import numpy as np

from posefuse.fusion import _average_quaternions, _medians
from posefuse.geometry import Pose, UnitQuaternion, Vec3, _angle_deg, _poses
from oracles import axis_angle_quaternion, hamilton_product


def random_quaternion(rng: np.random.Generator) -> UnitQuaternion:
    w, x, y, z = rng.normal(size=4)
    return UnitQuaternion(w, x, y, z)


def random_vec3(rng: np.random.Generator, scale: float = 10.0) -> Vec3:
    x, y, z = rng.uniform(-scale, scale, size=3)
    return Vec3(x, y, z)


def random_pose(rng: np.random.Generator, scale: float = 10.0) -> Pose:
    return Pose(random_vec3(rng, scale), random_quaternion(rng))


def xyz(v: Vec3) -> tuple[float, float, float]:
    return v.x, v.y, v.z


def wxyz(q: UnitQuaternion) -> tuple[float, float, float, float]:
    return q.w, q.x, q.y, q.z


def rotation_angle_deg(a: UnitQuaternion, b: UnitQuaternion) -> float:
    """The relative rotation angle of two orientations: the package's
    one angle formula, geometry._angle_deg, on their components."""
    return _angle_deg(*wxyz(a), *wxyz(b))


def point_distance(a: Vec3, b: Vec3) -> float:
    """Euclidean distance of two points, by math.dist."""
    return math.dist(xyz(a), xyz(b))


# Test rotations are built from the plain-float formulas of
# tests/oracles.py, through the UnitQuaternion constructor; results are
# checked against that module too.


def rotation_about(axis: tuple[float, float, float], angle_deg: float) -> UnitQuaternion:
    """Rotation of angle_deg about axis."""
    return UnitQuaternion(*axis_angle_quaternion(axis, angle_deg))


def median_of(points: list[Vec3]) -> Vec3:
    """The geometric median of one window of points: _medians on a
    stack of one."""
    return Vec3(*_medians(np.array([[xyz(p) for p in points]]))[0].tolist())


def average_of(quats: list[UnitQuaternion]) -> UnitQuaternion:
    """The rotation average of one window of quaternions:
    _average_quaternions on a stack of one, its row taken as it is."""
    q = _average_quaternions(np.array([[wxyz(q) for q in quats]]))
    return _poses(np.column_stack((np.zeros((1, 3)), q)))[0].orientation


def quat_product(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """The rotation a then b on the body side, a * b."""
    return UnitQuaternion(*hamilton_product(wxyz(a), wxyz(b)))
