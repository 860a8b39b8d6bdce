from __future__ import annotations

import math

import numpy as np

from posefuse.geometry import Pose, UnitQuaternion, Vec3, _axis_angle, _hamilton


def random_quaternion(rng: np.random.Generator) -> UnitQuaternion:
    w, x, y, z = rng.normal(size=4)
    return UnitQuaternion(w, x, y, z)


def random_vec3(rng: np.random.Generator, scale: float = 10.0) -> Vec3:
    x, y, z = rng.uniform(-scale, scale, size=3)
    return Vec3(x, y, z)


def random_pose(rng: np.random.Generator, scale: float = 10.0) -> Pose:
    return Pose(random_vec3(rng, scale), random_quaternion(rng))


def point_distance(a: Vec3, b: Vec3) -> float:
    """Euclidean distance of two points, by math.dist."""
    return math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))


# Test inputs are built from the package's float forms, through the
# UnitQuaternion constructor; results are checked against tests/oracles.py.


def rotation_about(axis: tuple[float, float, float], angle_deg: float) -> UnitQuaternion:
    """Rotation of angle_deg about axis."""
    return UnitQuaternion(*_axis_angle(axis, angle_deg))


def quat_product(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """The rotation a then b on the body side, a * b."""
    return UnitQuaternion(*_hamilton((a.w, a.x, a.y, a.z), (b.w, b.x, b.y, b.z)))
