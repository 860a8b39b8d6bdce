from __future__ import annotations

import math

import numpy as np

from posefuse.fusion import _average_quaternions, _medians
from posefuse.geometry import Pose, _pose, _poses, odometry
from oracles import axis_angle_quaternion, hamilton_product

# Positions are (x, y, z) tuples and quaternions (w, x, y, z) tuples; a
# pose is built from both as Pose(*p, *q).


def unit_quaternion(w: float, x: float, y: float, z: float) -> tuple[float, float, float, float]:
    """The quaternion normalized and sign-canonicalized as the Pose
    constructor stores it, as a tuple with fields w, x, y, z."""
    return Pose(0.0, 0.0, 0.0, w, x, y, z).orientation


def random_quaternion(rng: np.random.Generator) -> tuple[float, float, float, float]:
    return unit_quaternion(*rng.normal(size=4).tolist())


def random_vec3(rng: np.random.Generator, scale: float = 10.0) -> tuple[float, float, float]:
    return tuple(rng.uniform(-scale, scale, size=3).tolist())


def random_pose(rng: np.random.Generator, scale: float = 10.0) -> Pose:
    return Pose(*random_vec3(rng, scale), *rng.normal(size=4).tolist())


def rotation_angle_deg(a, b) -> float:
    """The relative rotation angle of two orientations: the package's
    one angle formula, odometry's, on two poses at the origin that store
    the components as they are."""
    return odometry(_pose(0.0, 0.0, 0.0, *a), _pose(0.0, 0.0, 0.0, *b))[1]


def point_distance(a, b) -> float:
    """Euclidean distance of two points, by math.dist."""
    return math.dist(a, b)


# Test rotations are built from the plain-float formulas of
# tests/oracles.py, normalized as the Pose constructor normalizes them;
# results are checked against that module too.


def rotation_about(axis: tuple[float, float, float], angle_deg: float) -> tuple[float, float, float, float]:
    """Rotation of angle_deg about axis."""
    return unit_quaternion(*axis_angle_quaternion(axis, angle_deg))


def median_of(points) -> tuple[float, float, float]:
    """The geometric median of one window of points: _medians on a
    stack of one."""
    return tuple(_medians(np.array([points], dtype=float))[0].tolist())


def average_of(quats) -> tuple[float, float, float, float]:
    """The rotation average of one window of quaternions:
    _average_quaternions on a stack of one, its row taken as it is."""
    q = _average_quaternions(np.array([quats], dtype=float))
    return _poses(np.column_stack((np.zeros((1, 3)), q)))[0].orientation


def quat_product(a, b) -> tuple[float, float, float, float]:
    """The rotation a then b on the body side, a * b."""
    return unit_quaternion(*hamilton_product(a, b))
