import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from posefuse.geometry import (
    Odometry,
    Pose,
    RigidTransform,
    UnitQuaternion,
    Vec3,
    _axis_angle,
    _axis_angle_rows,
    _hamilton,
    _hamilton_rows,
    _poses,
    _rotate_rows,
    axis_angle_quaternion,
    compose,
    inverse,
    odometry,
    rotate,
    rotation_angle_deg,
    translation_distance,
)
from helpers import random_pose, random_quaternion, random_vec3
from oracles import matrix_rotation_angle_deg, quat_angle_stable_deg

QZ90 = UnitQuaternion(math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4))

finite_components = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
quaternions = st.tuples(
    finite_components, finite_components, finite_components, finite_components
).filter(lambda t: sum(v * v for v in t) > 1e-6).map(lambda t: UnitQuaternion(*t))


def scipy_rotation(q: UnitQuaternion) -> Rotation:
    return Rotation.from_quat([q.x, q.y, q.z, q.w])  # scipy is scalar-last


class TestVec3:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Vec3(0.0, float("nan"), 0.0)
        with pytest.raises(ValueError, match="finite"):
            Vec3(float("inf"), 0.0, 0.0)

    def test_arithmetic(self):
        v = Vec3(1.0, 2.0, 3.0) + Vec3(0.5, 0.5, 0.5) - Vec3(1.5, 2.5, 3.5)
        assert v == Vec3(0.0, 0.0, 0.0)
        assert (2.0 * Vec3(1.0, 0.0, -1.0)).norm() == pytest.approx(2.0 * math.sqrt(2))


class TestUnitQuaternion:
    def test_constructor_normalizes(self):
        q = UnitQuaternion(2.0, 0.0, 0.0, 0.0)
        assert q == UnitQuaternion.identity()

    def test_rejects_near_zero_norm(self):
        with pytest.raises(ValueError, match="norm"):
            UnitQuaternion(0.0, 0.0, 0.0, 1e-13)

    def test_canonical_sign_negative_w_flips(self):
        q = UnitQuaternion(-0.5, 0.5, 0.5, 0.5)
        assert q.w > 0 and q.x < 0

    def test_canonical_sign_tie_on_zero_w(self):
        # w == 0: first nonzero vector component decides.
        q = UnitQuaternion(0.0, -1.0, 0.0, 0.0)
        assert (q.w, q.x) == (0.0, 1.0)
        q = UnitQuaternion(0.0, 0.0, 0.0, -1.0)
        assert q.z == 1.0

    def test_double_cover_collapses_to_equal_components(self, rng):
        for _ in range(50):
            q = random_quaternion(rng)
            flipped = UnitQuaternion(-q.w, -q.x, -q.y, -q.z)
            np.testing.assert_allclose(flipped.as_array(), q.as_array(), atol=1e-15)


class TestCompose:
    def test_identity_neutral(self, rng):
        q = random_quaternion(rng)
        assert rotation_angle_deg(compose(UnitQuaternion.identity(), q), q) < 1e-9

    def test_quarter_turns_sum(self):
        q = compose(QZ90, QZ90)
        np.testing.assert_allclose(q.as_array(), [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_inverse_gives_identity(self, rng):
        q = random_quaternion(rng)
        np.testing.assert_allclose(
            compose(q, inverse(q)).as_array(), [1.0, 0.0, 0.0, 0.0], atol=1e-12
        )

    def test_matches_matrix_composition(self, rng):
        for _ in range(100):
            a, b = random_quaternion(rng), random_quaternion(rng)
            lhs = scipy_rotation(compose(a, b)).as_matrix()
            rhs = scipy_rotation(a).as_matrix() @ scipy_rotation(b).as_matrix()
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(quaternions, quaternions, quaternions)
    def test_associative(self, a, b, c):
        # Compare as rotations via the chord-based angle: componentwise
        # equality breaks at the w == 0 canonicalization boundary, and
        # the arccos form cannot resolve angles this small.
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert quat_angle_stable_deg(lhs.as_array(), rhs.as_array()) < 1e-6

    def test_matches_scipy(self, rng):
        for _ in range(50):
            a, b = random_quaternion(rng), random_quaternion(rng)
            ours = scipy_rotation(compose(a, b)).as_matrix()
            theirs = (scipy_rotation(a) * scipy_rotation(b)).as_matrix()
            np.testing.assert_allclose(ours, theirs, atol=1e-12)


class TestInverse:
    def test_identity(self):
        assert inverse(UnitQuaternion.identity()) == UnitQuaternion.identity()

    def test_conjugate_components(self):
        q = inverse(QZ90)
        assert q.w == pytest.approx(QZ90.w)
        assert q.z == pytest.approx(-QZ90.z)

    def test_involution(self, rng):
        q = random_quaternion(rng)
        np.testing.assert_allclose(inverse(inverse(q)).as_array(), q.as_array(), atol=1e-15)


class TestRotationAngle:
    def test_self_is_zero(self, rng):
        # Renormalization leaves |q|^2 an ulp away from 1, so "zero"
        # means zero at arccos precision.
        q = random_quaternion(rng)
        assert rotation_angle_deg(q, q) == pytest.approx(0.0, abs=1e-5)

    def test_quarter_turn(self):
        assert rotation_angle_deg(UnitQuaternion.identity(), QZ90) == pytest.approx(90.0)

    def test_double_cover(self, rng):
        q = random_quaternion(rng)
        neg = UnitQuaternion(-q.w, -q.x, -q.y, -q.z)
        assert rotation_angle_deg(q, neg) == 0.0

    def test_symmetric(self, rng):
        for _ in range(100):
            a, b = random_quaternion(rng), random_quaternion(rng)
            assert rotation_angle_deg(a, b) == rotation_angle_deg(b, a)

    def test_range_and_no_nan(self, rng):
        # Near-identical arguments push |dot| above 1 by rounding.
        axis = Vec3(1.0, 2.0, 3.0)
        a = axis_angle_quaternion(axis, 10.0)
        b = compose(a, axis_angle_quaternion(Vec3(1.0, 0.0, 0.0), 1e-14))
        ang = rotation_angle_deg(a, b)
        assert math.isfinite(ang) and 0.0 <= ang <= 180.0
        for _ in range(200):
            ang = rotation_angle_deg(random_quaternion(rng), random_quaternion(rng))
            assert 0.0 <= ang <= 180.0

    def test_matches_matrix_trace_oracle(self, rng):
        for _ in range(200):
            a, b = random_quaternion(rng), random_quaternion(rng)
            expect = matrix_rotation_angle_deg(
                scipy_rotation(a).as_matrix(), scipy_rotation(b).as_matrix()
            )
            assert rotation_angle_deg(a, b) == pytest.approx(expect, abs=1e-6)

    def test_matches_scipy_magnitude(self, rng):
        for _ in range(50):
            a, b = random_quaternion(rng), random_quaternion(rng)
            expect = math.degrees((scipy_rotation(a).inv() * scipy_rotation(b)).magnitude())
            assert rotation_angle_deg(a, b) == pytest.approx(expect, abs=1e-6)


class TestTranslationDistance:
    def test_three_four_five(self):
        assert translation_distance(Vec3(0, 0, 0), Vec3(3, 4, 0)) == 5.0

    def test_zero(self):
        assert translation_distance(Vec3(1, 1, 1), Vec3(1, 1, 1)) == 0.0

    def test_axis_offset(self):
        assert translation_distance(Vec3(0, 0, 0), Vec3(0, 0, 2)) == 2.0


class TestOdometry:
    def test_same_pose(self, rng):
        p = random_pose(rng)
        u = odometry(p, p)
        assert (u.dist, u.angle) == (0.0, 0.0)

    def test_worked_pair(self):
        a = Pose(Vec3(0, 0, 0), UnitQuaternion.identity())
        b = Pose(Vec3(3, 4, 0), QZ90)
        u = odometry(a, b)
        assert u.dist == pytest.approx(5.0)
        assert u.angle == pytest.approx(90.0)

    def test_symmetric(self, rng):
        a, b = random_pose(rng), random_pose(rng)
        assert odometry(a, b) == odometry(b, a)

    def test_validation(self):
        with pytest.raises(ValueError, match="distance"):
            Odometry(-0.1, 0.0)
        with pytest.raises(ValueError, match="angle"):
            Odometry(0.0, 180.5)


class TestRotate:
    def test_z_quarter_turn_maps_x_to_y(self):
        np.testing.assert_allclose(rotate(QZ90, Vec3(1, 0, 0)).as_array(), [0, 1, 0], atol=1e-12)

    def test_matches_matrix_apply(self, rng):
        for _ in range(100):
            q, v = random_quaternion(rng), random_vec3(rng)
            np.testing.assert_allclose(
                rotate(q, v).as_array(),
                scipy_rotation(q).apply(v.as_array()),
                atol=1e-9,
            )

    def test_sign_canonicalization_is_invisible(self, rng):
        # Same rotation either way, by construction of the double cover.
        for _ in range(50):
            w, x, y, z = rng.normal(size=4)
            q = UnitQuaternion(w, x, y, z)
            n = math.sqrt(w * w + x * x + y * y + z * z)
            raw = np.array([w, x, y, z]) / n
            v = random_vec3(rng)
            r_raw = Rotation.from_quat([raw[1], raw[2], raw[3], raw[0]])
            np.testing.assert_allclose(rotate(q, v).as_array(), r_raw.apply(v.as_array()), atol=1e-12)


class TestAxisAngle:
    def test_ninety_about_z(self):
        q = axis_angle_quaternion(Vec3(0, 0, 2.0), 90.0)  # axis length irrelevant
        np.testing.assert_allclose(q.as_array(), QZ90.as_array(), atol=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            axis_angle_quaternion(Vec3(0, 0, 0), 10.0)

    def test_angle_recovered(self, rng):
        for _ in range(50):
            axis = random_vec3(rng)
            if axis.norm() < 1e-6:
                continue
            ang = float(rng.uniform(0.0, 179.0))
            q = axis_angle_quaternion(axis, ang)
            assert rotation_angle_deg(UnitQuaternion.identity(), q) == pytest.approx(ang, abs=1e-9)


class TestRigidTransform:
    def test_identity(self, rng):
        p = random_pose(rng)
        out = RigidTransform.identity().apply_pose(p)
        assert translation_distance(out.position, p.position) < 1e-12
        assert rotation_angle_deg(out.orientation, p.orientation) < 1e-9

    def test_point_and_pose_agree(self, rng):
        t = RigidTransform(random_quaternion(rng), random_vec3(rng))
        p = random_pose(rng)
        assert t.apply_pose(p).position == t.apply_point(p.position)

    def test_orientation_left_composed(self, rng):
        q = random_quaternion(rng)
        t = RigidTransform(q, Vec3.zero())
        p = random_pose(rng)
        expect = compose(q, p.orientation)
        assert rotation_angle_deg(t.apply_pose(p).orientation, expect) < 1e-9

    def test_preserves_distances(self, rng):
        t = RigidTransform(random_quaternion(rng), random_vec3(rng))
        a, b = random_vec3(rng), random_vec3(rng)
        assert translation_distance(t.apply_point(a), t.apply_point(b)) == pytest.approx(
            translation_distance(a, b), abs=1e-9
        )


def hexes(values):
    return [float.hex(v) for v in values]


def signed_zero_rows(rng, n, width):
    """Random rows with +0.0 and -0.0 scattered through every column."""
    a = rng.normal(size=(n, width))
    a[rng.random((n, width)) < 0.15] = 0.0
    a[rng.random((n, width)) < 0.15] = -0.0
    return a


class TestRowPrimitives:
    """The row forms equal the tuple forms by float.hex, row for row,
    signed zeros included."""

    def test_hamilton_rows(self, rng):
        a, b = signed_zero_rows(rng, 400, 4), signed_zero_rows(rng, 400, 4)
        got = _hamilton_rows(a, b).tolist()
        assert [hexes(r) for r in got] == [hexes(_hamilton(x, y)) for x, y in zip(a.tolist(), b.tolist())]
        # One quaternion against every row.
        got = _hamilton_rows(a[7], b).tolist()
        assert [hexes(r) for r in got] == [hexes(_hamilton(a[7].tolist(), y)) for y in b.tolist()]

    def test_axis_angle_rows(self, rng):
        axes = signed_zero_rows(rng, 400, 3)
        axes = axes[np.sqrt((axes * axes).sum(axis=1)) >= 1e-12]
        angles = rng.uniform(-400.0, 400.0, len(axes))
        angles[::7] = 0.0
        angles[::11] = -0.0
        got = _axis_angle_rows(axes, angles).tolist()
        expect = [_axis_angle(x, a) for x, a in zip(axes.tolist(), angles.tolist())]
        assert [hexes(r) for r in got] == [hexes(r) for r in expect]

    def test_rotate_rows(self, rng):
        q, pts = signed_zero_rows(rng, 400, 4), signed_zero_rows(rng, 400, 3)
        # Poses built from the raw rows, so rotate reads the same bits.
        poses = _poses(np.column_stack((pts, q)))
        expect = [rotate(pose.orientation, pose.position) for pose in poses]
        assert [hexes(r) for r in _rotate_rows(q, pts).tolist()] == [hexes((v.x, v.y, v.z)) for v in expect]
        # One quaternion against every row.
        expect = [rotate(poses[7].orientation, pose.position) for pose in poses]
        assert [hexes(r) for r in _rotate_rows(q[7], pts).tolist()] == [hexes((v.x, v.y, v.z)) for v in expect]

    def test_axis_angle_rows_rejects_a_zero_axis(self):
        with pytest.raises(ValueError, match="nonzero"):
            _axis_angle_rows(np.array([[1.0, 0.0, 0.0], [0.0, -0.0, 0.0]]), np.array([1.0, 2.0]))
