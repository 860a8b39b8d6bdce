import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from posefuse.geometry import (
    COORD_LIMIT,
    Pose,
    _axis_angle_rows,
    _hamilton,
    _hamilton_rows,
    _motions,
    _normalize,
    _normalize_rows,
    _poses,
    _rotate,
    _rotate_rows,
    apply_rigid,
    odometry,
    track_array,
)
from posefuse.cli import main
from posefuse.fusion import (
    FusionConfig, FusionState, Label, ReferencePair, compute_reference, optimize_pose, relative_pose_check,
    run_sequence, step,
)
from posefuse.io import Recording
from posefuse.synth import AprNoiseModel, TrajectoryConfig, VioNoiseModel, generate_gt, simulate_apr, simulate_vio
from helpers import (
    point_distance, quat_product, random_pose, random_quaternion, random_vec3, rotation_about, rotation_angle_deg,
    unit_quaternion,
)
from oracles import (
    axis_angle_quaternion,
    chordal_distance,
    matrix_rotation_angle_deg,
    object_apply_pose,
    object_odometry,
    quat_angle_stable_deg,
    rigid_map_pose,
    rotation_matrix,
)

IDENTITY = (1.0, 0.0, 0.0, 0.0)
QZ90 = unit_quaternion(math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4))

finite_components = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
quaternions = st.tuples(
    finite_components, finite_components, finite_components, finite_components
).filter(lambda t: sum(v * v for v in t) > 1e-6).map(lambda t: unit_quaternion(*t))


def scipy_rotation(q) -> Rotation:
    w, x, y, z = q
    return Rotation.from_quat([x, y, z, w])  # scipy is scalar-last


class TestUnitQuaternion:
    """The quaternion rule of Pose(x, y, z, qw, qx, qy, qz); its
    coordinate bound is tested in test_input_rules.py."""

    def test_constructor_normalizes(self):
        p = Pose(1, 2, 3, 2, 0, 0, 0)
        assert (p.qw, p.qx, p.qy, p.qz) == (1.0, 0.0, 0.0, 0.0)
        assert all(type(getattr(p, name)) is float for name in Pose.__slots__)

    def test_rejects_near_zero_norm(self):
        with pytest.raises(ValueError, match="norm"):
            Pose(0, 0, 0, 0.0, 0.0, 0.0, 1e-13)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_components(self, bad):
        for k in range(4):
            q = [0.5, 0.5, 0.5, 0.5]
            q[k] = bad
            with pytest.raises(ValueError, match="^quaternion components must be finite"):
                Pose(0, 0, 0, *q)

    def test_canonical_sign_negative_w_flips(self):
        q = unit_quaternion(-0.5, 0.5, 0.5, 0.5)
        assert q.w > 0 and q.x < 0

    def test_canonical_sign_tie_on_zero_w(self):
        # w == 0: first nonzero vector component decides.
        q = unit_quaternion(0.0, -1.0, 0.0, 0.0)
        assert (q.w, q.x) == (0.0, 1.0)
        q = unit_quaternion(0.0, 0.0, 0.0, -1.0)
        assert q.z == 1.0

    def test_double_cover_collapses_to_equal_components(self, rng):
        for _ in range(50):
            q = random_quaternion(rng)
            flipped = unit_quaternion(-q.w, -q.x, -q.y, -q.z)
            np.testing.assert_allclose(flipped, q, atol=1e-15)


class TestCompose:
    """Composition of rotations, the Hamilton product a * b normalized
    as a rigid map composes orientations, against scipy's rotations."""

    def test_identity_neutral(self, rng):
        q = random_quaternion(rng)
        assert quat_angle_stable_deg(quat_product(IDENTITY, q), q) < 1e-9

    def test_quarter_turns_sum(self):
        q = quat_product(QZ90, QZ90)
        np.testing.assert_allclose(q, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_inverse_gives_identity(self, rng):
        q = random_quaternion(rng)
        conjugate = unit_quaternion(q.w, -q.x, -q.y, -q.z)
        np.testing.assert_allclose(quat_product(q, conjugate), [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_matches_matrix_composition(self, rng):
        for _ in range(100):
            a, b = random_quaternion(rng), random_quaternion(rng)
            lhs = scipy_rotation(quat_product(a, b)).as_matrix()
            rhs = scipy_rotation(a).as_matrix() @ scipy_rotation(b).as_matrix()
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(quaternions, quaternions, quaternions)
    def test_associative(self, a, b, c):
        # Compare as rotations via the chord-based angle: componentwise
        # equality breaks at the w == 0 canonicalization boundary, and
        # the arccos form cannot resolve angles this small.
        lhs = quat_product(quat_product(a, b), c)
        rhs = quat_product(a, quat_product(b, c))
        assert quat_angle_stable_deg(lhs, rhs) < 1e-6

    def test_matches_scipy(self, rng):
        for _ in range(50):
            a, b = random_quaternion(rng), random_quaternion(rng)
            ours = scipy_rotation(quat_product(a, b)).as_matrix()
            theirs = (scipy_rotation(a) * scipy_rotation(b)).as_matrix()
            np.testing.assert_allclose(ours, theirs, atol=1e-12)


class TestRotationAngle:
    def test_self_is_zero(self, rng):
        # Renormalization leaves |q|^2 an ulp away from 1, so "zero"
        # means zero at arccos precision.
        q = random_quaternion(rng)
        assert rotation_angle_deg(q, q) == pytest.approx(0.0, abs=1e-5)

    def test_quarter_turn(self):
        assert rotation_angle_deg(IDENTITY, QZ90) == pytest.approx(90.0)

    def test_double_cover(self, rng):
        q = random_quaternion(rng)
        neg = unit_quaternion(-q.w, -q.x, -q.y, -q.z)
        assert rotation_angle_deg(q, neg) == 0.0

    def test_symmetric(self, rng):
        for _ in range(100):
            a, b = random_quaternion(rng), random_quaternion(rng)
            assert rotation_angle_deg(a, b) == rotation_angle_deg(b, a)

    def test_range_and_no_nan(self, rng):
        # Near-identical arguments push |dot| above 1 by rounding.
        a = rotation_about((1.0, 2.0, 3.0), 10.0)
        b = quat_product(a, rotation_about((1.0, 0.0, 0.0), 1e-14))
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


def at(x, y, z):
    return Pose(x, y, z, *IDENTITY)


class TestTranslationDistance:
    """The distance odometry measures between two positions."""

    def test_three_four_five(self):
        dist, _ = odometry(at(0, 0, 0), at(3, 4, 0))
        assert dist == 5.0

    def test_zero(self):
        dist, _ = odometry(at(1, 1, 1), at(1, 1, 1))
        assert dist == 0.0

    def test_axis_offset(self):
        dist, _ = odometry(at(0, 0, 0), at(0, 0, 2))
        assert dist == 2.0


class TestOdometry:
    def test_same_pose(self, rng):
        p = random_pose(rng)
        dist, angle = odometry(p, p)
        assert (dist, angle) == (0.0, 0.0)

    def test_worked_pair(self):
        a = at(0, 0, 0)
        b = Pose(3, 4, 0, *QZ90)
        dist, angle = odometry(a, b)
        assert dist == pytest.approx(5.0)
        assert angle == pytest.approx(90.0)

    def test_symmetric(self, rng):
        a, b = random_pose(rng), random_pose(rng)
        assert odometry(a, b) == odometry(b, a)

    def test_validation(self):
        # The angle is in [0, 180] for any poses, here at a half turn.
        u = odometry(at(0, 0, 0), Pose(0, 0, 0, 0.0, 1.0, 0.0, 0.0))
        assert type(u) is tuple and u == (0.0, 180.0)


class TestRotate:
    """_rotate, q v q*, against scipy's rotations."""

    def test_z_quarter_turn_maps_x_to_y(self):
        np.testing.assert_allclose(_rotate(QZ90, (1, 0, 0)), [0, 1, 0], atol=1e-12)

    def test_matches_matrix_apply(self, rng):
        for _ in range(100):
            q, v = random_quaternion(rng), random_vec3(rng)
            np.testing.assert_allclose(
                _rotate(q, v),
                scipy_rotation(q).apply(v),
                atol=1e-9,
            )

    def test_sign_canonicalization_is_invisible(self, rng):
        # Same rotation either way, by construction of the double cover.
        for _ in range(50):
            w, x, y, z = rng.normal(size=4)
            q = unit_quaternion(w, x, y, z)
            n = math.sqrt(w * w + x * x + y * y + z * z)
            raw = np.array([w, x, y, z]) / n
            v = random_vec3(rng)
            r_raw = Rotation.from_quat([raw[1], raw[2], raw[3], raw[0]])
            np.testing.assert_allclose(_rotate(q, v), r_raw.apply(v), atol=1e-12)


def axis_angle(axis, angle_deg):
    """_axis_angle_rows of one axis, normalized as Pose normalizes it."""
    return unit_quaternion(*_axis_angle_rows(np.array([axis], dtype=float), np.array([angle_deg]))[0].tolist())


class TestAxisAngle:
    """_axis_angle_rows, normalized as Pose normalizes it."""

    def test_ninety_about_z(self):
        q = axis_angle((0, 0, 2.0), 90.0)  # axis length irrelevant
        np.testing.assert_allclose(q, QZ90, atol=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            axis_angle((0, 0, 0), 10.0)

    def test_angle_recovered(self, rng):
        for _ in range(50):
            axis = random_vec3(rng)
            if math.hypot(*axis) < 1e-6:
                continue
            ang = float(rng.uniform(0.0, 179.0))
            q = axis_angle(axis, ang)
            assert quat_angle_stable_deg(IDENTITY, q) == pytest.approx(ang, abs=1e-9)
            assert scipy_rotation(q).as_rotvec() == pytest.approx(
                np.radians(ang) * np.array(axis) / np.linalg.norm(axis), abs=1e-12
            )


def rigid_row(q, t, p: Pose) -> np.ndarray:
    """The track row of pose p under the rigid map (q, t), by apply_rigid."""
    return apply_rigid(np.array(q), np.array(t), track_array([p]))[0]


class TestRigidTransform:
    """apply_rigid, the rigid map (q, t), against rigid_map_pose, the map
    through scipy's rotations (tests/oracles.py)."""

    def test_identity(self, rng):
        p = random_pose(rng)
        out = rigid_row(IDENTITY, (0.0, 0.0, 0.0), p)
        assert math.dist(out[:3], p.position) < 1e-12
        assert chordal_distance(out[3:], p.orientation) < 1e-12

    def test_point_and_pose_agree(self, rng):
        # The position of a mapped pose is its point under the map.
        for _ in range(50):
            q, t = random_quaternion(rng), random_vec3(rng)
            p = random_pose(rng)
            expect, _ = rigid_map_pose(q, t, p.position, p.orientation)
            assert math.dist(rigid_row(q, t, p)[:3], expect) < 1e-12

    def test_orientation_left_composed(self, rng):
        q = random_quaternion(rng)
        p = random_pose(rng)
        _, expect = rigid_map_pose(q, (0.0, 0.0, 0.0), p.position, p.orientation)
        assert chordal_distance(rigid_row(q, (0.0, 0.0, 0.0), p)[3:], expect) < 1e-12

    def test_preserves_distances(self, rng):
        q, t = random_quaternion(rng), random_vec3(rng)
        a, b = random_pose(rng), random_pose(rng)
        assert math.dist(rigid_row(q, t, a)[:3], rigid_row(q, t, b)[:3]) == pytest.approx(
            point_distance(a.position, b.position), abs=1e-9
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
    signed zeros included; _axis_angle_rows, which has no tuple form,
    equals the oracles' plain-float formula."""

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
        expect = [axis_angle_quaternion(x, a) for x, a in zip(axes.tolist(), angles.tolist())]
        assert [hexes(r) for r in got] == [hexes(r) for r in expect]

    def test_rotate_rows(self, rng):
        q, pts = signed_zero_rows(rng, 400, 4), signed_zero_rows(rng, 400, 3)
        got = _rotate_rows(q, pts).tolist()
        assert [hexes(r) for r in got] == [hexes(_rotate(a, v)) for a, v in zip(q.tolist(), pts.tolist())]
        # One quaternion against every row.
        got = _rotate_rows(q[7], pts).tolist()
        assert [hexes(r) for r in got] == [hexes(_rotate(q[7].tolist(), v)) for v in pts.tolist()]

    @pytest.mark.parametrize("n", [1, 2, 5, 400])
    def test_normalize_rows(self, rng, n):
        q = signed_zero_rows(rng, n + 4, 4)
        q = q[np.sqrt((q * q).sum(axis=1)) >= 1e-6][:n]
        # Leading zeros of both signs before a negative, and a row of
        # an absent group, which stays NaN.
        q[0, :3] = (-0.0, 0.0, -0.0)
        q[0, 3] = -abs(q[0, 3]) or -1.0
        if n > 1:
            q[1] = math.nan
        expect = [hexes(_normalize(r)) for r in q.tolist()]
        # In place, on a column view of a wider table as the parser has it.
        table = np.zeros((len(q), 7))
        table[:, 3:] = q
        _normalize_rows(table[:, 3:])
        assert [hexes(r) for r in table[:, 3:].tolist()] == expect
        assert (table[:, :3] == 0.0).all()
        assert hexes(table[0, 3:]) == hexes((0.0, -0.0, 0.0, 1.0))

    def test_axis_angle_rows_rejects_a_zero_axis(self):
        with pytest.raises(ValueError, match="nonzero"):
            _axis_angle_rows(np.array([[1.0, 0.0, 0.0], [0.0, -0.0, 0.0]]), np.array([1.0, 2.0]))


def unit_rows(rng, n):
    """Unit quaternion rows, most of n, with signed zeros scattered
    through every column."""
    q = signed_zero_rows(rng, n, 4)
    norm = np.sqrt((q * q).sum(axis=1))
    return q[norm > 0.1] / norm[norm > 0.1, None]


class TestFormulasAgainstMatrices:
    """_rotate and _hamilton, which the row forms apply to columns,
    against rotation matrices written out by hand (tests/oracles.py):
    q v q* is R(q) v, and R(a b) is R(a) R(b).  The float.hex tests above
    check the columns; these check the formulas."""

    def test_rotate(self, rng):
        q = unit_rows(rng, 400)
        v = signed_zero_rows(rng, len(q), 3) * 10.0
        expect = np.array([rotation_matrix(a) @ b for a, b in zip(q, v)])
        got = np.array([_rotate(a, b) for a, b in zip(q.tolist(), v.tolist())])
        assert np.abs(got - expect).max() < 1e-12
        assert np.abs(_rotate_rows(q, v) - expect).max() < 1e-12

    def test_hamilton(self, rng):
        a, b = unit_rows(rng, 400), unit_rows(rng, 400)
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        expect = np.array([rotation_matrix(x) @ rotation_matrix(y) for x, y in zip(a, b)])
        products = np.array([_hamilton(x, y) for x, y in zip(a.tolist(), b.tolist())])
        for ab in (products, _hamilton_rows(a, b)):
            got = np.array([rotation_matrix(r) for r in ab])
            assert np.abs(got - expect).max() < 1e-12


def edge_poses(rng, n, scale=10.0):
    """n poses with +0.0 and -0.0 scattered through every field and a
    half turn (w == 0, of either sign) on every fifth."""
    pos = signed_zero_rows(rng, n, 3) * scale
    quat = signed_zero_rows(rng, n, 4)
    quat[::5, 0] = 0.0
    quat[::10, 0] = -0.0
    quat[np.abs(quat).sum(axis=1) < 1e-3] = [-0.0, 0.0, 1.0, -0.0]
    return [Pose(*p, *q) for p, q in zip(pos.tolist(), quat.tolist())]


def pose_hexes(pose):
    return hexes(track_array([pose])[0].tolist())


ORIGIN = Pose(0.0, 0.0, 0.0, *IDENTITY)


class TestFloatForms:
    """odometry and optimize_pose compute in plain floats; they equal the
    object forms they replaced (tests/oracles.py, with each constructor's
    checks written out) by float.hex, at any coordinates the input rules
    admit."""

    def test_odometry_matches_object_form(self, rng):
        poses = edge_poses(rng, 10_000)
        others = poses[3:] + poses[:3]
        # Coincident poses: the same object, and an equal copy.
        others[::9] = poses[::9]
        others[1::9] = [copy.copy(p) for p in poses[1::9]]
        for a, b in zip(poses, others):
            u = odometry(a, b)
            assert type(u) is tuple and [type(v) for v in u] == [float, float]
            assert hexes(u) == hexes(object_odometry(a, b))

    def test_apply_pose_matches_object_form(self, rng):
        poses = edge_poses(rng, 10_000)
        vio_refs = edge_poses(rng, 10_000)
        # A vio reference at the origin leaves the apr reference's edge
        # cases in the map's rotation and translation.
        vio_refs[::2] = [ORIGIN] * len(vio_refs[::2])
        refs = [ReferencePair(a, v) for a, v in zip(edge_poses(rng, 10_000, scale=100.0), vio_refs)]
        refs[::7] = [ReferencePair(ORIGIN, ORIGIN)] * len(refs[::7])
        for ref, p in zip(refs, poses):
            out = optimize_pose(p, ref)
            assert type(out) is Pose
            t, q = ref._map
            assert pose_hexes(out) == hexes(object_apply_pose(q, t, p))

    def test_huge_coordinates_match_object_form(self, rng):
        # Coordinates up to just below the bound: every difference,
        # squared distance and mapped coordinate stays finite, so neither
        # form raises, and the float forms still equal the object forms.
        for scale in (1e100, 1e149, math.nextafter(COORD_LIMIT, 0.0)):
            poses = edge_poses(rng, 200, scale=1.0)
            coords = scale * np.clip(rng.normal(size=(len(poses), 3)), -1.0, 1.0)
            big = [Pose(*c, *p.orientation) for c, p in zip(coords.tolist(), poses)]
            for a, b in zip(big, big[1:] + poses[:1]):
                assert hexes(odometry(a, b)) == hexes(object_odometry(a, b))
            for a, b in zip(big, big[::-1]):
                # The map of this pair is b's pose: translation b.position.
                ref = ReferencePair(b, ORIGIN)
                t, q = ref._map
                assert pose_hexes(optimize_pose(a, ref)) == hexes(object_apply_pose(q, t, a))


# The resolution of an angle through acos: a dot product off by up to
# 1e-15 (four rounded products of unit quaternions) moves acos by at most
# acos(1 - 1e-15), which is largest near zero angle.
ACOS_RESOLUTION_DEG = math.degrees(2.0 * math.acos(1.0 - 1e-15))


class TestMotions:
    """_motions, the row form of odometry: its rows equal odometry of
    each pair by float.hex (the column plumbing), and its distances and
    angles match independent oracles (the formula)."""

    def test_rows_match_odometry(self, rng):
        poses = edge_poses(rng, 4000)
        others = poses[3:] + poses[:3]
        # Coincident poses: the same object, and an equal copy.
        others[::9] = poses[::9]
        others[1::9] = [copy.copy(p) for p in poses[1::9]]
        got = _motions(track_array(poses), track_array(others))
        assert type(got) is tuple and [type(v) for v in got] == [np.ndarray, np.ndarray]
        dist, angle = got
        expect = [odometry(a, b) for a, b in zip(poses, others)]
        assert [hexes(r) for r in zip(dist.tolist(), angle.tolist())] == [hexes(u) for u in expect]

    def test_against_oracles(self, rng):
        a = track_array(edge_poses(rng, 2000))
        b = track_array(edge_poses(rng, 2000))
        # Near-identical orientations probe acos close to 1.
        b[::4, 3:] = a[::4, 3:] + rng.normal(scale=1e-9, size=(500, 4))
        b[::4, 3:] /= np.linalg.norm(b[::4, 3:], axis=1)[:, None]
        dist, angle = _motions(a, b)
        assert np.abs(dist - np.linalg.norm(b[:, :3] - a[:, :3], axis=1)).max() < 1e-12
        expect = np.array([quat_angle_stable_deg(p, q) for p, q in zip(a[:, 3:], b[:, 3:])])
        assert np.abs(angle - expect).max() <= ACOS_RESOLUTION_DEG

    def test_gate_on_arrays_matches_float_calls(self, rng):
        cfg = FusionConfig()
        n = 3000
        # Motions on a grid of tenths, so many differences sit at or
        # next to the thresholds, and random ones around them.
        dist = np.concatenate((rng.integers(0, 30, (n, 2)) / 10.0, rng.uniform(0.0, 3.0, (n, 2))))
        angle = np.concatenate((rng.integers(0, 300, (n, 2)) / 10.0, rng.uniform(0.0, 30.0, (n, 2))))
        u_apr, u_vio = (dist[:, 0], angle[:, 0]), (dist[:, 1], angle[:, 1])
        got = relative_pose_check(u_apr, u_vio, cfg)
        assert got.dtype == bool
        expect = [
            relative_pose_check((da, aa), (dv, av), cfg)
            for da, dv, aa, av in zip(*dist.T.tolist(), *angle.T.tolist())
        ]
        assert {type(e) for e in expect} == {bool}
        assert got.tolist() == expect
        assert 0 < got.sum() < len(got)


class TestValueTypes:
    """A Pose holds its track row, built by the constructor over its
    seven fields or through the slot descriptors; position and
    orientation are tuple views of it, built on each access."""

    def test_pose_fields_are_the_track_row(self, rng):
        row = ["x", "y", "z", "qw", "qx", "qy", "qz"]
        assert [f.name for f in dataclasses.fields(Pose)] == row
        assert Pose.__slots__ == tuple(row)
        v, q = random_vec3(rng), rng.normal(size=4).tolist()
        p = Pose(*v, *q)
        assert not hasattr(p, "__dict__")
        assert [getattr(p, name) for name in row] == [*v, *unit_quaternion(*q)] == track_array([p])[0].tolist()
        assert repr(p) == "Pose(%s)" % ", ".join(f"{name}={getattr(p, name)!r}" for name in row)
        # The views are fresh tuples of equal value.
        assert p.position is not p.position and p.orientation is not p.orientation
        assert (p.position, p.orientation) == (v, unit_quaternion(*q))
        assert (p.position.z, p.orientation.w) == (p.z, p.qw)
        assert isinstance(p.position, tuple) and isinstance(p.orientation, tuple)

    def test_setter_built_values(self, rng):
        built = random_pose(rng)
        p = _poses(track_array([built]))[0]
        assert p == built and p is not built
        row = tuple(track_array([built])[0].tolist())
        for got in (p, built):
            assert hash(got) == hash(row)
            assert repr(got) == repr(built)
            assert pickle.loads(pickle.dumps(got)) == got
        fields = ((p, "x"), (p, "qz"), (p, "position"), (p, "orientation"), (p, "extra"))
        for obj, field in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field, 1.0)
        # replace goes through the constructor, so it re-checks.
        moved = dataclasses.replace(p, x=2.0)
        assert moved.position == (2.0, p.y, p.z)
        assert moved.orientation == unit_quaternion(*p.orientation)
        with pytest.raises(ValueError, match="^x must be finite and below 1e\\+150 m in magnitude, got 1e\\+200$"):
            dataclasses.replace(p, x=1e200)

    def test_package_paths_skip_the_views(self, monkeypatch, tmp_path):
        # With the views raising, fusion, its batch path, the reference
        # kernel, the conversions and a synthetic CLI run still work:
        # they read the fields.
        def view(self):
            raise AssertionError("a package path built a Pose view")

        monkeypatch.setattr(Pose, "position", property(view))
        monkeypatch.setattr(Pose, "orientation", property(view))
        samples = generate_gt(TrajectoryConfig(n_frames=300, seed=5))
        gt = [s.gt for s in samples]
        for s, v, a in zip(samples, simulate_vio(gt, VioNoiseModel(), 6), simulate_apr(gt, AprNoiseModel(), 7)):
            s.vio, s.apr = v, a
        cfg, state, last = FusionConfig(), FusionState(), {}
        for s in samples:
            state, outs = step(state, s.apr, s.vio, cfg)
            last.update((o.frame_index, o) for o in outs)
        batch = run_sequence(Recording.of(samples), cfg)
        assert list(batch) == [last[i] for i in range(len(samples))]
        assert {o.label for o in batch} == set(Label)
        ref = compute_reference([s.apr for s in samples[:3]], [s.vio for s in samples[:3]])
        assert track_array([ref.apr_ref, ref.vio_ref]).shape == (2, 7)
        assert main(["--synth", "1", "--frames", "300", "--out", str(tmp_path)]) == 0
