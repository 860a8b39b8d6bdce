import dataclasses
import inspect
import math
import pickle
import typing

import numpy as np
import pytest

import posefuse.fusion
from posefuse.fusion import (
    FusedTrack,
    FusionConfig,
    FusionOutput,
    FusionState,
    Label,
    ReferencePair,
    Stage,
    compute_reference,
    optimize_pose,
    relative_pose_check,
    run_sequence,
    step,
)
from posefuse.geometry import (
    Pose,
    _Motions,
    _normalize_rows,
    _poses,
    odometry,
    track_array,
)
from posefuse.io import PoseSample, Recording, parse_sequence, write_sequence
from posefuse.synth import (
    AprNoiseModel,
    TrajectoryConfig,
    VioNoiseModel,
    generate_gt,
    simulate_apr,
    simulate_vio,
)
from helpers import (
    average_of, median_of, point_distance, quat_product, random_pose, random_quaternion, rotation_about,
    rotation_angle_deg, unit_quaternion,
)
from oracles import (
    chordal_distance,
    grid_median_objective,
    kuhn_optimal_point,
    line_median_objective,
    quat_angle_stable_deg,
    rigid_map_pose,
    scalar_reference,
    slerp_midpoint,
    step_run_sequence,
)

CFG = FusionConfig()
Z = (0.0, 0.0, 1.0)
IDENTITY = (1.0, 0.0, 0.0, 0.0)


def identity_pose(x=0.0, y=0.0, z=0.0):
    return Pose(x, y, z, *IDENTITY)


def clean_samples(n, step_len=1.0):
    """Straight GT walk with vio = apr = gt; every pair passes."""
    samples = []
    for i in range(n):
        p = identity_pose(x=i * step_len)
        samples.append(PoseSample(frame_index=i, timestamp=float(i), gt=p, vio=p, apr=p))
    return samples


class TestFusionConfig:
    def test_defaults(self):
        assert (CFG.d_th, CFG.o_th, CFG.n_pairs, CFG.t_opt) == (0.4, 4.0, 2, 8)

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(d_th=0.0), "d_th"),
            (dict(o_th=-1.0), "o_th"),
            (dict(n_pairs=0), "n_pairs"),
            (dict(t_opt=0), "t_opt"),
        ],
    )
    def test_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            FusionConfig(**kwargs)


class TestRelativePoseCheck:
    def test_inside_both_gates(self):
        assert relative_pose_check(_Motions(1.3, 12.0), _Motions(1.0, 10.0), CFG)

    def test_distance_gate_fails(self):
        assert not relative_pose_check(_Motions(1.5, 10.0), _Motions(1.0, 10.0), CFG)

    def test_angle_gate_fails(self):
        assert not relative_pose_check(_Motions(1.0, 14.1), _Motions(1.0, 10.0), CFG)

    def test_boundary_inclusive(self):
        assert relative_pose_check(_Motions(1.4, 14.0), _Motions(1.0, 10.0), CFG)


class TestCheckerCases:
    """The four agreement cases, with vio odometry equal to GT odometry.

    Case 3 is the checker's designed blind spot: a shared offset on both
    estimates cancels in the relative comparison and passes.
    """

    gt0 = identity_pose(0.0)
    gt1 = Pose(1.0, 0.0, 0.0, *rotation_about(Z, 5.0))

    def check(self, apr0, apr1):
        u_apr = odometry(apr0, apr1)
        u_vio = odometry(self.gt0, self.gt1)  # vio == gt
        return relative_pose_check(u_apr, u_vio, CFG)

    def near(self, gt, dx, rot_deg):
        p = gt.position
        return Pose(p.x + dx, p.y, p.z, *quat_product(gt.orientation, rotation_about(Z, rot_deg)))

    def far(self, gt, dz, rot_deg=15.0):
        p = gt.position
        return Pose(p.x, p.y, p.z + dz, *quat_product(gt.orientation, rotation_about(Z, rot_deg)))

    def test_case_1_both_accurate_passes(self):
        assert self.check(self.near(self.gt0, 0.1, 1.0), self.near(self.gt1, -0.1, -1.0))

    def test_case_2_one_inaccurate_fails(self):
        assert not self.check(self.near(self.gt0, 0.1, 1.0), self.far(self.gt1, 5.0))

    def test_case_3_shared_offset_false_positive(self):
        # Both wrong the same way: passes, and that is the documented gap.
        assert self.check(self.far(self.gt0, 5.0), self.far(self.gt1, 5.0))
        assert point_distance(self.far(self.gt0, 5.0).position, self.gt0.position) > CFG.d_th

    def test_case_4_both_inaccurate_differently_fails(self):
        assert not self.check(self.far(self.gt0, 5.0), self.far(self.gt1, -5.0, -15.0))


class TestWeiszfeldMedian:
    def test_single_point(self):
        assert median_of([(5, 5, 5)]) == (5, 5, 5)

    def test_collinear_odd_returns_middle(self):
        pts = [(0, 0, 0), (1, 0, 0), (10, 0, 0)]
        assert median_of(pts) == (1, 0, 0)

    def test_square_symmetry(self):
        pts = [(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0)]
        m = median_of(pts)
        assert math.hypot(*m) < 1e-9

    def test_beats_millimeter_grid(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            pts = [tuple(rng.uniform(0.0, 2.0, size=3).tolist()) for _ in range(n)]
            m = median_of(pts)
            ours = sum(point_distance(m, p) for p in pts)
            arr = np.array(pts)
            assert ours <= grid_median_objective(arr) + 1e-6


class TestMedianAtInputPoint:
    """Kuhn's condition settles a median that sits on an input point
    before any iteration, so the result is that point exactly and the
    iteration's stopping rule cannot move it."""

    CASES = {
        # Angle at the origin is about 169 deg, above 120.
        "obtuse_triangle": [(1, 0, 0), (-1, 0.2, 0), (0, 0, 0)],
        # Multiplicity 2 outweighs the pull of three unit vectors (1.73).
        "duplicate_outweighs_pull": [
            (2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 0, 0), (0, 0, 0),
        ],
        # The centroid lands exactly on x = -2, which is not the median;
        # x = -3 (multiplicity 3 against a pull of 2) is.
        "centroid_on_wrong_input": [
            (-3, 0, 0), (-3, 0, 0), (-2, 0, 0), (1, 0, 0), (-3, 0, 0),
        ],
    }

    @staticmethod
    def assert_returns_optimal_input(pts):
        k, margin = kuhn_optimal_point(pts)
        assert margin >= 1e-6
        assert median_of(pts) == pts[k]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(posefuse.fusion, "_MEDIAN_TOL", 1e3)
            mp.setattr(posefuse.fusion, "_MEDIAN_MAX_ITER", 1)
            assert median_of(pts) == pts[k]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_cases(self, name):
        self.assert_returns_optimal_input(self.CASES[name])

    def test_random_sets(self, rng):
        vertex_sets = 0
        for i in range(600):
            n = int(rng.integers(3, 8))
            kind = i % 3
            if kind == 0:  # scattered points
                arr = rng.normal(size=(n, 3))
            elif kind == 1:  # a hub with spokes of random length
                arr = rng.normal(size=(n, 3)) * rng.uniform(0.1, 5.0, size=(n, 1))
                arr[0] = 0.0
            else:  # duplicates of one point among scattered ones
                arr = rng.normal(size=(n, 3))
                arr[rng.integers(0, n, size=n // 2)] = arr[-1]
            pts = [tuple(row) for row in arr.tolist()]
            if kuhn_optimal_point(arr)[1] >= 1e-6:
                vertex_sets += 1
                self.assert_returns_optimal_input(pts)
        assert vertex_sets >= 100


class TestMedianOnTiedLine:
    """Collinear sets with repeated points can tie Kuhn's test, so the
    iteration decides them; an iterate landing on a non-optimal input
    point must not end it.  Judged against the exact 1-D median."""

    @staticmethod
    def objective_gap(ts, origin, direction):
        pts = [tuple((origin + t * direction).tolist()) for t in ts]
        m = median_of(pts)
        ours = sum(point_distance(m, p) for p in pts)
        return ours - line_median_objective(ts) * float(np.linalg.norm(direction))

    def test_centroid_on_non_optimal_input(self):
        # The centroid is x = 2 (summed distance 14); all of [0, 1] gives 12.
        x_axis = np.array([1.0, 0.0, 0.0])
        assert self.objective_gap([0, 0, 0, 1, 2, 9], np.zeros(3), x_axis) <= 1e-12

    def test_random_sets_with_repeats(self, rng):
        for _ in range(400):
            n = int(rng.integers(3, 9))
            ts = rng.integers(0, 4, size=n).astype(float)
            # Place the last point so that the centroid, where the
            # iteration starts, lands exactly on the first.
            ts[-1] = n * ts[0] - ts[:-1].sum()
            origin = rng.integers(-5, 6, size=3).astype(float)
            direction = rng.integers(-3, 4, size=3).astype(float)
            if not direction.any():
                direction[0] = 1.0
            assert self.objective_gap(ts, origin, direction) <= 1e-9


class TestAverageQuaternions:
    def test_idempotent(self, rng):
        q = random_quaternion(rng)
        got = average_of([q, q, q])
        assert quat_angle_stable_deg(got, q) < 1e-9

    def test_double_cover_pair(self, rng):
        q = random_quaternion(rng)
        neg = unit_quaternion(-q.w, -q.x, -q.y, -q.z)
        got = average_of([q, neg])
        assert quat_angle_stable_deg(got, q) < 1e-9

    def test_half_turn_between_identity_and_z90(self):
        avg = average_of([IDENTITY, rotation_about(Z, 90.0)])
        expect = [math.cos(math.pi / 8), 0.0, 0.0, math.sin(math.pi / 8)]
        np.testing.assert_allclose(avg, expect, atol=1e-9)

    def test_pairs_match_slerp_midpoint(self, rng):
        for _ in range(300):
            a, b = random_quaternion(rng), random_quaternion(rng)
            mid = slerp_midpoint(a, b)
            got = average_of([a, b])
            np.testing.assert_allclose(got, mid, atol=1e-9)

    def test_permutation_invariant(self, rng):
        for _ in range(200):
            quats = [random_quaternion(rng) for _ in range(int(rng.integers(2, 6)))]
            ref = average_of(quats)
            perm = [quats[i] for i in rng.permutation(len(quats))]
            np.testing.assert_allclose(average_of(perm), ref, atol=1e-9)

    def test_maximizes_alignment_objective(self, rng):
        # Independent optimality check: no perturbation of the average
        # improves the summed squared alignment.
        for _ in range(20):
            quats = [random_quaternion(rng) for _ in range(4)]
            avg = average_of(quats)

            def objective(q):
                return sum(float(np.dot(q, p)) ** 2 for p in quats)

            base = objective(avg)
            for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                for sign in (1.0, -1.0):
                    tweaked = quat_product(avg, rotation_about(axis, sign * 0.05))
                    assert objective(tweaked) <= base + 1e-9


class TestComputeReference:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="non-empty window"):
            compute_reference([], [])

    def test_identical_poses_pass_through(self, rng):
        p = random_pose(rng)
        ref = compute_reference([p, p, p], [p, p, p])
        assert point_distance(ref.apr_ref.position, p.position) < 1e-9
        assert quat_angle_stable_deg(ref.apr_ref.orientation, p.orientation) < 1e-9

    def test_median_position(self):
        poses = [identity_pose(0.0), identity_pose(1.0), identity_pose(10.0)]
        ref = compute_reference(poses, poses)
        assert ref.apr_ref.position == (1, 0, 0)
        assert ref.vio_ref.orientation == IDENTITY

    def test_components_are_optimal(self, rng):
        aprs = [random_pose(rng, scale=2.0) for _ in range(3)]
        vios = [random_pose(rng, scale=2.0) for _ in range(3)]
        ref = compute_reference(aprs, vios)
        # Position: summed distance must not drop under small prods.
        pos = ref.apr_ref.position

        def pos_obj(v):
            return sum(math.dist(v, (p.position.x, p.position.y, p.position.z)) for p in aprs)

        base = pos_obj((pos.x, pos.y, pos.z))
        for d in ((1e-4, 0, 0), (0, 1e-4, 0), (0, 0, 1e-4)):
            assert pos_obj((pos.x + d[0], pos.y + d[1], pos.z + d[2])) >= base - 1e-9
            assert pos_obj((pos.x - d[0], pos.y - d[1], pos.z - d[2])) >= base - 1e-9

    def test_length_mismatch_rejected(self, rng):
        p = random_pose(rng)
        with pytest.raises(ValueError, match="length"):
            compute_reference([p, p], [p])

class TestOptimizePose:
    def test_fixed_point(self, rng):
        for _ in range(100):
            ref = ReferencePair(random_pose(rng), random_pose(rng))
            out = optimize_pose(ref.vio_ref, ref)
            assert point_distance(out.position, ref.apr_ref.position) < 1e-9
            assert quat_angle_stable_deg(out.orientation, ref.apr_ref.orientation) < 1e-6

    def test_pure_translation_offset(self):
        ref = ReferencePair(identity_pose(10.0), identity_pose(0.0))
        out = optimize_pose(Pose(1, 2, 3, *IDENTITY), ref)
        assert out.position == (11.0, 2.0, 3.0)
        assert out.orientation == IDENTITY

    def test_quarter_turn_reference(self):
        ref = ReferencePair(identity_pose(), Pose(0, 0, 0, *rotation_about(Z, 90.0)))
        out = optimize_pose(identity_pose(1.0), ref)
        # The vio frame is the world turned +90 deg about z, so the map
        # back to the world turns -90 deg: x goes to -y.
        np.testing.assert_allclose(out.position, [0, -1, 0], atol=1e-12)
        expect = [math.sqrt(0.5), 0.0, 0.0, -math.sqrt(0.5)]
        np.testing.assert_allclose(out.orientation, expect, atol=1e-12)

    def test_map_built_once_per_reference(self, rng, monkeypatch):
        built = []
        real = posefuse.fusion._reference_map

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(posefuse.fusion, "_reference_map", counting)
        ref = ReferencePair(random_pose(rng), random_pose(rng))
        for _ in range(50):
            optimize_pose(random_pose(rng), ref)
        assert len(built) == 1

    def test_rigid_invariance(self, rng):
        for _ in range(200):
            ref = ReferencePair(random_pose(rng), random_pose(rng))
            a, b = random_pose(rng), random_pose(rng)
            oa, ob = optimize_pose(a, ref), optimize_pose(b, ref)
            assert point_distance(oa.position, ob.position) == pytest.approx(
                point_distance(a.position, b.position), abs=1e-9
            )
            assert rotation_angle_deg(oa.orientation, ob.orientation) == pytest.approx(
                rotation_angle_deg(a.orientation, b.orientation), abs=1e-6
            )


def random_rigid(rng):
    """Random SE(3) map as (unit quaternion wxyz, translation)."""
    q = rng.normal(size=4)
    return q / np.linalg.norm(q), rng.uniform(-20.0, 20.0, size=3)


def mapped(g, pose):
    pos, quat = rigid_map_pose(g[0], g[1], pose.position, pose.orientation)
    return Pose(*pos, *quat)


def yaw_then_roll():
    """30 deg yaw followed by 20 deg roll, t = (3, -2, 1)."""
    yaw = rotation_about(Z, 30.0)
    roll = rotation_about((1.0, 0.0, 0.0), 20.0)
    return np.array(quat_product(roll, yaw)), np.array([3.0, -2.0, 1.0])


class TestFrameInvariance:
    """The fused output must not depend on the frame the vio stream is
    expressed in, and must follow the world frame of the apr stream."""

    @staticmethod
    def sequence():
        samples = generate_gt(TrajectoryConfig(n_frames=200, seed=0))
        gt = [s.gt for s in samples]
        for s, v, a in zip(
            samples,
            simulate_vio(gt, VioNoiseModel(), 2),
            simulate_apr(gt, AprNoiseModel(), 1),
        ):
            s.vio, s.apr = v, a
        return samples

    @staticmethod
    def assert_outputs_match(got, expect):
        assert [o.label for o in got] == [o.label for o in expect]
        for g, e in zip(got, expect):
            assert point_distance(g.pose.position, e.pose.position) < 1e-8
            assert chordal_distance(g.pose.orientation, e.pose.orientation) < 1e-8

    def test_rigidly_moved_vio_maps_back_onto_gt(self, rng):
        for _ in range(200):
            g = random_rigid(rng)
            gt_ref = random_pose(rng)
            ref = ReferencePair(apr_ref=gt_ref, vio_ref=mapped(g, gt_ref))
            for _ in range(5):
                gt = random_pose(rng)
                out = optimize_pose(mapped(g, gt), ref)
                assert point_distance(out.position, gt.position) < 1e-9
                assert chordal_distance(out.orientation, gt.orientation) < 1e-9

    def test_vio_frame_does_not_move_output(self, rng):
        samples = self.sequence()
        base = run_sequence(samples, CFG)
        for g in (yaw_then_roll(), random_rigid(rng)):
            moved = self.sequence()
            for s in moved:
                s.vio = mapped(g, s.vio)
            self.assert_outputs_match(run_sequence(moved, CFG), base)

    def test_world_frame_moves_output_with_it(self, rng):
        samples = self.sequence()
        base = run_sequence(samples, CFG)
        for g in (yaw_then_roll(), random_rigid(rng)):
            moved = self.sequence()
            for s in moved:
                s.vio = mapped(g, s.vio)
                s.apr = mapped(g, s.apr)
            expect = [FusionOutput(o.frame_index, mapped(g, o.pose), o.label) for o in base]
            self.assert_outputs_match(run_sequence(moved, CFG), expect)


class TestStep:
    def test_clean_stream_label_cycle(self):
        samples = clean_samples(20)
        labels = [o.label for o in run_sequence(samples, CFG)]
        expect = (
            [Label.KEYFRAME] * 3 + [Label.RELIABLE] * 8 + [Label.KEYFRAME] * 3 + [Label.RELIABLE] * 6
        )
        assert labels == expect

    def test_outlier_slides_window(self):
        samples = clean_samples(5)
        samples[1].apr = identity_pose(1.0, 0.0, 5.0)
        outs = run_sequence(samples, CFG)
        labels = [o.label for o in outs]
        assert labels == [Label.PENDING, Label.PENDING] + [Label.KEYFRAME] * 3

    def test_optimized_output_tracks_gt_when_vio_clean(self):
        samples = clean_samples(6)
        bad = identity_pose(4.0, 0.0, 3.0)  # 5 m from gt
        samples[4].apr = bad
        outs = run_sequence(samples, CFG)
        assert outs[4].label is Label.OPTIMIZED
        # Reference was exact (clean window), vio is drift-free, so the
        # corrected pose lands back on gt.
        assert point_distance(outs[4].pose.position, samples[4].gt.position) < 1e-9

    def test_streaming_emits_provisional_then_final(self):
        state = FusionState()
        samples = clean_samples(4)
        seen = []
        for s in samples:
            state, outs = step(state, s.apr, s.vio, CFG)
            seen.append([(o.frame_index, o.label) for o in outs])
        assert seen[0] == [(0, Label.PENDING)]
        assert seen[1] == [(1, Label.PENDING)]
        # Window completes at frame 2: provisional output plus the three
        # keyframe re-emissions.
        assert seen[2][0] == (2, Label.PENDING)
        assert seen[2][1:] == [(0, Label.KEYFRAME), (1, Label.KEYFRAME), (2, Label.KEYFRAME)]
        assert seen[3] == [(3, Label.RELIABLE)]
        assert state.stage is Stage.OPTIMIZING

    def test_tracked_between_alignments_uses_previous_reference(self):
        # Clean until the second alignment, then feed apr outliers so the
        # window never completes: frames keep the tracked label.
        samples = clean_samples(16)
        for i in range(11, 16):
            samples[i].apr = identity_pose(float(i), 0.0, 5.0 + 3.0 * (i % 2))
        outs = run_sequence(samples, CFG)
        labels = [o.label for o in outs]
        assert labels[:11] == [Label.KEYFRAME] * 3 + [Label.RELIABLE] * 8
        assert labels[11:] == [Label.TRACKED] * 5
        for i in range(11, 16):
            assert point_distance(outs[i].pose.position, samples[i].gt.position) < 1e-9

class TestFusionOutput:
    """FusionOutput stores its fields through the slot descriptors and
    stays the frozen dataclass it was."""

    def test_value_type(self, rng):
        pose = random_pose(rng)
        out = FusionOutput(3, pose, Label.TRACKED)
        assert (out.frame_index, out.pose, out.label) == (3, pose, Label.TRACKED)
        assert out == FusionOutput(3, pose, Label.TRACKED) != FusionOutput(3, pose, Label.RELIABLE)
        # What the generated dataclass methods give.
        assert hash(out) == hash((3, pose, Label.TRACKED))
        assert repr(out) == f"FusionOutput(frame_index=3, pose={pose!r}, label={Label.TRACKED!r})"
        # A name that is not a field is frozen too, and there is no __dict__.
        for field in ("frame_index", "pose", "label", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(out, field, None)
        assert not hasattr(out, "__dict__")
        assert dataclasses.replace(out, label=Label.RELIABLE) == FusionOutput(3, pose, Label.RELIABLE)
        assert pickle.loads(pickle.dumps(out)) == out
        params = inspect.signature(FusionOutput).parameters.values()
        assert [(p.name, p.annotation) for p in params] == [
            ("frame_index", "int"), ("pose", "Pose"), ("label", "Label")
        ]
        assert typing.get_type_hints(FusionOutput.__init__) == {
            "frame_index": int, "pose": Pose, "label": Label, "return": type(None)
        }
        assert [f.name for f in dataclasses.fields(FusionOutput)] == ["frame_index", "pose", "label"]


class TestRunSequence:
    def test_empty(self):
        assert run_sequence([], CFG) == []

    def test_one_output_per_frame_in_order(self):
        outs = run_sequence(clean_samples(20), CFG)
        assert [o.frame_index for o in outs] == list(range(20))

    def test_caller_frame_indices_surface(self):
        samples = clean_samples(4)
        for s in samples:
            s.frame_index += 100
        outs = run_sequence(samples, CFG)
        assert [o.frame_index for o in outs] == [100, 101, 102, 103]

    def test_unordered_timestamps_rejected(self):
        samples = clean_samples(4)
        samples[2].timestamp = samples[1].timestamp
        with pytest.raises(ValueError, match="increasing"):
            run_sequence(samples, CFG)

    def test_missing_streams_rejected(self):
        samples = clean_samples(3)
        samples[1].apr = None
        with pytest.raises(ValueError, match="frame 1: apr"):
            run_sequence(samples, CFG)
        samples = clean_samples(3)
        samples[2].vio = None
        with pytest.raises(ValueError, match="frame 2: vio"):
            run_sequence(samples, CFG)


def noisy_outputs(seed):
    samples = generate_gt(TrajectoryConfig(n_frames=200, seed=seed))
    gt = [s.gt for s in samples]
    vio = simulate_vio(gt, VioNoiseModel(), 1_000_003 + seed)
    apr = simulate_apr(gt, AprNoiseModel(), 2_000_003 + seed)
    for s, v, a in zip(samples, vio, apr):
        s.vio, s.apr = v, a
    return samples, run_sequence(samples, CFG)


class TestStateMachineInvariants:
    def test_keyframe_batches_and_period_lengths(self):
        for seed in range(5):
            _, outs = noisy_outputs(seed)
            labels = [o.label for o in outs]
            i, n = 0, len(labels)
            while i < n:
                if labels[i] is Label.KEYFRAME:
                    j = i
                    while j < n and labels[j] is Label.KEYFRAME:
                        j += 1
                    assert j - i == CFG.n_pairs + 1
                    # A full optimization period follows, t_opt frames of
                    # reliable/optimized (shorter only at sequence end).
                    period = labels[j : j + CFG.t_opt]
                    assert all(l in (Label.RELIABLE, Label.OPTIMIZED) for l in period)
                    if j + CFG.t_opt <= n:
                        assert len(period) == CFG.t_opt
                        if j + CFG.t_opt < n:
                            nxt = labels[j + CFG.t_opt]
                            assert nxt in (Label.TRACKED, Label.PENDING, Label.KEYFRAME)
                    i = j + len(period)
                else:
                    assert labels[i] in (Label.TRACKED, Label.PENDING)
                    i += 1

    def test_pending_only_before_first_reference(self):
        for seed in range(5):
            _, outs = noisy_outputs(seed)
            labels = [o.label for o in outs]
            if Label.PENDING in labels:
                last_pending = max(i for i, l in enumerate(labels) if l is Label.PENDING)
                first_kf = labels.index(Label.KEYFRAME) if Label.KEYFRAME in labels else None
                if first_kf is not None:
                    # Keyframe re-emission may cover pending frames, but no
                    # new pending appears once a reference exists.
                    assert last_pending <= first_kf + CFG.n_pairs

    def test_false_positive_rate_with_outlier_only_apr(self):
        # Clean vio, apr exact except 15% outliers in a 5 m ball: a
        # keyframe with a badly wrong apr pose needs consecutive outliers
        # that happen to agree, which must stay rare.
        kf_total = kf_bad = 0
        for seed in range(60):
            samples = generate_gt(TrajectoryConfig(n_frames=200, seed=7000 + seed))
            gt = [s.gt for s in samples]
            vio = simulate_vio(gt, VioNoiseModel(0.0, 0.0, 0.0, 0.0), 11_000 + seed)
            apr = simulate_apr(
                gt,
                AprNoiseModel(inlier_pos_sigma=0.0, inlier_rot_sigma=0.0),
                12_000 + seed,
            )
            for s, v, a in zip(samples, vio, apr):
                s.vio, s.apr = v, a
            for s, o in zip(samples, run_sequence(samples, CFG)):
                if o.label is Label.KEYFRAME:
                    kf_total += 1
                    if point_distance(s.apr.position, s.gt.position) > CFG.d_th / 2:
                        kf_bad += 1
        assert 60 * 200 >= 10_000  # enough simulated frames to judge
        assert kf_total > 1_000
        assert kf_bad / kf_total < 0.02


def fused(seed=0, n=200, outlier_prob=AprNoiseModel().outlier_prob):
    """A synthetic sequence with independent vio and apr draws."""
    samples = generate_gt(TrajectoryConfig(n_frames=max(n, 2), seed=seed))[:n]
    gt = [s.gt for s in samples]
    vio = simulate_vio(gt, VioNoiseModel(), 1_000_003 + seed)
    apr = simulate_apr(gt, AprNoiseModel(outlier_prob=outlier_prob), 2_000_003 + seed)
    for s, v, a in zip(samples, vio, apr):
        s.vio, s.apr = v, a
    return samples


def outcome(run, samples, cfg):
    """Frame indices, labels and poses by float.hex, or the error raised."""
    try:
        outs = run(samples, cfg)
    except ValueError as exc:
        return type(exc), str(exc)
    return [
        (o.frame_index, o.label)
        + tuple(
            v.hex()
            for v in (
                o.pose.position.x, o.pose.position.y, o.pose.position.z,
                o.pose.orientation.w, o.pose.orientation.x,
                o.pose.orientation.y, o.pose.orientation.z,
            )
        )
        for o in outs
    ]


def assert_batch_matches_step(samples, cfg):
    expect = outcome(step_run_sequence, samples, cfg)
    assert outcome(run_sequence, samples, cfg) == expect
    return expect


class TestBatchMatchesStep:
    """run_sequence fuses a sequence in one pass; it must give what
    feeding step frame by frame gives, bit for bit, errors included."""

    @pytest.mark.parametrize("outlier_prob", [0.0, AprNoiseModel().outlier_prob, 1.0])
    @pytest.mark.parametrize("t_opt", [1, 8])
    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_synthetic_sequences(self, n_pairs, t_opt, outlier_prob):
        cfg = FusionConfig(n_pairs=n_pairs, t_opt=t_opt)
        labels = set()
        for seed in range(3):
            expect = assert_batch_matches_step(fused(seed, outlier_prob=outlier_prob), cfg)
            labels.update(row[1] for row in expect)
        if outlier_prob < 1.0:
            assert labels == set(Label)

    @pytest.mark.parametrize("t_opt", [1, 3, 8])
    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_every_prefix(self, n_pairs, t_opt):
        # Prefixes end in every stage: mid-window, on a completed window,
        # mid-period and on a period's last frame.  Lengths 0 to 3 are
        # among them.
        cfg = FusionConfig(n_pairs=n_pairs, t_opt=t_opt)
        samples = fused(seed=4, n=48)
        for n in range(len(samples) + 1):
            assert_batch_matches_step(samples[:n], cfg)

    def test_caller_frame_indices(self):
        samples = fused(seed=5, n=60)
        for k, s in enumerate(samples):
            s.frame_index = 1000 + 3 * k + k % 2
        expect = assert_batch_matches_step(samples, CFG)
        assert [row[0] for row in expect] == [s.frame_index for s in samples]

    def test_input_errors(self):
        samples = fused(n=10)
        samples[3].timestamp = samples[2].timestamp
        assert assert_batch_matches_step(samples, CFG)[0] is ValueError
        for stream, k in (("apr", 0), ("vio", 6)):
            samples = fused(n=10)
            setattr(samples[k], stream, None)
            assert assert_batch_matches_step(samples, CFG)[0] is ValueError

    def test_huge_coordinates(self):
        # Below COORD_LIMIT no motion, reference or mapped pose overflows,
        # so step and run_sequence agree bit for bit.
        cfg = FusionConfig(t_opt=3)
        x = 1e140
        for k in range(30):
            for stream in ("apr", "vio"):
                for shift_rest in (False, True):
                    samples = fused(seed=6, n=30, outlier_prob=0.0)
                    for s in samples[k : None if shift_rest else k + 1]:
                        pose = getattr(s, stream)
                        p = pose.position
                        setattr(s, stream, Pose(x, p.y, p.z, *pose.orientation))
                    assert isinstance(assert_batch_matches_step(samples, cfg), list)


# The apr model of the benchmark's clean recorded sequences, beside the
# default model.
CLEAN_APR = AprNoiseModel(inlier_pos_sigma=0.1, inlier_rot_sigma=0.5, outlier_prob=0.02)


def recorded(tmp_path, seed, apr_model=AprNoiseModel(), n=200):
    """A synthetic sequence written to a file and parsed back."""
    samples = generate_gt(TrajectoryConfig(n_frames=n, seed=seed))
    gt = [s.gt for s in samples]
    vio = simulate_vio(gt, VioNoiseModel(), 1_000_003 + seed)
    apr = simulate_apr(gt, apr_model, 2_000_003 + seed)
    for s, v, a in zip(samples, vio, apr):
        s.vio, s.apr = v, a
    path = tmp_path / f"seq-{seed}.csv"
    write_sequence(path, samples)
    return parse_sequence(path)


class TestRecordedSequences:
    """run_sequence takes a Recording as it takes a list of samples, and
    returns a FusedTrack whose outputs are built on access."""

    @pytest.mark.parametrize("apr_model", [AprNoiseModel(), CLEAN_APR], ids=["default", "clean"])
    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_recording_list_and_step_agree(self, tmp_path, n_pairs, apr_model):
        cfg = FusionConfig(n_pairs=n_pairs)
        for seed in range(3):
            rec = recorded(tmp_path, seed, apr_model)
            expect = outcome(step_run_sequence, list(rec), cfg)
            assert outcome(run_sequence, rec, cfg) == expect
            assert outcome(run_sequence, list(rec), cfg) == expect

    def test_indexed_sample_changes_do_not_reach_the_recording(self, tmp_path):
        rec = recorded(tmp_path, 0, n=40)
        expect = list(run_sequence(rec, CFG))
        rec[0].apr = None
        rec[5].vio = rec[6].vio
        assert list(run_sequence(rec, CFG)) == expect

    def test_fused_track_as_a_sequence(self, tmp_path):
        rec = recorded(tmp_path, 1, n=60)
        fused = run_sequence(rec, CFG)
        outs = list(fused)
        assert isinstance(fused, FusedTrack) and len(fused) == len(rec)
        assert fused == outs and outs == fused
        assert [fused[i] for i in range(len(fused))] == outs
        assert fused[-1] == outs[-1]
        assert list(fused[10:20]) == outs[10:20]
        assert fused.frames == rec.frames
        assert [tuple(Label)[code] for code in fused.labels.tolist()] == [o.label for o in outs]
        assert fused.track.tolist() == [
            [o.pose.position.x, o.pose.position.y, o.pose.position.z,
             o.pose.orientation.w, o.pose.orientation.x, o.pose.orientation.y, o.pose.orientation.z]
            for o in outs
        ]
        with pytest.raises(ValueError):
            fused.track[0, 0] = 0.0

    @pytest.mark.parametrize(
        "vio_at, apr_at, late_at, message",
        [
            (None, 4, 4, "frame 4: apr pose missing"),
            (2, 4, 4, "frame 2: vio pose missing"),
            (4, 4, 4, "frame 4: vio pose missing"),
            (None, 5, 4, "frame 4: timestamps must be strictly increasing"),
            (6, None, 4, "frame 4: timestamps must be strictly increasing"),
        ],
    )
    def test_first_bad_frame_wins(self, vio_at, apr_at, late_at, message):
        samples = fused(n=10)
        if vio_at is not None:
            samples[vio_at].vio = None
        if apr_at is not None:
            samples[apr_at].apr = None
        samples[late_at].timestamp = samples[late_at - 1].timestamp
        expect = outcome(step_run_sequence, samples, CFG)
        assert expect == (ValueError, message + (", fusion needs it" if "pose" in message else ""))
        assert outcome(run_sequence, samples, CFG) == expect
        assert outcome(run_sequence, Recording.of(samples), CFG) == expect

    def test_nan_timestamp_refused(self):
        samples = fused(n=20)
        samples[7].timestamp = math.nan
        with pytest.raises(ValueError, match="^frame 7: timestamp must be finite, got nan$"):
            run_sequence(samples, CFG)


def twin(seed, outlier_prob):
    """A synthetic sequence whose vio stream is the outlier-free apr draw
    and whose apr stream keeps its outliers."""
    samples = fused(seed, outlier_prob=outlier_prob)
    for s, clean in zip(samples, fused(seed, outlier_prob=0.0)):
        s.vio = clean.apr
    return samples


class TestAprLabelsCarryApr:
    """Keyframe, reliable and pending rows of a fused track are the apr
    row bit for bit: run_sequence starts from a copy of the apr track and
    writes only optimized and tracked rows, and step emits the caller's
    apr Pose for the other three labels.  The CLI copies the raw apr
    errors to these rows instead of scoring them again."""

    APR_LABELS = (Label.KEYFRAME, Label.RELIABLE, Label.PENDING)

    def apr_frames(self, samples, cfg=CFG):
        """The positions of the frames run_sequence labels keyframe,
        reliable or pending, after checking both fusion paths on them."""
        rec = Recording.of(samples)
        result = run_sequence(rec, cfg)
        codes = [tuple(Label).index(label) for label in self.APR_LABELS]
        keep = np.flatnonzero(np.isin(result.labels, codes))
        track_bits, apr_bits = result.track.view(np.int64), rec.apr.view(np.int64)
        assert (track_bits[keep] == apr_bits[keep]).all()
        state, latest = FusionState(), {}
        for s in samples:
            state, outs = step(state, s.apr, s.vio, cfg)
            latest.update((o.frame_index, o) for o in outs)
        for i in keep.tolist():
            out = latest[samples[i].frame_index]
            assert out.label is tuple(Label)[result.labels[i]]
            assert pose_hex(out.pose) == pose_hex(samples[i].apr)
        return [tuple(Label)[code] for code in result.labels[keep].tolist()]

    @pytest.mark.parametrize("outlier_prob", [AprNoiseModel().outlier_prob, 0.5])
    def test_synthetic_sequences(self, outlier_prob):
        seen = set()
        for seed in range(5):
            seen.update(self.apr_frames(fused(seed, outlier_prob=outlier_prob)))
        assert seen == set(self.APR_LABELS)

    def test_gt_absent_on_some_rows(self):
        samples = fused(seed=2)
        for s in samples[::3]:
            s.gt = None
        assert not Recording.of(samples).has("gt").all()
        assert set(self.apr_frames(samples)) == set(self.APR_LABELS)

    @pytest.mark.parametrize("outlier_prob", [0.0, 0.5])
    def test_twin_streams(self, outlier_prob):
        seen = set()
        for seed in range(5):
            seen.update(self.apr_frames(twin(seed, outlier_prob)))
        assert seen >= {Label.KEYFRAME, Label.RELIABLE}


def pose_hex(pose):
    return tuple(
        v.hex()
        for v in (
            pose.position.x, pose.position.y, pose.position.z,
            pose.orientation.w, pose.orientation.x, pose.orientation.y, pose.orientation.z,
        )
    )


class TestStackedReferences:
    """Every reference, in step and in run_sequence, comes from one
    stacked pass over its windows.  Each row must equal the scalar
    oracle of its window by float.hex, whichever path the window's
    median takes and whatever other windows share the stack, and its
    median must be optimal by Kuhn's condition or no worse than scipy's
    minimizer."""

    @staticmethod
    def assert_stack_matches(windows, rng):
        """windows: equal-length lists of positions; each point gets a
        random orientation."""
        size = len(windows[0])
        poses = [Pose(*p, *random_quaternion(rng)) for win in windows for p in win]
        track = track_array(poses)
        firsts = np.arange(len(windows)) * size
        got = posefuse.fusion._references(track, firsts, size)
        for w, a in enumerate(firsts.tolist()):
            window = poses[a : a + size]
            expect = pose_hex(scalar_reference(window))
            assert tuple(v.hex() for v in got[w].tolist()) == expect, (w, windows[w])
            # The same window alone gives the same row, and so does
            # compute_reference, which stacks it with the other stream's.
            alone = posefuse.fusion._references(track, firsts[w : w + 1], size)
            assert tuple(v.hex() for v in alone[0].tolist()) == expect
            other = poses[a - size : a] if a else poses[-size:]
            ref = compute_reference(window, other)
            assert pose_hex(ref.apr_ref) == expect
            assert pose_hex(ref.vio_ref) == pose_hex(scalar_reference(other))
        TestStackedReferences.assert_medians_optimal(windows, got[:, :3])

    @staticmethod
    def assert_medians_optimal(windows, medians):
        """A window whose input point passes Kuhn's test by a clear margin
        has that point as its median, exactly.  Any other window's summed
        distance is no worse than scipy's minimizer from the centroid
        finds, up to 1e-9 of the summed distance at the centroid."""
        from scipy.optimize import minimize

        for win, median in zip(windows, medians):
            pts = np.array(win, dtype=float)
            k, margin = kuhn_optimal_point(pts)
            if margin >= 1e-6:
                assert [v.hex() for v in median.tolist()] == [v.hex() for v in pts[k].tolist()], win
                continue

            def objective(at):
                return float(np.linalg.norm(pts - at, axis=1).sum())

            centroid = pts.mean(axis=0)
            found = minimize(objective, centroid).fun
            assert objective(median) <= found + 1e-9 * objective(centroid), win

    # Windows of 1 to 5 and 9 points, one named kind each.  Kuhn's test
    # settles the vertex, hub and coincident kinds; the axis-aligned lines
    # give an exactly singular Hessian, so the stacked solve fails; the
    # tied line puts the centroid on an input point (the d < tol guard),
    # and where two inputs are within tol of the centroid the first one is
    # taken.
    CASES = {
        1: {
            "origin": [(0, 0, 0)],
            "point": [(1.5, -2, 3)],
        },
        2: {
            "coincident": [(1.5, -2, 3), (1.5, -2, 3)],
            "axis_pair": [(0, 0, 0), (2, 0, 0)],
            "pair": [(0.3, -1.2, 4.0), (2.1, 0.7, 3.3)],
        },
        3: {
            "obtuse": [(1, 0, 0), (-1, 0.2, 0), (0, 0, 0)],
            "coincident": [(4, 4, 4)] * 3,
            "collinear_middle": [(0, 0, 0), (1, 1, 1), (5, 5, 5)],
            "acute": [(0, 0, 0), (3, 0.5, 0.2), (1.2, 2.7, -0.4)],
        },
        4: {
            "axis_line": [(0, 0, 0), (1, 0, 0), (3, 0, 0), (4, 0, 0)],
            "tied_line": [(0, 1, 2), (2, 3, 4), (3, 4, 5), (7, 8, 9)],
            "duplicate_hub": [(0, 0, 0), (0, 0, 0), (2, 0, 0), (0, 3, 0)],
            "cluster_and_far": [(0, 0, 0), (1e-3, 2e-3, 0), (-2e-3, 1e-3, 1e-3), (50, -40, 30)],
            "two_inputs_near_centroid": [(0, 0, 0), (4e-10, 0, 0), (-1, 0, 0), (1, 0, 0)],
        },
        5: {
            "duplicate_outweighs_pull": [(2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 0, 0), (0, 0, 0)],
            "centroid_on_wrong_input": [(-3, 0, 0), (-3, 0, 0), (-2, 0, 0), (1, 0, 0), (-3, 0, 0)],
            "spread": [(0.1, 0.2, 0.3), (4, -1, 2), (-3, 2, 1), (1, 5, -2), (2, 2, 6)],
            "collinear_odd": [(0, 0, 0), (1, 0, 0), (2.5, 0, 0), (3, 0, 0), (8, 0, 0)],
        },
        # Reductions over 8 or more elements take numpy's unrolled path.
        9: {
            "coincident": [(1, -2, 3)] * 9,
            "ring_and_hub": [(0, 0, 0)] + [
                (r * np.cos(r * np.pi / 4), r * np.sin(r * np.pi / 4), 0) for r in range(1, 9)
            ],
            "spread": [(0.1, 0.2, 0.3), (4, -1, 2), (-3, 2, 1), (1, 5, -2), (2, 2, 6),
                       (-1, -4, 0.5), (3.3, 0.7, -2.2), (-2, -2, -2), (0.5, 6, 1)],
            "cluster_and_far": [(1e-3 * k, -2e-3 * k, 1e-3) for k in range(5)]
                               + [(50, -40, 30), (-60, 10, 5), (20, 70, -30), (-5, -5, 90)],
        },
    }

    @pytest.mark.parametrize("size", sorted(CASES))
    def test_named_windows(self, size, rng, monkeypatch):
        cases = self.CASES[size]
        windows = [[tuple(map(float, p)) for p in cases[name]] for name in sorted(cases)]
        stacked_failures = []
        solve = np.linalg.solve

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                stacked_failures.append(np.ndim(a) == 3)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        self.assert_stack_matches(windows, rng)
        if size in (2, 4):
            assert any(stacked_failures)

    def test_kinds_take_their_paths(self, monkeypatch):
        def median(pts, max_iter=posefuse.fusion._MEDIAN_MAX_ITER):
            with monkeypatch.context() as mp:
                mp.setattr(posefuse.fusion, "_MEDIAN_MAX_ITER", max_iter)
                return median_of([tuple(p) for p in pts])

        vertices = ((3, "obtuse"), (5, "duplicate_outweighs_pull"), (4, "duplicate_hub"), (9, "ring_and_hub"))
        for size, name in vertices:
            assert kuhn_optimal_point(self.CASES[size][name])[1] >= 1e-6
        for size, name in ((2, "axis_pair"), (4, "axis_line"), (4, "tied_line")):
            assert kuhn_optimal_point(self.CASES[size][name])[1] == pytest.approx(0.0, abs=1e-12)
        tied = np.array(self.CASES[4]["tied_line"], dtype=float)
        assert (tied.mean(axis=0) == tied[2]).all()
        near = np.array(self.CASES[4]["two_inputs_near_centroid"], dtype=float)
        assert (np.linalg.norm(near - near.mean(axis=0), axis=1) < 1e-9).tolist() == [True, True, False, False]
        assert kuhn_optimal_point(near)[1] == pytest.approx(0.0, abs=1e-12)
        # The size-4 stack holds a window that stops after one round and
        # one that runs more than nine.
        line, cluster = self.CASES[4]["axis_line"], self.CASES[4]["cluster_and_far"]
        assert median(line, max_iter=1) == median(line)
        assert median(cluster, max_iter=9) != median(cluster)

    def test_two_streams_in_one_stack(self, rng, monkeypatch):
        # run_sequence stacks the windows of both streams in one track.
        # Each stream's rows come out as they do alone, although the axis
        # line of the first stream fails the stacked solve and sends the
        # second stream's windows to per-window solves too.
        size = 4
        cases = self.CASES[size]
        first = [cases[name] for name in sorted(cases)]
        second = [rng.normal(size=(size, 3)) * rng.uniform(0.1, 10.0) for _ in range(20)]

        def track_of(windows):
            return track_array([Pose(*p, *random_quaternion(rng)) for win in windows for p in win])

        track_a, track_b = track_of(first), track_of(second)
        firsts_a, firsts_b = np.arange(len(first)) * size, np.arange(len(second)) * size
        solves = []
        solve = np.linalg.solve

        def spy(a, b):
            try:
                out = solve(a, b)
            except np.linalg.LinAlgError:
                solves.append((np.ndim(a), "failed"))
                raise
            solves.append((np.ndim(a), "solved"))
            return out

        monkeypatch.setattr(np.linalg, "solve", spy)
        alone_a = posefuse.fusion._references(track_a, firsts_a, size)
        singles_a = solves.count((2, "solved")) + solves.count((2, "failed"))
        solves.clear()
        alone_b = posefuse.fusion._references(track_b, firsts_b, size)
        assert (3, "failed") not in solves and (3, "solved") in solves
        solves.clear()
        both = posefuse.fusion._references(
            np.concatenate((track_a, track_b)), np.concatenate((firsts_a, firsts_b + len(track_a))), size
        )
        assert both.tobytes() == np.concatenate((alone_a, alone_b)).tobytes()
        assert (3, "failed") in solves
        assert solves.count((2, "solved")) + solves.count((2, "failed")) > singles_a

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 11])
    def test_mixed_random_stacks(self, size, rng):
        windows = []
        for i in range(120):
            kind = i % 4
            if kind == 0:  # scattered
                arr = rng.normal(size=(size, 3)) * rng.uniform(0.01, 20.0)
            elif kind == 1:  # repeats of one point
                arr = rng.normal(size=(size, 3))
                arr[rng.integers(0, size, size=max(1, size // 2))] = arr[-1]
            elif kind == 2:  # integer points on a line through the origin
                ts = rng.integers(-3, 4, size=size).astype(float)
                arr = ts[:, None] * rng.integers(-2, 3, size=3).astype(float)
            else:  # a tight cluster and outliers
                arr = rng.normal(size=(size, 3)) * 1e-3
                arr[: size // 2] += rng.normal(size=3) * 30.0
            windows.append([tuple(row) for row in arr.tolist()])
        self.assert_stack_matches(windows, rng)

    def test_blocks_give_the_same_rows(self, monkeypatch):
        # Windows are stacked in blocks that bound the pairwise memory;
        # how the windows fall into blocks does not change a bit.
        track = track_array([s.apr for s in fused(0, n=300)])
        firsts = np.arange(len(track) - 10)
        whole = posefuse.fusion._references(track, firsts, 11)
        monkeypatch.setattr(posefuse.fusion, "_PAIRS_PER_BLOCK", 7 * 11 * 11)
        assert posefuse.fusion._references(track, firsts, 11).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 4, 7, 10])
    def test_synthetic_windows(self, n_pairs):
        # Every window start of two sequences, not only the windows the
        # gates complete.
        size = n_pairs + 1
        for seed in range(2):
            samples = fused(seed, n=300)
            for stream in ("apr", "vio"):
                poses = [getattr(s, stream) for s in samples]
                track = track_array(poses)
                firsts = np.arange(len(poses) - n_pairs)
                got = posefuse.fusion._references(track, firsts, size)
                for a in firsts.tolist():
                    window = poses[a : a + size]
                    expect = pose_hex(scalar_reference(window))
                    assert tuple(v.hex() for v in got[a].tolist()) == expect


class TestReferenceMap:
    """_reference_map builds the vio-to-world map of every reference: on
    floats in step (through ReferencePair._map), on columns in
    run_sequence.  Its column call equals its float calls by float.hex
    (the plumbing), and its formula is checked against the independent
    rigid map of tests/oracles.py: the map G carries vio_ref onto
    apr_ref."""

    @staticmethod
    def reference_rows(rng, n):
        """Reference rows as the stacked pass forms them: normalized,
        sign-canonical quaternions, with signed zeros throughout and half
        turns (w == 0) on every fifth row."""
        rows = rng.normal(size=(n, 7)) * rng.uniform(0.01, 50.0, size=(n, 1))
        rows[rng.random((n, 7)) < 0.15] = 0.0
        rows[rng.random((n, 7)) < 0.15] = -0.0
        rows[::5, 3] = 0.0
        rows[1::10, 3] = -0.0
        rows[(rows[:, 3:] == 0.0).all(axis=1), 5] = 1.0
        rows[:, 3:] = _normalize_rows(rows[:, 3:].copy())
        return rows

    def test_maps_vio_reference_onto_apr_reference(self, rng):
        apr_ref, vio_ref = self.reference_rows(rng, 600), self.reference_rows(rng, 600)
        # A half turn against the identity, and a pair with equal rotations.
        apr_ref[0, 3:], vio_ref[0, 3:] = (0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0)
        vio_ref[1, 3:] = apr_ref[1, 3:]
        assert (apr_ref[:, 3] == 0.0).sum() > 100 and np.signbit(apr_ref[apr_ref == 0.0]).any()
        for k, (a, v) in enumerate(zip(apr_ref.tolist(), vio_ref.tolist())):
            t, q_g = posefuse.fusion._reference_map(a, v)
            position, orientation = rigid_map_pose(q_g, t, v[:3], v[3:])
            assert np.abs(position - a[:3]).max() < 1e-12
            assert chordal_distance(orientation, a[3:]) < 1e-12
            if k == 1:
                assert chordal_distance(q_g, (1.0, 0.0, 0.0, 0.0)) < 1e-12

    def test_columns_match_floats(self, rng):
        apr_ref, vio_ref = self.reference_rows(rng, 600), self.reference_rows(rng, 600)
        apr_ref[0, 3:], vio_ref[0, 3:] = (0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0)
        vio_ref[1, 3:] = apr_ref[1, 3:]
        # As run_sequence calls it.
        t, q_g = posefuse.fusion._reference_map(
            apr_ref.T, vio_ref.T, lambda q: _normalize_rows(np.column_stack(q)).T
        )
        got = [[x.hex() for x in r] for r in np.column_stack((*t, *q_g)).tolist()]
        rows = map(posefuse.fusion._reference_map, apr_ref.tolist(), vio_ref.tolist())
        assert got == [[x.hex() for x in (*t, *q)] for t, q in rows]
        # A ReferencePair caches one float call, every bit kept.
        for a, v, row in zip(_poses(apr_ref[:50]), _poses(vio_ref[:50]), got):
            t, q = ReferencePair(a, v)._map
            assert [x.hex() for x in (*t, *q)] == row
