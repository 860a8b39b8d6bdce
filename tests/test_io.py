import math
from pathlib import Path

import pytest

from posefuse.geometry import Pose, UnitQuaternion, Vec3, rotation_angle_deg, translation_distance
from posefuse.io import (
    SEQUENCE_COLUMNS,
    PoseSample,
    SequenceFormatError,
    parse_sequence,
    write_sequence,
)
from posefuse.synth import (
    AprNoiseModel,
    TrajectoryConfig,
    VioNoiseModel,
    generate_gt,
    simulate_apr,
    simulate_vio,
)
from helpers import random_pose

HEADER = ",".join(SEQUENCE_COLUMNS)
IDENTITY_GROUP = "0,0,0,1,0,0,0"
EMPTY_GROUP = ",,,,,,"


REPORTS = Path(__file__).parent / "data" / "reports"


def write_text(tmp_path, text):
    path = tmp_path / "seq.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestParse:
    def test_minimal_file(self, tmp_path):
        path = write_text(
            tmp_path,
            f"{HEADER}\n0,0.0,{EMPTY_GROUP},{IDENTITY_GROUP},{EMPTY_GROUP}\n",
        )
        samples = parse_sequence(path)
        assert len(samples) == 1
        s = samples[0]
        assert s.frame_index == 0
        assert s.timestamp == 0.0
        assert s.gt is None and s.apr is None
        assert s.vio.position == Vec3.zero()
        assert s.vio.orientation == UnitQuaternion.identity()

    def test_header_only_is_empty(self, tmp_path):
        assert parse_sequence(write_text(tmp_path, HEADER + "\n")) == []

    def test_blank_rows_skipped(self, tmp_path):
        path = write_text(
            tmp_path,
            f"{HEADER}\n\n0,0.0,{EMPTY_GROUP},{IDENTITY_GROUP},{EMPTY_GROUP}\n"
            f",,,,,,,,,,,,,,,,,,,,,,\n"
            f"1,1.0,{EMPTY_GROUP},{IDENTITY_GROUP},{EMPTY_GROUP}\n",
        )
        assert [s.frame_index for s in parse_sequence(path)] == [0, 1]

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(SequenceFormatError, match="line 1: empty file"):
            parse_sequence(write_text(tmp_path, ""))

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(SequenceFormatError, match="line 1: bad header"):
            parse_sequence(write_text(tmp_path, "frame,time\n"))

    def test_field_count_names_line(self, tmp_path):
        path = write_text(tmp_path, f"{HEADER}\n0,0.0,1,2\n")
        with pytest.raises(SequenceFormatError, match="line 2: expected 23 fields, got 4"):
            parse_sequence(path)

    def test_non_unit_quaternion_names_line(self, tmp_path):
        bad_vio = "0,0,0,0.5,0,0,0"
        path = write_text(
            tmp_path,
            f"{HEADER}\n"
            f"0,0.0,{EMPTY_GROUP},{IDENTITY_GROUP},{EMPTY_GROUP}\n"
            f"1,1.0,{EMPTY_GROUP},{bad_vio},{EMPTY_GROUP}\n",
        )
        with pytest.raises(SequenceFormatError, match="line 3: vio quaternion norm 0.5") as exc:
            parse_sequence(path)
        assert exc.value.line == 3

    def test_near_unit_quaternion_accepted(self, tmp_path):
        # Print-precision wobble inside the slack band renormalizes.
        vio = "0,0,0,1.0000004,0,0,0"
        path = write_text(tmp_path, f"{HEADER}\n0,0.0,{EMPTY_GROUP},{vio},{EMPTY_GROUP}\n")
        q = parse_sequence(path)[0].vio.orientation
        assert math.isclose(q.w, 1.0)

    def test_frame_must_be_integer(self, tmp_path):
        path = write_text(tmp_path, f"{HEADER}\nx,0.0,{EMPTY_GROUP},{IDENTITY_GROUP},{EMPTY_GROUP}\n")
        with pytest.raises(SequenceFormatError, match="frame is not an integer"):
            parse_sequence(path)

    def test_timestamp_must_be_finite(self, tmp_path):
        path = write_text(tmp_path, f"{HEADER}\n0,inf,{EMPTY_GROUP},{IDENTITY_GROUP},{EMPTY_GROUP}\n")
        with pytest.raises(SequenceFormatError, match="timestamp must be finite"):
            parse_sequence(path)

    def test_pose_field_must_be_number(self, tmp_path):
        vio = "a,0,0,1,0,0,0"
        path = write_text(tmp_path, f"{HEADER}\n0,0.0,{EMPTY_GROUP},{vio},{EMPTY_GROUP}\n")
        with pytest.raises(SequenceFormatError, match="vio is not a number"):
            parse_sequence(path)

    def test_missing_vio_rejected(self, tmp_path):
        path = write_text(
            tmp_path, f"{HEADER}\n0,0.0,{IDENTITY_GROUP},{EMPTY_GROUP},{EMPTY_GROUP}\n"
        )
        with pytest.raises(SequenceFormatError, match="line 2: vio pose is required"):
            parse_sequence(path)

    def test_partial_group_rejected(self, tmp_path):
        partial = "1,2,3,1,0,0,"
        path = write_text(
            tmp_path, f"{HEADER}\n0,0.0,{partial},{IDENTITY_GROUP},{EMPTY_GROUP}\n"
        )
        with pytest.raises(SequenceFormatError, match="gt pose group is partially filled"):
            parse_sequence(path)

    def test_timestamps_must_increase(self, tmp_path):
        path = write_text(
            tmp_path,
            f"{HEADER}\n"
            f"0,1.0,{EMPTY_GROUP},{IDENTITY_GROUP},{EMPTY_GROUP}\n"
            f"1,1.0,{EMPTY_GROUP},{IDENTITY_GROUP},{EMPTY_GROUP}\n",
        )
        with pytest.raises(SequenceFormatError, match="line 3: timestamps must be strictly increasing"):
            parse_sequence(path)

    def test_error_type_is_value_error(self):
        err = SequenceFormatError("boom", line=7)
        assert isinstance(err, ValueError)
        assert err.line == 7
        assert str(err) == "line 7: boom"


class TestRoundTrip:
    def test_all_streams_survive(self, tmp_path, rng):
        samples = [
            PoseSample(
                i,
                0.5 * i,
                gt=random_pose(rng),
                vio=random_pose(rng),
                apr=random_pose(rng),
            )
            for i in range(20)
        ]
        path = tmp_path / "seq.csv"
        write_sequence(path, samples)
        back = parse_sequence(path)
        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            assert a.frame_index == b.frame_index
            assert a.timestamp == pytest.approx(b.timestamp, rel=1e-11)
            for stream in ("gt", "vio", "apr"):
                pa, pb = getattr(a, stream), getattr(b, stream)
                assert translation_distance(pa.position, pb.position) < 1e-9
                assert rotation_angle_deg(pa.orientation, pb.orientation) < 1e-5

    def test_absent_streams_stay_absent(self, tmp_path, rng):
        samples = [PoseSample(i, float(i), vio=random_pose(rng)) for i in range(3)]
        path = tmp_path / "seq.csv"
        write_sequence(path, samples)
        for s in parse_sequence(path):
            assert s.gt is None and s.apr is None and s.vio is not None

    def test_header_written_even_when_empty(self, tmp_path):
        path = tmp_path / "seq.csv"
        write_sequence(path, [])
        assert path.read_text(encoding="utf-8").strip() == HEADER
        assert parse_sequence(path) == []


class TestWriterBytes:
    """The pinned report inputs are 45 frames of the seed-3 synthetic
    sequence, stream seeds derived as the CLI derives them, with one
    stream dropped on some frames.  Writing them again must give the
    committed bytes: 12 significant digits, seven empty fields for an
    absent group, CRLF line ends."""

    @pytest.mark.parametrize(
        "name, stream, dropped",
        [
            ("no_gt", "gt", lambda i: True),
            ("partial_gt", "gt", lambda i: i % 3 == 2),
            ("vio_eval", "apr", lambda i: True),
        ],
    )
    def test_rewrites_pinned_input(self, tmp_path, name, stream, dropped):
        samples = generate_gt(TrajectoryConfig(n_frames=45, seed=3))
        gt = [s.gt for s in samples]
        vio = simulate_vio(gt, VioNoiseModel(), 3 + 1_000_003)
        apr = simulate_apr(gt, AprNoiseModel(), 3 + 2_000_003)
        for i, (s, v, a) in enumerate(zip(samples, vio, apr)):
            s.vio, s.apr = v, a
            if dropped(i):
                setattr(s, stream, None)
        path = tmp_path / f"{name}.csv"
        write_sequence(path, samples)
        assert path.read_bytes() == (REPORTS / f"{name}.csv").read_bytes()
