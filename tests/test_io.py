import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posefuse.geometry import Pose, UnitQuaternion, Vec3, rotation_angle_deg, translation_distance
from posefuse.io import (
    SEQUENCE_COLUMNS,
    PoseSample,
    Recording,
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
from oracles import row_parse_sequence
from posefuse import cli

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


def mixed_samples(rng, n=30):
    """Samples whose gt and apr streams are absent on some frames."""
    return [
        PoseSample(
            i,
            0.5 * i,
            gt=random_pose(rng) if i % 3 else None,
            vio=random_pose(rng),
            apr=None if i % 4 == 1 else random_pose(rng),
        )
        for i in range(n)
    ]


class TestRecording:
    """parse_sequence returns a Recording: arrays, read as a sequence of
    PoseSample built on access."""

    @pytest.fixture
    def rec(self, tmp_path, rng):
        path = tmp_path / "seq.csv"
        write_sequence(path, mixed_samples(rng))
        return parse_sequence(path)

    def test_of_round_trips_array_for_array(self, rec):
        back = Recording.of(list(rec))
        assert back.frames == rec.frames
        assert np.array_equal(back.timestamps, rec.timestamps)
        for stream in ("gt", "vio", "apr"):
            got, expect = getattr(back, stream), getattr(rec, stream)
            assert got.shape == (len(rec), 7)
            assert np.array_equal(got, expect, equal_nan=True)
            absent = [getattr(s, stream) is None for s in rec]
            assert np.isnan(got).all(axis=1).tolist() == absent
            assert np.isnan(got).any(axis=1).tolist() == absent
            assert (~rec.has(stream)).tolist() == absent
        assert not rec.has("gt").all() and not rec.has("apr").all()

    def test_of_returns_a_recording_unchanged(self, rec):
        assert Recording.of(rec) is rec

    def test_indexing_matches_iteration(self, rec):
        samples = list(rec)
        assert [rec[i] for i in range(len(rec))] == samples
        assert rec[-1] == samples[-1]
        with pytest.raises(IndexError):
            rec[len(rec)]
        part = rec[3:9]
        assert isinstance(part, Recording)
        assert list(part) == samples[3:9]

    def test_equals_any_sequence_of_equal_samples(self, rec):
        samples = list(rec)
        assert rec == samples and samples == rec
        assert rec == tuple(samples)
        samples[4] = PoseSample(samples[4].frame_index, samples[4].timestamp, vio=samples[4].vio)
        assert rec != samples
        assert rec != samples[:-1]
        assert Recording.of([]) == []

    def test_indexed_samples_are_copies(self, rec):
        expect = list(rec)
        rec[0].apr = None
        rec[1].vio = rec[2].vio
        assert list(rec) == expect

    def test_arrays_are_read_only(self, rec):
        for values in (rec.timestamps, rec.gt, rec.vio, rec.apr):
            with pytest.raises(ValueError):
                values[0] = 0.0

    def test_shapes_are_checked(self):
        with pytest.raises(ValueError, match="shape"):
            Recording([0, 1], [0.0, 1.0], np.zeros((2, 7)), np.zeros((2, 6)), np.zeros((2, 7)))


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


# Row mutations for the parser properties.  The first group always makes
# the row invalid; the quoted and padded fields stay valid, since
# csv.reader unquotes a field and int and float skip surrounding spaces.
BAD_MUTATIONS = ("field_count", "non_finite", "partial_group", "quaternion_norm", "timestamp", "frame")
MUTATIONS = (None,) + BAD_MUTATIONS + ("quoted", "padded")


def mutate(rows, k, mutation, rng):
    """Apply one mutation to the fields of row k (k >= 1 for timestamp)."""
    fields = rows[k]
    if mutation == "field_count":
        rows[k] = fields[:-1] if rng.random() < 0.5 else fields + ["0"]
    elif mutation == "non_finite":
        fields[int(rng.integers(1, 23))] = str(rng.choice(["nan", "inf", "-inf", "1e999", "NaN"]))
    elif mutation == "partial_group":
        j = 2 + 7 * int(rng.integers(0, 3)) + int(rng.integers(0, 7))
        fields[j] = "" if fields[j] else "0.5"
    elif mutation == "quaternion_norm":
        scale = float(rng.choice([0.5, 0.99, 1.0012, 2.0]))
        fields[12:16] = ["%.12g" % (float(v) * scale) for v in fields[12:16]]
    elif mutation == "timestamp":
        prev = rows[k - 1][1]
        fields[1] = prev if rng.random() < 0.5 else "%.12g" % (float(prev) - 1.0)
    elif mutation == "frame":
        fields[0] += ".0"
    elif mutation == "quoted":
        j = int(rng.integers(0, 23))
        fields[j] = '"%s"' % fields[j]
    elif mutation == "padded":
        j = int(rng.integers(0, 23))
        if fields[j]:
            fields[j] = " %s " % fields[j]


def row_fields(rng, n, presence, number):
    """The fields of n valid rows; presence maps each pose group to
    "all", "none" or "some" rows, number is the float format."""
    rows = []
    for i in range(n):
        fields = [str(i + 7), "%.12g" % (100.0 + 0.25 * i)]
        for group in ("gt", "vio", "apr"):
            mode = presence[group]
            if mode == "none" or (mode == "some" and rng.random() < 0.5):
                fields += [""] * 7
                continue
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            fields += [number % v for v in [*rng.uniform(-500.0, 500.0, 3).tolist(), *q.tolist()]]
        rows.append(fields)
    return rows


@st.composite
def sequence_texts(draw, min_rows=0, max_rows=12, mutations=MUTATIONS, groups=("all", "none", "some")):
    """A sequence file as text, the line number of its mutated row and
    the mutation, one of mutations (both None when no row is mutated).  The gt and apr groups are
    absent on every row, on none or on some; blank lines may separate
    rows, which end in LF or CRLF."""
    n = draw(st.integers(min_rows, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    presence = {"gt": draw(st.sampled_from(groups)), "vio": "all", "apr": draw(st.sampled_from(groups))}
    rows = row_fields(rng, n, presence, draw(st.sampled_from(["%.12g", "%r"])))
    mutation = draw(st.sampled_from(mutations))
    first = 1 if mutation == "timestamp" else 0
    k = None
    if mutation is not None and n > first:
        k = draw(st.integers(first, n - 1))
        mutate(rows, k, mutation, rng)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    blank = draw(st.sets(st.integers(0, n), max_size=3))
    lines, line_of = [HEADER], {}
    for i, fields in enumerate(rows):
        if i in blank:
            lines.append("" if rng.random() < 0.5 else "," * 22)
        line_of[i] = len(lines) + 1
        lines.append(",".join(fields))
    text = ending.join(lines) + (ending if draw(st.booleans()) else "")
    return text, line_of.get(k), mutation if k is not None else None


def parse_outcome(parse, path):
    """Samples by float.hex, or the error's message and line."""
    try:
        samples = parse(path)
    except SequenceFormatError as exc:
        return "error", str(exc), exc.line
    return [
        (s.frame_index, s.timestamp.hex())
        + tuple(
            None if p is None else tuple(
                v.hex() for v in (
                    p.position.x, p.position.y, p.position.z,
                    p.orientation.w, p.orientation.x, p.orientation.y, p.orientation.z,
                )
            )
            for p in (s.gt, s.vio, s.apr)
        )
        for s in samples
    ]


@contextlib.contextmanager
def text_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seq.csv"
        path.write_text(text, encoding="utf-8", newline="")
        yield path


def assert_parses_as_oracle(text):
    with text_file(text) as path:
        expect = parse_outcome(row_parse_sequence, path)
        assert parse_outcome(parse_sequence, path) == expect
    return expect


class TestParserFuzz:
    """parse_sequence reads files in chunks of whole lines, converted and
    checked in bulk; it must return what the row-by-row scanner returns,
    bit for bit, or raise its error on the same line."""

    @settings(max_examples=300, deadline=None)
    @given(sequence_texts())
    def test_matches_row_scanner(self, case):
        text, line, mutation = case
        outcome = assert_parses_as_oracle(text)
        if mutation in BAD_MUTATIONS:
            assert outcome[0] == "error" and outcome[2] == line

    @settings(max_examples=20, deadline=None)
    @given(sequence_texts(min_rows=230, max_rows=700, groups=("all",)))
    def test_matches_row_scanner_across_chunks(self, case):
        text, line, mutation = case
        assert len(text) > 1 << 16
        outcome = assert_parses_as_oracle(text)
        if mutation in BAD_MUTATIONS:
            assert outcome[0] == "error" and outcome[2] == line

    def test_timestamps_checked_across_chunk_edges(self):
        rng = np.random.default_rng(8)
        rows = row_fields(rng, 700, {"gt": "all", "vio": "all", "apr": "all"}, "%r")
        text = "\r\n".join([HEADER] + [",".join(f) for f in rows]) + "\r\n"
        # The row indices where parse_sequence starts a chunk.
        fh = io.StringIO(text, newline="")
        fh.readline()
        starts, k = [], 0
        while lines := fh.readlines(1 << 16):
            starts.append(k)
            k += len(lines)
        assert len(starts) >= 3
        for k in [j + d for j in starts[1:] for d in (-1, 0, 1)]:
            mutated = [list(f) for f in rows]
            mutated[k][1] = mutated[k - 1][1]
            text = "\r\n".join([HEADER] + [",".join(f) for f in mutated]) + "\r\n"
            assert assert_parses_as_oracle(text)[2] == k + 2

    @settings(max_examples=60, deadline=None)
    @given(sequence_texts(min_rows=1, mutations=(None,)))
    def test_round_trip_within_print_precision(self, case):
        text, _, _ = case
        with text_file(text) as path:
            samples = parse_sequence(path)
            write_sequence(path, samples)
            back = parse_sequence(path)

        def printed(v):
            return float("%.12g" % v)

        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            assert (b.frame_index, b.timestamp) == (a.frame_index, printed(a.timestamp))
            for stream in ("gt", "vio", "apr"):
                pa, pb = getattr(a, stream), getattr(b, stream)
                assert (pa is None) == (pb is None)
                if pa is None:
                    continue
                p, q = pa.position, pa.orientation
                assert pb.position == Vec3(printed(p.x), printed(p.y), printed(p.z))
                assert pb.orientation == UnitQuaternion(printed(q.w), printed(q.x), printed(q.y), printed(q.z))

    @settings(max_examples=40, deadline=None)
    @given(sequence_texts(min_rows=2, max_rows=6, mutations=BAD_MUTATIONS))
    def test_cli_names_the_bad_line(self, case):
        text, line, _ = case
        with text_file(text) as path:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["--input", str(path), "--out", str(path.parent / "out")])
        assert code == 1
        assert f"line {line}:" in err.getvalue()
