import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_event_log
from vpd import event_log
from vpd.event_log import (CHANNELS, SPAN_LIMIT, EmptyLogError, EventLog, EventRecord,
                           FrameSeries, LogFormatError, LogOrderError, densify,
                           parse_log, sparsify, write_log)

HEADER = "frame,shield,loop,cor,basic,ref"


def zero_order_hold(log):
    """Each frame from the first record to the last takes the values of the
    latest record at or before it, scanned one frame at a time."""
    out = {name: [] for name in CHANNELS}
    i = 0
    for frame in range(log.records[0].frame_no, log.records[-1].frame_no + 1):
        while i + 1 < len(log.records) and log.records[i + 1].frame_no <= frame:
            i += 1
        for name in CHANNELS:
            out[name].append(getattr(log.records[i], name))
    return out


class TestParse:
    def test_single_row(self):
        log = parse_log(f"{HEADER}\n208,1,1,1,1,1\n")
        assert log.records == (EventRecord(208, 1, 1, 1, 1, 1),)

    def test_empty_body(self):
        log = parse_log(HEADER + "\n")
        assert len(log) == 0

    def test_missing_header(self):
        with pytest.raises(LogFormatError):
            parse_log("1,0,0,0,0,0\n")

    def test_wrong_column_count(self):
        with pytest.raises(LogFormatError) as exc:
            parse_log(f"{HEADER}\n1,0,0,0,0\n")
        assert exc.value.line_no == 2

    def test_non_bit_value(self):
        with pytest.raises(LogFormatError):
            parse_log(f"{HEADER}\n1,0,2,0,0,0\n")

    def test_non_integer(self):
        with pytest.raises(LogFormatError):
            parse_log(f"{HEADER}\n1,0,x,0,0,0\n")

    def test_duplicate_frame_is_ordering_error(self):
        with pytest.raises(LogOrderError):
            parse_log(f"{HEADER}\n10,1,0,0,0,0\n10,0,1,0,0,0\n")

    def test_decreasing_frame(self):
        with pytest.raises(LogOrderError):
            parse_log(f"{HEADER}\n10,1,0,0,0,0\n5,0,1,0,0,0\n")

    def test_event_invariant_warning(self):
        # second row changes only the label: accepted, but flagged
        log = parse_log(f"{HEADER}\n10,1,0,0,0,0\n12,1,0,0,0,1\n")
        assert log.invariant_warnings == (1,)

    def test_invariant_warning_on_built_log(self):
        log = EventLog((EventRecord(0, 1, 0, 0, 0, 0), EventRecord(5, 1, 0, 0, 0, 1),
                        EventRecord(7, 0, 0, 0, 0, 1)))
        assert log.invariant_warnings == (1,)
        assert parse_log(write_log(log)).invariant_warnings == (1,)

    @pytest.mark.parametrize("frame", ["1_0", "+5", "-3", "1e3", "", "0x1f", "\u0661",
                                       "1" * 25, str(2 ** 63),
                                       pytest.param("1" * 5000, id="5000-digits")])
    def test_bad_frame_field(self, frame):
        with pytest.raises(LogFormatError) as exc:
            parse_log(f"{HEADER}\n1,0,0,0,0,0\n{frame},1,0,0,0,0\n")
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("frame, value", [(" 12 ", 12), ("007", 7), ("0" * 30, 0),
                                              (str(2 ** 63 - 1), 2 ** 63 - 1)])
    def test_frame_field_accepted(self, frame, value):
        assert parse_log(f"{HEADER}\n{frame},1,0,0,0,0\n").records[0].frame_no == value

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.one_of(
        st.text(max_size=30),
        st.lists(st.one_of(st.sampled_from(["0", "1", " 1", "2", "-1", "1_0", "", "x"]),
                           st.integers(0, 2 ** 64).map(str), st.text(max_size=4)),
                 min_size=5, max_size=7).map(",".join)), max_size=8))
    def test_fuzz_rows_raise_or_round_trip(self, rows):
        try:
            log = parse_log(HEADER + "\n" + "\n".join(rows))
        except LogFormatError:
            return
        assert parse_log(write_log(log)) == log


class TestRecordValidation:
    def test_rejects_non_bit(self):
        with pytest.raises(ValueError):
            EventRecord(0, 2, 0, 0, 0, 0)

    def test_rejects_negative_frame(self):
        with pytest.raises(ValueError):
            EventRecord(-1, 0, 0, 0, 0, 0)


class TestDensify:
    def test_sample_ref_interval(self, sample_log):
        series = densify(sample_log)
        ref = series.channel("ref_pass")
        on = np.flatnonzero(ref) + series.first_frame
        assert on[0] == 208 and on[-1] == 265
        assert np.all(np.diff(on) == 1)

    def test_length_covers_frame_range(self, sample_log):
        series = densify(sample_log)
        assert len(series) == 270 - 196 + 1
        assert series.first_frame == 196

    def test_single_record(self):
        log = parse_log(f"{HEADER}\n5,1,0,1,0,1\n")
        series = densify(log)
        assert len(series) == 1
        assert series.channel("shield")[0] == 1

    def test_hold_semantics(self):
        log = parse_log(f"{HEADER}\n0,0,1,0,0,0\n3,0,0,0,0,0\n")
        assert list(densify(log).channel("loop")) == [1, 1, 1, 0]

    def test_empty_log(self):
        with pytest.raises(EmptyLogError):
            densify(EventLog((), source_id="empty"))

    def test_span_over_limit_rejected(self):
        # one frame over the limit; nothing of that size may be allocated
        log = parse_log(f"{HEADER}\n7,0,0,0,0,0\n{7 + SPAN_LIMIT},1,0,0,0,0\n")
        with pytest.raises(LogFormatError,
                           match=f"spans {SPAN_LIMIT + 1} frames, above the limit of {SPAN_LIMIT}"):
            densify(log)

    def test_span_limit_boundary(self, monkeypatch):
        monkeypatch.setattr(event_log, "SPAN_LIMIT", 4)
        assert len(densify(parse_log(f"{HEADER}\n5,0,0,0,0,0\n8,1,0,0,0,0\n"))) == 4
        with pytest.raises(LogFormatError, match="spans 5 frames"):
            densify(parse_log(f"{HEADER}\n5,0,0,0,0,0\n9,1,0,0,0,0\n"))

    @settings(deadline=None)
    @given(st.integers(0, 1000),
           st.lists(st.tuples(st.integers(1, 30), *[st.integers(0, 1)] * len(CHANNELS)),
                    min_size=1, max_size=25))
    def test_matches_frame_by_frame_hold(self, first, rows):
        records, frame = [], first
        for gap, *values in rows:
            records.append(EventRecord(frame, *values))
            frame += gap
        log = EventLog(tuple(records))
        series = densify(log)
        expect = zero_order_hold(log)
        assert series.first_frame == first
        for name in CHANNELS:
            assert series.channel(name).tolist() == expect[name]


class TestRoundTrips:
    def test_write_parse_identity_sample(self, sample_log):
        assert parse_log(write_log(sample_log), source_id="sample") == sample_log

    def test_write_is_bit_exact(self, sample_log):
        text = write_log(sample_log)
        assert write_log(parse_log(text)) == text

    def test_empty_log_writes_header_only(self):
        assert write_log(EventLog(())) == HEADER + "\n"

    def test_sparsify_densify_inverse(self, sample_log):
        assert sparsify(densify(sample_log), source_id="sample") == sample_log

    def test_sparsify_writes_absent_channels_as_zero(self):
        inputs = {"shield": [1, 1, 0, 0], "loop": [0, 1, 1, 1], "cor": [0, 0, 0, 1]}
        series = FrameSeries(4, {k: np.array(v, dtype=np.uint8) for k, v in inputs.items()})
        log = sparsify(series)
        assert log.records == tuple(EventRecord(4 + i, s, lo, c, 0, 0) for i, (s, lo, c)
                                    in enumerate(zip(*inputs.values())))

    def test_constant_series_one_record(self):
        series = FrameSeries(0, {name: np.ones(100, dtype=np.uint8) for name in CHANNELS})
        log = sparsify(series)
        assert len(log) == 1

    def test_random_series_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 51))
            series = FrameSeries(int(rng.integers(0, 100)),
                                 {name: rng.integers(0, 2, n).astype(np.uint8)
                                  for name in CHANNELS})
            back = densify(sparsify(series))
            assert back.first_frame == series.first_frame
            # trailing frames after the last input event are not covered
            m = len(back)
            for name in ("shield", "loop", "cor"):
                assert np.array_equal(back.channel(name), series.channel(name)[:m])

    def test_random_logs_round_trip(self):
        rng = np.random.default_rng(6)
        for i in range(100):
            log = random_event_log(rng, source_id=f"r{i}")
            assert parse_log(write_log(log), source_id=f"r{i}") == log
            assert sparsify(densify(log), source_id=f"r{i}") == log


class TestFrameSeries:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            FrameSeries(0, {"a": np.zeros(3, dtype=np.uint8),
                            "b": np.zeros(4, dtype=np.uint8)})

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            FrameSeries(0, {"a": np.array([0, 2], dtype=np.uint8)})

    def test_unknown_channel(self):
        series = FrameSeries(0, {"a": np.zeros(3, dtype=np.uint8)})
        with pytest.raises(KeyError):
            series.channel("b")
