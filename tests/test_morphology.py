import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vpd.morphology import MorphFilterSpec, closing, opening
from vpd.passage_metric import runs

signals = st.lists(st.integers(0, 1), min_size=0, max_size=40).map(
    lambda bits: np.array(bits, dtype=np.uint8))
widths = st.integers(1, 5)
ORDERS = ("close-then-open", "open-then-close")


def loop_opening(signal, k):
    """Opening as a per-run loop over the signal: the oracle for the run form."""
    out = np.zeros_like(signal)
    starts, ends = runs(signal)
    for a, b in zip(starts.tolist(), ends.tolist()):
        if b - a + 1 >= k:
            out[a:b + 1] = 1
    return out


def loop_closing(signal, k):
    """Closing as a per-gap loop over the signal: the oracle for the run form."""
    out = signal.copy()
    starts, ends = runs(signal)
    for end_prev, start_next in zip(ends[:-1].tolist(), starts[1:].tolist()):
        if start_next - end_prev - 1 < k:
            out[end_prev + 1:start_next] = 1
    return out


def loop_filter(signal, spec):
    if spec.order == "close-then-open":
        return loop_opening(loop_closing(signal, spec.close_width), spec.open_width)
    return loop_closing(loop_opening(signal, spec.open_width), spec.close_width)


def all_signals(max_len):
    for n in range(1, max_len + 1):
        for bits in itertools.product((0, 1), repeat=n):
            yield np.array(bits, dtype=np.uint8)


class TestOpenClose:
    def test_open_removes_short_runs(self):
        assert list(opening([0, 1, 0, 0, 1, 1, 1, 0], 3)) == [0, 0, 0, 0, 1, 1, 1, 0]

    def test_close_fills_gap(self):
        assert list(closing([1, 1, 0, 1, 1], 3)) == [1, 1, 1, 1, 1]

    def test_close_leaves_boundary_gaps(self):
        assert list(closing([0, 1, 1, 0], 3)) == [0, 1, 1, 0]

    def test_invalid_width(self):
        with pytest.raises(ValueError, match="width must be >= 1"):
            opening([1], 0)
        with pytest.raises(ValueError, match="width must be >= 1"):
            closing([1], -2)

    @given(signals, widths)
    def test_idempotence(self, s, k):
        o = opening(s, k)
        c = closing(s, k)
        assert np.array_equal(opening(o, k), o)
        assert np.array_equal(closing(c, k), c)

    @given(signals, widths)
    def test_extensivity(self, s, k):
        assert np.all(opening(s, k) <= s)
        assert np.all(s <= closing(s, k))

    @given(signals, widths, st.integers(0, 2 ** 32 - 1))
    def test_monotone(self, s, k, seed):
        rng = np.random.default_rng(seed)
        t = s | (rng.random(s.shape) < 0.3).astype(np.uint8)
        assert np.all(opening(s, k) <= opening(t, k))
        assert np.all(closing(s, k) <= closing(t, k))

    def test_run_characterization(self):
        # open keeps exactly the runs of length >= k; close fills exactly the
        # interior gaps shorter than k
        for s in all_signals(10):
            for k in (1, 2, 3, 4):
                runs = []
                in_run = False
                for i, v in enumerate(s):
                    if v and not in_run:
                        runs.append([i, i])
                        in_run = True
                    elif v:
                        runs[-1][1] = i
                    else:
                        in_run = False
                expect = np.zeros_like(s)
                for a, b in runs:
                    if b - a + 1 >= k:
                        expect[a:b + 1] = 1
                assert np.array_equal(opening(s, k), expect)
                expect = s.copy()
                for (a1, b1), (a2, b2) in zip(runs, runs[1:]):
                    if a2 - b1 - 1 < k:
                        expect[b1 + 1:a2] = 1
                assert np.array_equal(closing(s, k), expect)


class TestRunForm:
    @given(st.integers(0, 40).flatmap(lambda n: st.lists(
               st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=5)),
           st.integers(1, 6), st.integers(1, 6), st.sampled_from(ORDERS))
    def test_equals_loop_oracle(self, rows, open_width, close_width, order):
        spec = MorphFilterSpec(open_width, close_width, order)
        matrix = np.array(rows, dtype=np.uint8)
        expect = [loop_filter(row, spec) for row in matrix]
        for row, want in zip(matrix, expect):
            assert np.array_equal(spec(row), want)
            assert np.array_equal(opening(row, open_width), loop_opening(row, open_width))
            assert np.array_equal(closing(row, close_width), loop_closing(row, close_width))
        # every row at once, in run form, as the threshold sweep filters
        got = spec.on_runs(*runs(matrix))
        want = runs(np.array(expect, dtype=np.uint8).reshape(matrix.shape))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("signal", [[0, 2, 1], [[0, 1], [1, 0]]])
    def test_filter_rejects_bad_signal(self, signal):
        with pytest.raises(ValueError, match="signal must be"):
            MorphFilterSpec()(np.array(signal))


class TestApplyFilter:
    """A ``MorphFilterSpec`` applied to one signal."""

    def test_identity_spec(self):
        sig = np.array([0, 1, 0, 1, 0], dtype=np.uint8)
        assert np.array_equal(MorphFilterSpec(1, 1)(sig), sig)

    def test_order_matters(self):
        sig = np.array([0, 1, 0, 1, 0], dtype=np.uint8)
        a = MorphFilterSpec(3, 3, "close-then-open")(sig)
        b = MorphFilterSpec(3, 3, "open-then-close")(sig)
        assert not np.array_equal(a, b)

    def test_flicker_removal(self):
        rng = np.random.default_rng(2)
        clean = np.zeros(200, dtype=np.uint8)
        clean[40:90] = 1
        clean[120:170] = 1
        noisy = clean.copy()
        for pos in rng.integers(0, 200, 8):
            noisy[pos:pos + 2] ^= 1
        starts, ends = runs(MorphFilterSpec(3, 3)(noisy))
        assert np.all(ends - starts + 1 >= 3)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            MorphFilterSpec(0, 3)
        with pytest.raises(ValueError):
            MorphFilterSpec(3, 3, "sideways")
