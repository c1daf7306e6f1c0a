import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_intervals
from vpd.event_log import densify
from vpd.passage_metric import (KINDS, Interval, classify_component, component_totals,
                                extract_intervals, match_passages, pass_quality,
                                pq_from_totals, runs, score_signals, summarize_components)


def bits(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.uint8))


def intervals_from_steps(steps):
    """Sorted, disjoint (possibly touching) intervals from (gap, length) steps."""
    out, pos = [], 0
    for gap, length in steps:
        out.append(Interval(pos + gap, pos + gap + length - 1))
        pos = out[-1].end + 1
    return out


interval_lists = st.lists(st.tuples(st.integers(0, 6), st.integers(1, 8)),
                          max_size=8).map(intervals_from_steps)

#: one corpus: per-file (reference, prediction) pairs of equal length
corpora = st.lists(st.integers(0, 60).flatmap(lambda n: st.tuples(bits(n), bits(n))),
                   max_size=5)


def frame_scan_runs(signal):
    """(start, end) of each 1-run, by walking the frames one at a time."""
    out, start = [], None
    for i, v in enumerate(list(signal) + [0]):
        if v and start is None:
            start = i
        elif not v and start is not None:
            out.append((start, i - 1))
            start = None
    return out


def brute_force_components(ref, det):
    """Transitive closure over the overlap relation, found by repeated expansion."""
    nodes = [("r", i) for i in range(len(ref))] + [("d", j) for j in range(len(det))]
    adj = {n: set() for n in nodes}
    for i, r in enumerate(ref):
        for j, d in enumerate(det):
            if r.start <= d.end and d.start <= r.end:
                adj[("r", i)].add(("d", j))
                adj[("d", j)].add(("r", i))
    seen = set()
    comps = []
    for n in nodes:
        if n in seen:
            continue
        stack, comp = [n], set()
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            stack.extend(adj[cur] - comp)
        seen |= comp
        rs = tuple(sorted(i for kind, i in comp if kind == "r"))
        ds = tuple(sorted(j for kind, j in comp if kind == "d"))
        comps.append((rs, ds))
    return sorted(comps)


def as_index_components(ref, det, components):
    out = []
    for c in components:
        rs = tuple(sorted(ref.index(iv) for iv in c.ref))
        ds = tuple(sorted(det.index(iv) for iv in c.det))
        out.append((rs, ds))
    return sorted(out)


class TestExtractIntervals:
    def test_sample_ref(self, sample_log):
        series = densify(sample_log)
        assert extract_intervals(series.channel("ref_pass"),
                                 series.first_frame) == [Interval(208, 265)]

    def test_all_zero(self):
        assert extract_intervals([0, 0, 0]) == []

    def test_singletons(self):
        assert extract_intervals([1, 0, 1]) == [Interval(0, 0), Interval(2, 2)]

    def test_empty_signal(self):
        assert extract_intervals([]) == []


class TestRuns:
    @given(st.integers(0, 80).flatmap(bits))
    def test_equals_frame_scan(self, signal):
        starts, ends = runs(signal)
        assert list(zip(starts.tolist(), ends.tolist())) == frame_scan_runs(signal.tolist())

    @given(st.integers(0, 30).flatmap(
        lambda n: st.lists(bits(n), min_size=0, max_size=5)), st.integers(0, 30))
    def test_rows_are_separate_signals(self, rows, length):
        matrix = np.array(rows, dtype=np.uint8).reshape(len(rows), -1 if rows else length)
        got = runs(matrix)
        want = [(i, a, b) for i, row in enumerate(rows)
                for a, b in frame_scan_runs(row.tolist())]
        assert list(zip(*(a.tolist() for a in got))) == want

    def test_list_and_bool_input(self):
        for signal in ([1, 1, 0, 1], [True, True, False, True]):
            starts, ends = runs(signal)
            assert (starts.tolist(), ends.tolist()) == ([0, 3], [1, 3])


class TestCosts:
    @pytest.mark.parametrize("l,k,kind,cost", [
        (1, 1, "correct", 0),
        (1, 0, "missed", 1),
        (0, 1, "false", 1),
        (3, 1, "merged", 3),
        (1, 4, "split", 4),
        (2, 3, "multiple", 3),
        (5, 2, "multiple", 5),
    ])
    def test_table(self, l, k, kind, cost):
        assert classify_component(l, k) == (kind, cost)

    def test_cost_symmetry(self):
        for l in range(1, 6):
            for k in range(1, 6):
                assert classify_component(l, k)[1] == classify_component(k, l)[1]


class TestMatch:
    def test_single_overlap(self):
        comps = match_passages([Interval(10, 20)], [Interval(15, 25)])
        assert len(comps) == 1
        assert (comps[0].kind, comps[0].cost) == ("correct", 0)

    def test_merged(self):
        comps = match_passages([Interval(0, 5), Interval(10, 15)], [Interval(3, 12)])
        assert len(comps) == 1
        assert (comps[0].kind, comps[0].cost) == ("merged", 2)

    def test_touching_is_not_overlap(self):
        comps = match_passages([Interval(0, 5)], [Interval(6, 9)])
        kinds = sorted(c.kind for c in comps)
        assert kinds == ["false", "missed"]

    def test_rejects_overlapping_input(self):
        with pytest.raises(ValueError):
            match_passages([Interval(0, 5), Interval(4, 8)], [])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            ref = random_intervals(rng)
            det = random_intervals(rng)
            assert as_index_components(ref, det, match_passages(ref, det)) == \
                brute_force_components(ref, det)

    def test_counts_partition_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            ref = random_intervals(rng)
            det = random_intervals(rng)
            comps = match_passages(ref, det)
            assert sum(c.ref_count for c in comps) == len(ref)
            assert sum(c.det_count for c in comps) == len(det)


class TestComponentTotals:
    @settings(deadline=None)
    @given(interval_lists, st.lists(interval_lists, max_size=4))
    def test_equals_match_passages_and_brute_force(self, ref, dets):
        det_runs = ([row for row, det in enumerate(dets) for _ in det],
                    [iv.start for det in dets for iv in det],
                    [iv.end for det in dets for iv in det])
        r, sum_err = component_totals(([iv.start for iv in ref], [iv.end for iv in ref]),
                                      det_runs, len(dets))
        assert r.shape == sum_err.shape == (len(dets),)
        for row, det in enumerate(dets):
            report = summarize_components(match_passages(ref, det))
            shapes = [classify_component(len(rs), len(ds))
                      for rs, ds in brute_force_components(ref, det)]
            brute = (sum(kind == "correct" for kind, _ in shapes),
                     sum(cost for _, cost in shapes))
            assert (r[row], sum_err[row]) == (report.r, report.sum_err) == brute

    def test_planted_rows(self):
        ref = ([10, 40], [20, 50])
        det = ([0, 1, 1, 2], [12, 5, 15, 100], [18, 8, 45, 120])
        r, sum_err = component_totals(ref, det, 4)
        # row 0: correct + missed; row 1: false + merged; row 2: false + 2 missed;
        # row 3: nothing detected, 2 missed
        assert r.tolist() == [1, 0, 0, 0]
        assert sum_err.tolist() == [1, 3, 3, 2]


class TestPassQuality:
    def test_perfect_detection(self):
        ivs = [Interval(0, 5), Interval(10, 12)]
        assert pass_quality(ivs, ivs).pq == 1.0

    def test_single_miss(self):
        rep = pass_quality([Interval(0, 5)], [])
        assert (rep.r, rep.sum_err, rep.pq) == (0, 1, 0.0)

    def test_empty_vs_empty(self):
        rep = pass_quality([], [])
        assert rep.pq == 1.0

    def test_formula_on_fractional_totals(self):
        assert abs(pq_from_totals(1684.3, 158.7) - 0.914) < 5e-4

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            ref = random_intervals(rng)
            det = random_intervals(rng)
            shift = int(rng.integers(1, 1000))
            shifted = lambda ivs: [Interval(i.start + shift, i.end + shift) for i in ivs]
            assert pass_quality(ref, det).to_dict() == \
                pass_quality(shifted(ref), shifted(det)).to_dict()

    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ref = random_intervals(rng)
            det = random_intervals(rng)
            a = pass_quality(ref, det)
            b = pass_quality(det, ref)
            assert a.r == b.r and a.sum_err == b.sum_err and a.pq == b.pq
            assert a.counts["missed"] == b.counts["false"]
            assert a.counts["merged"] == b.counts["split"]

    def test_spurious_detection_strictly_decreases_pq(self):
        ref = [Interval(0, 5)]
        det = [Interval(2, 7)]
        base = pass_quality(ref, det).pq
        worse = pass_quality(ref, det + [Interval(100, 105)]).pq
        assert worse < base

    def test_offset_does_not_matter_for_single_pair(self):
        for det in ([Interval(0, 3)], [Interval(5, 30)], [Interval(9, 9)]):
            rep = pass_quality([Interval(3, 9)], det)
            assert (rep.r, rep.sum_err) == (1, 0)


class TestScoreSignals:
    @settings(deadline=None)
    @given(corpora)
    def test_equals_per_file_match_and_brute_force(self, pairs):
        report = score_signals(pairs)
        components = []
        counts = {k: 0 for k in KINDS}
        r = sum_err = agree = total = 0
        for ref, pred in pairs:
            ref_iv, pred_iv = extract_intervals(ref), extract_intervals(pred)
            components.extend(match_passages(ref_iv, pred_iv))
            for rs, ds in brute_force_components(ref_iv, pred_iv):
                kind, cost = classify_component(len(rs), len(ds))
                counts[kind] += 1
                r += kind == "correct"
                sum_err += cost
            agree += sum(a == b for a, b in zip(ref.tolist(), pred.tolist()))
            total += len(ref)
        accuracy = agree / total if total else None
        assert report == summarize_components(components, accuracy=accuracy)
        assert (report.r, report.sum_err, report.counts) == (r, sum_err, counts)

    def test_empty_corpus(self):
        report = score_signals([])
        assert (report.r, report.sum_err, report.pq, report.accuracy) == (0, 0, 1.0, None)

    @pytest.mark.parametrize("ref, pred, accuracy", [
        ([1, 0, 1], [1, 0, 1], 1.0),
        ([1, 0], [0, 1], 0.0),
    ], ids=["all-agree", "all-disagree"])
    def test_accuracy(self, ref, pred, accuracy):
        assert score_signals([(np.array(ref), np.array(pred))]).accuracy == accuracy

    def test_accuracy_random_matches_count(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 100))
            a = rng.integers(0, 2, n)
            b = rng.integers(0, 2, n)
            assert score_signals([(a, b)]).accuracy == np.sum(a == b) / n

    def test_rejects_length_mismatch(self):
        ok = (np.zeros(4, dtype=np.uint8), np.zeros(4, dtype=np.uint8))
        bad = (np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError, match="length mismatch"):
            score_signals([ok, bad])


class TestReportSerialization:
    def test_json_keys(self):
        rep = pass_quality([Interval(0, 2)], [Interval(1, 3)])
        d = rep.to_dict()
        assert set(d) == {"r", "sum_err", "pq", "counts", "accuracy"}
        assert set(d["counts"]) == {"correct", "missed", "false", "merged",
                                    "split", "multiple"}
