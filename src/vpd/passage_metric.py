"""Pass Quality: interval extraction, bipartite matching, and error costing.

A passage is a maximal run of 1-frames.  Detected passages are matched to
reference passages through the connected components of the overlap graph
(two intervals are linked iff they share at least one frame); each component
is costed by its (reference count L, detection count K) shape and

    PQ = R / (R + sum of costs)

with R the number of exact one-to-one components.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

KINDS = ("correct", "missed", "false", "merged", "split", "multiple")


@dataclass(frozen=True, order=True)
class Interval:
    """Closed frame interval [start, end]."""

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} > end {self.end}")

    def __len__(self) -> int:
        return self.end - self.start + 1


def classify_component(ref_count: int, det_count: int) -> tuple[str, int]:
    """Error kind and cost for a component with L references and K detections."""
    L, K = ref_count, det_count
    if L < 0 or K < 0 or (L == 0 and K == 0):
        raise ValueError(f"invalid component shape ({L}, {K})")
    if L == 1 and K == 1:
        return "correct", 0
    if K == 0:
        if L != 1:
            raise ValueError(f"({L}, 0) is not a connected component shape")
        return "missed", 1
    if L == 0:
        if K != 1:
            raise ValueError(f"(0, {K}) is not a connected component shape")
        return "false", 1
    if K == 1:
        return "merged", L
    if L == 1:
        return "split", K
    return "multiple", max(L, K)


@dataclass(frozen=True)
class MatchComponent:
    """One connected component of the reference/detection overlap graph."""

    ref: tuple[Interval, ...]
    det: tuple[Interval, ...]

    @property
    def ref_count(self) -> int:
        return len(self.ref)

    @property
    def det_count(self) -> int:
        return len(self.det)

    @property
    def kind(self) -> str:
        return classify_component(self.ref_count, self.det_count)[0]

    @property
    def cost(self) -> int:
        return classify_component(self.ref_count, self.det_count)[1]


@dataclass(frozen=True)
class PQReport:
    """Corpus- or file-level Pass Quality summary."""

    r: int
    sum_err: int
    counts: dict
    accuracy: float | None = None

    @property
    def pq(self) -> float:
        return pq_from_totals(self.r, self.sum_err)

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "sum_err": self.sum_err,
            "pq": self.pq,
            "counts": dict(self.counts),
            "accuracy": self.accuracy,
        }


def runs(signal: Sequence[int] | np.ndarray) -> tuple[np.ndarray, ...]:
    """Maximal runs of 1s of a binary signal, row by row, in (row, start) order.

    A 1-D signal is one row and gives ``(starts, ends)``; a 2-D (rows, frames)
    signal gives ``(rows, starts, ends)``.  Ends are inclusive.
    """
    arr = np.asarray(signal)
    n_rows, length = (1, len(arr)) if arr.ndim == 1 else arr.shape
    # a 0 ahead of the first row and after every row, so no run crosses rows
    stride = length + 1
    padded = np.zeros(n_rows * stride + 1, dtype=np.int8)
    padded[1:].reshape(n_rows, stride)[:, :length] = arr
    # changes alternate: a run starts at an even one and ends before the next
    edges = (padded[1:] != padded[:-1]).nonzero()[0]
    starts, ends = edges[::2], edges[1::2] - 1
    if arr.ndim == 1:
        return starts, ends
    rows = starts // stride
    return rows, starts - rows * stride, ends - rows * stride


def extract_intervals(signal: Sequence[int] | np.ndarray, first_frame: int = 0) -> list[Interval]:
    """Maximal runs of 1s as closed intervals in absolute frame numbers."""
    starts, ends = runs(signal)
    return [Interval(a, b) for a, b in zip((starts + first_frame).tolist(),
                                           (ends + first_frame).tolist())]


def _check_sorted_disjoint(intervals: Sequence[Interval], label: str) -> None:
    for a, b in zip(intervals, intervals[1:]):
        if b.start <= a.end:
            raise ValueError(f"{label} intervals not sorted/disjoint: {a} then {b}")


def match_passages(ref: Sequence[Interval], det: Sequence[Interval]) -> list[MatchComponent]:
    """Connected components of the overlap graph between two interval lists.

    Both lists must be sorted and pairwise disjoint.  Every interval ends up in
    exactly one component; unmatched intervals form (1,0) or (0,1) components.
    """
    ref = list(ref)
    det = list(det)
    _check_sorted_disjoint(ref, "ref")
    _check_sorted_disjoint(det, "det")

    # Each list is sorted and disjoint, so any interval whose start lies within
    # the running component extent overlaps the interval attaining that extent
    # (necessarily from the other list); a single start-ordered sweep therefore
    # yields exactly the connected components of the overlap graph.
    components: list[MatchComponent] = []
    cur_ref: list[Interval] = []
    cur_det: list[Interval] = []
    cur_end: int | None = None

    def flush():
        nonlocal cur_ref, cur_det, cur_end
        if cur_ref or cur_det:
            components.append(MatchComponent(tuple(cur_ref), tuple(cur_det)))
        cur_ref, cur_det, cur_end = [], [], None

    merged = [(iv, True) for iv in ref] + [(iv, False) for iv in det]
    merged.sort(key=lambda item: (item[0].start, item[0].end))
    for iv, from_ref in merged:
        if cur_end is None or iv.start > cur_end:
            flush()
            cur_end = iv.end
        else:
            cur_end = max(cur_end, iv.end)
        (cur_ref if from_ref else cur_det).append(iv)
    flush()
    return components


def pass_quality(ref: Sequence[Interval], det: Sequence[Interval]) -> PQReport:
    """Match the two interval lists and summarize R, total cost, and PQ."""
    return summarize_components(match_passages(ref, det))


def summarize_components(components: Iterable[MatchComponent],
                         accuracy: float | None = None) -> PQReport:
    counts = {k: 0 for k in KINDS}
    r = 0
    sum_err = 0
    for comp in components:
        kind, cost = classify_component(comp.ref_count, comp.det_count)
        counts[kind] += 1
        if kind == "correct":
            r += 1
        sum_err += cost
    return PQReport(r=r, sum_err=sum_err, counts=counts, accuracy=accuracy)


def score_signals(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> PQReport:
    """Corpus PQ of per-file (reference, prediction) binary signal pairs.

    Passages are matched within each file; R, costs and kind counts are summed
    over files, and ``accuracy`` is the share of agreeing frames over all files
    (None when there are no frames).  Both signals of a pair must have one length.
    """
    components: list[MatchComponent] = []
    agree = 0
    total = 0
    for ref, pred in pairs:
        ref = np.asarray(ref)
        pred = np.asarray(pred)
        if ref.shape != pred.shape:
            raise ValueError(f"length mismatch: ref {ref.shape} vs pred {pred.shape}")
        components.extend(match_passages(extract_intervals(ref), extract_intervals(pred)))
        agree += np.count_nonzero(ref == pred)
        total += ref.size
    return summarize_components(components, accuracy=agree / total if total else None)


def component_totals(ref: tuple[np.ndarray, np.ndarray],
                     det: tuple[np.ndarray, np.ndarray, np.ndarray],
                     n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row R and total cost of the overlap-graph components between one
    reference and each row's detections: ``summarize_components(match_passages(
    ref, det_of_row))`` for every row at once, in array form.

    ``ref`` is ``(starts, ends)`` of the reference intervals, shared by every
    row; ``det`` is ``(rows, starts, ends)`` of the detections, as :func:`runs`
    gives them for a 2-D signal.  Intervals are closed and, within one row of
    one list, sorted and disjoint.  Returns int64 arrays ``(r, sum_err)`` of
    length ``n_rows``.
    """
    ref_starts, ref_ends = (np.asarray(a, dtype=np.int64) for a in ref)
    det_rows, det_starts, det_ends = (np.asarray(a, dtype=np.int64) for a in det)
    n_ref = len(ref_starts)
    rows = np.concatenate([np.repeat(np.arange(n_rows), n_ref), det_rows])
    starts = np.concatenate([np.tile(ref_starts, n_rows), det_starts])
    ends = np.concatenate([np.tile(ref_ends, n_rows), det_ends])
    is_ref = np.arange(len(rows)) < n_rows * n_ref
    # lay the rows end to end with a gap, so that none overlaps the next
    lo = starts.min(initial=0)
    offset = rows * (ends.max(initial=0) - lo + 2) - lo
    order = np.argsort(starts + offset, kind="stable")
    starts, ends = (starts + offset)[order], (ends + offset)[order]
    rows, is_ref = rows[order], is_ref[order]
    # match_passages' sweep: an interval opens a component iff it starts
    # after every interval before it has ended
    opens = np.ones(len(starts), dtype=bool)
    opens[1:] = starts[1:] > np.maximum.accumulate(ends)[:-1]
    comp = np.cumsum(opens) - 1
    n_comp = np.count_nonzero(opens)
    n_refs = np.bincount(comp[is_ref], minlength=n_comp)
    n_dets = np.bincount(comp[~is_ref], minlength=n_comp)
    correct = (n_refs == 1) & (n_dets == 1)
    cost = np.where(correct, 0, np.maximum(n_refs, n_dets))
    comp_rows = rows[opens]
    return (np.bincount(comp_rows[correct], minlength=n_rows),
            np.bincount(comp_rows, weights=cost, minlength=n_rows).astype(np.int64))


def pq_from_totals(r: float, sum_err: float) -> float:
    """PQ formula on (possibly fractional, e.g. run-averaged) totals."""
    total = r + sum_err
    return r / total if total > 0 else 1.0
