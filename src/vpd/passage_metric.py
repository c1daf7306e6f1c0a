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
        total = self.r + self.sum_err
        return self.r / total if total > 0 else 1.0

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "sum_err": self.sum_err,
            "pq": self.pq,
            "counts": dict(self.counts),
            "accuracy": self.accuracy,
        }


def runs(signal: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and inclusive end indices of the maximal runs of 1s in a binary signal."""
    padded = np.zeros(len(signal) + 2, dtype=np.int8)
    padded[1:-1] = signal
    # changes alternate: a run starts at an even one and ends before the next
    edges = (padded[1:] != padded[:-1]).nonzero()[0]
    return edges[::2], edges[1::2] - 1


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


def pq_from_totals(r: float, sum_err: float) -> float:
    """PQ formula on (possibly fractional, e.g. run-averaged) totals."""
    total = r + sum_err
    return r / total if total > 0 else 1.0


def pointwise_accuracy(ref: Sequence[int] | np.ndarray, pred: Sequence[int] | np.ndarray) -> float:
    """Fraction of frames where the two binary signals agree."""
    ref = np.asarray(ref)
    pred = np.asarray(pred)
    if ref.shape != pred.shape:
        raise ValueError(f"length mismatch: {ref.shape} vs {pred.shape}")
    if ref.size == 0:
        raise ValueError("empty signals")
    return float(np.mean(ref == pred))
