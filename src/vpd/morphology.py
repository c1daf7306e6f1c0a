"""One-dimensional binary morphology with a flat structuring element.

``opening`` and ``closing`` are defined by their run-length semantics (remove
positive runs shorter than k; fill interior zero gaps shorter than k), which is
what erosion and dilation compose to on an unbounded domain with a properly
reflected element; composing windowed, zero-padded erosion and dilation
directly would distort runs at sequence boundaries and, for even k, shift them,
so the run form is used.  They work on the 1-runs as (row, start, end) arrays;
one signal is row 0, and ``MorphFilterSpec.on_runs`` filters the runs of many
rows (e.g. one per threshold) at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DictConfig
from .passage_metric import runs


@dataclass(frozen=True)
class MorphFilterSpec(DictConfig):
    """Composed open/close filter; width 1 components are identities."""

    open_width: int = 3
    close_width: int = 3
    order: str = "close-then-open"

    def __post_init__(self):
        if self.open_width < 1 or self.close_width < 1:
            raise ValueError("filter width must be >= 1, got "
                             f"open {self.open_width}, close {self.close_width}")
        if self.order not in ("close-then-open", "open-then-close"):
            raise ValueError(f"unknown order {self.order!r}")

    def __call__(self, signal: np.ndarray) -> np.ndarray:
        arr = np.asarray(signal, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("signal must be one-dimensional")
        if arr.size and arr.max() > 1:
            raise ValueError("signal must be binary")
        starts, ends = runs(arr)  # the one signal is row 0 of the run form
        _, starts, ends = self.on_runs(np.zeros_like(starts), starts, ends)
        return _paint(starts, ends, arr.size)

    def on_runs(self, rows: np.ndarray, starts: np.ndarray,
                ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The filter on the 1-runs of many signals at once, given as
        ``(rows, starts, ends)`` in (row, start) order, as ``passage_metric.runs``
        gives them for a 2-D signal; returns the filtered runs in the same form."""
        if self.order == "close-then-open":
            return _open_runs(*_close_runs(rows, starts, ends, self.close_width),
                              self.open_width)
        return _close_runs(*_open_runs(rows, starts, ends, self.open_width),
                           self.close_width)


def _open_runs(rows, starts, ends, k: int):
    """Drop the runs shorter than k."""
    keep = ends - starts + 1 >= k
    return rows[keep], starts[keep], ends[keep]


def _close_runs(rows, starts, ends, k: int):
    """Merge each run into the one before it in its row when the 0-gap
    between them is shorter than k."""
    # apart[i]: runs i-1 and i stay apart, so run i starts a merged run and
    # run i-1 ends one (the first run starts one, the last ends one)
    apart = np.ones(len(starts) + 1, dtype=bool)
    apart[1:-1] = (rows[1:] != rows[:-1]) | (starts[1:] - ends[:-1] - 1 >= k)
    return rows[apart[:-1]], starts[apart[:-1]], ends[apart[1:]]


def _paint(starts: np.ndarray, ends: np.ndarray, length: int) -> np.ndarray:
    """Binary signal of ``length`` frames that is 1 exactly on the given runs,
    which are sorted and separated by at least one 0."""
    steps = np.zeros(length + 1, dtype=np.int8)
    steps[starts] = 1
    steps[ends + 1] = -1
    return np.cumsum(steps[:-1], dtype=np.int8).astype(np.uint8)


def opening(signal, k: int) -> np.ndarray:
    """Remove maximal 1-runs shorter than k; runs of length >= k are kept."""
    return MorphFilterSpec(k, 1)(signal)


def closing(signal, k: int) -> np.ndarray:
    """Fill interior 0-gaps shorter than k; boundary gaps are left open."""
    return MorphFilterSpec(1, k)(signal)
