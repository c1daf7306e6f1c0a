"""One-dimensional binary morphology with a flat structuring element.

``erode``/``dilate`` are windowed all/any operations with zero padding and a
left-biased center for even widths.  ``opening`` and ``closing`` are defined by
their run-length semantics (remove positive runs shorter than k; fill interior
zero gaps shorter than k), which is what the erode/dilate compositions give on
an unbounded domain with a properly reflected element; composing the padded
windowed operations directly would distort runs at sequence boundaries and,
for even k, shift them, so the run form is used.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DictConfig
from .event_log import FrameSeries
from .passage_metric import runs


@dataclass(frozen=True)
class MorphFilterSpec(DictConfig):
    """Composed open/close filter; width 1 components are identities."""

    open_width: int = 3
    close_width: int = 3
    order: str = "close-then-open"

    def __post_init__(self):
        if self.open_width < 1 or self.close_width < 1:
            raise ValueError("filter widths must be >= 1")
        if self.order not in ("close-then-open", "open-then-close"):
            raise ValueError(f"unknown order {self.order!r}")

    def __call__(self, signal: np.ndarray) -> np.ndarray:
        if self.order == "close-then-open":
            return opening(closing(signal, self.close_width), self.open_width)
        return closing(opening(signal, self.open_width), self.close_width)


def _check_signal(signal) -> np.ndarray:
    arr = np.asarray(signal, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("signal must be binary")
    return arr


def _check_width(k: int) -> int:
    if k < 1:
        raise ValueError(f"structuring element width must be >= 1, got {k}")
    return int(k)


def erode(signal, k: int) -> np.ndarray:
    """out[i] = 1 iff every frame in the width-k window at i is 1 (0 outside)."""
    arr = _check_signal(signal)
    k = _check_width(k)
    if k == 1 or arr.size == 0:
        return arr.copy()
    left, right = k // 2, (k - 1) // 2  # left-biased center for even k
    padded = np.zeros(arr.size + k - 1, dtype=np.uint8)
    padded[left:left + arr.size] = arr
    windows = np.lib.stride_tricks.sliding_window_view(padded, k)
    return windows.min(axis=1)


def dilate(signal, k: int) -> np.ndarray:
    """out[i] = 1 iff any frame in the width-k window at i is 1."""
    arr = _check_signal(signal)
    k = _check_width(k)
    if k == 1 or arr.size == 0:
        return arr.copy()
    padded = np.zeros(arr.size + k - 1, dtype=np.uint8)
    padded[k // 2:k // 2 + arr.size] = arr
    windows = np.lib.stride_tricks.sliding_window_view(padded, k)
    return windows.max(axis=1)


def opening(signal, k: int) -> np.ndarray:
    """Remove maximal 1-runs shorter than k; runs of length >= k are kept."""
    arr = _check_signal(signal)
    k = _check_width(k)
    out = np.zeros_like(arr)
    starts, ends = runs(arr)
    for a, b in zip(starts.tolist(), ends.tolist()):
        if b - a + 1 >= k:
            out[a:b + 1] = 1
    return out


def closing(signal, k: int) -> np.ndarray:
    """Fill interior 0-gaps shorter than k; boundary gaps are left open."""
    arr = _check_signal(signal)
    k = _check_width(k)
    out = arr.copy()
    starts, ends = runs(arr)
    for end_prev, start_next in zip(ends[:-1].tolist(), starts[1:].tolist()):
        if start_next - end_prev - 1 < k:
            out[end_prev + 1:start_next] = 1
    return out


def apply_filter(series: FrameSeries, channel: str, spec: MorphFilterSpec) -> FrameSeries:
    """Replace one channel with its morphologically filtered version."""
    filtered = spec(series.channel(channel))
    return series.with_channel(channel, filtered)
