"""Model inputs: channel subsets and fixed-window history expansion."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DictConfig
from .event_log import FrameSeries


@dataclass(frozen=True)
class FeatureSpec(DictConfig):
    """Which input channels to feed the model, with ``window`` past samples."""

    channels: tuple[str, ...] = ("shield", "loop", "cor")
    window: int = 0

    def __post_init__(self):
        if not self.channels:
            raise ValueError("feature spec needs at least one channel")
        if len(set(self.channels)) != len(self.channels):
            raise ValueError(f"duplicate channels in {self.channels}")
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def dim(self) -> int:
        return len(self.channels) * (self.window + 1)


def window_expand(series: FrameSeries, spec: FeatureSpec) -> np.ndarray:
    """Per-frame feature vectors ``[X_t, X_{t-1}, ..., X_{t-w}]``.

    Frames before the series start contribute zeros (the sensors' idle value).
    Output shape is (len(series), |channels| * (w + 1)), dtype float64.
    """
    base = np.stack([series.channel(c) for c in spec.channels], axis=1).astype(np.float64)
    n, c = base.shape
    w = spec.window
    if w == 0:
        return base
    out = np.zeros((n, c * (w + 1)), dtype=np.float64)
    for lag in range(w + 1):
        block = out[:, lag * c:(lag + 1) * c]
        if lag == 0:
            block[:] = base
        else:
            block[lag:] = base[:-lag]
    return out
