"""Losses, the per-sequence training loop, file-level splits, and threshold tuning."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import nets
from .config import DictConfig
from .event_log import FrameSeries
from .features import FeatureSpec, window_expand
from .morphology import MorphFilterSpec
from .passage_metric import component_totals, pq_from_totals, runs


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, value: float):
        super().__init__(f"non-finite loss {value!r} at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class LossSpec(DictConfig):
    """Class-weighted MSE with an optional output-derivative penalty."""

    positive_weight: float = 1.0
    negative_weight: float = 1.0
    derivative_lambda: float = 0.0

    def __post_init__(self):
        if self.positive_weight <= 0 or self.negative_weight <= 0:
            raise ValueError("class weights must be positive")
        if self.derivative_lambda < 0:
            raise ValueError("derivative_lambda must be >= 0")


@dataclass(frozen=True)
class TrainConfig(DictConfig):
    epochs: int = 40
    learning_rate: float = 1e-2
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    loss: LossSpec = field(default_factory=LossSpec)
    threshold_grid: float = 0.01
    shuffle_files: bool = True
    clip_norm: float | None = 5.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.threshold_grid < 1.0:
            raise ValueError("threshold_grid must be in (0, 1)")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")


class _Optimizer:
    """Adam, or plain SGD, per ``config.optimizer``, on the whole parameter buffer."""

    def __init__(self, config: TrainConfig, size: int):
        self.cfg, self.m, self.v, self.t = config, np.zeros(size), np.zeros(size), 0

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        cfg = self.cfg
        if cfg.optimizer == "sgd":
            flat -= cfg.learning_rate * grad
            return
        self.t += 1
        correction1 = 1.0 - cfg.beta1 ** self.t
        correction2 = 1.0 - cfg.beta2 ** self.t
        self.m *= cfg.beta1
        self.m += (1.0 - cfg.beta1) * grad
        self.v *= cfg.beta2
        self.v += (1.0 - cfg.beta2) * grad * grad
        flat -= cfg.learning_rate * (self.m / correction1) / (
            np.sqrt(self.v / correction2) + cfg.eps)


def _clip_global_norm(model: nets.ModelParams, grad: np.ndarray, max_norm: float) -> None:
    """Scale ``grad`` down to norm ``max_norm`` if longer.  The square norm is
    summed per array in ``param_arrays`` order: one sum would round otherwise."""
    total = np.sqrt(sum(float(np.sum(g * g)) for _, g in nets.param_arrays(model, grad)))
    if total > max_norm and total > 0:
        grad *= max_norm / total


def train(model_init: nets.ModelParams,
          dataset: list[tuple[np.ndarray, np.ndarray]],
          config: TrainConfig) -> tuple[nets.ModelParams, list[float]]:
    """Per-sequence gradient descent: one parameter update per file.

    Deterministic given the config seed (file order shuffling and dropout masks
    are derived from it).  Returns the final-epoch parameters and the per-epoch
    mean training loss.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    model = model_init.copy()
    opt = _Optimizer(config, model.flat.size)
    order_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5EED]))

    trace = []
    for epoch in range(config.epochs):
        order = np.arange(len(dataset))
        if config.shuffle_files:
            order_rng.shuffle(order)
        epoch_losses = []
        for file_idx in order:
            x, targets = dataset[file_idx]
            drop_rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, epoch, int(file_idx)]))
            value, grad = nets.backward(model, x, targets, config.loss,
                                        mode="train", rng=drop_rng)
            if not np.isfinite(value):
                raise DivergenceError(epoch, value)
            if config.clip_norm is not None:
                _clip_global_norm(model, grad, config.clip_norm)
            opt.step(model.flat, grad)
            epoch_losses.append(value)
        trace.append(float(np.mean(epoch_losses)))
    return model, trace


# ---------------------------------------------------------------------------
# splits


@dataclass(frozen=True)
class SplitPlan:
    """Fold assignment at log-file granularity; frames inside files are never split."""

    assignments: dict
    n_folds: int
    kind: str = "kfold"  # or "holdout" with folds {0: train, 1: test}

    def fold_files(self, fold: int) -> list:
        return sorted(f for f, k in self.assignments.items() if k == fold)

    def train_files(self, fold: int) -> list:
        return sorted(f for f, k in self.assignments.items() if k != fold)

    def plan_hash(self) -> str:
        blob = ";".join(f"{f}={k}" for f, k in sorted(self.assignments.items()))
        return hashlib.sha256(f"{self.kind}:{self.n_folds}:{blob}".encode()).hexdigest()[:16]


def make_splits(file_ids, n_folds: int, seed: int = 0) -> SplitPlan:
    """Seeded shuffle into near-equal folds (sizes differ by at most one)."""
    ids = list(file_ids)
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    if n_folds > len(ids):
        raise ValueError(f"cannot make {n_folds} folds from {len(ids)} files")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    assignments = {ids[int(p)]: i % n_folds for i, p in enumerate(perm)}
    return SplitPlan(assignments, n_folds, kind="kfold")


def train_test_split(file_ids, test_fraction: float = 0.2, seed: int = 0) -> SplitPlan:
    """Single seeded partition; fold 0 is train, fold 1 is test."""
    ids = list(file_ids)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n_test = max(1, round(len(ids) * test_fraction))
    if n_test >= len(ids):
        raise ValueError("too few files for the requested test fraction")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    assignments = {ids[int(p)]: (1 if i < n_test else 0) for i, p in enumerate(perm)}
    return SplitPlan(assignments, 2, kind="holdout")


# ---------------------------------------------------------------------------
# threshold selection


def sequences_from_series(series_list: list[FrameSeries],
                          spec: FeatureSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """(inputs, reference targets) pairs ready for training/evaluation."""
    return [(window_expand(s, spec), s.channel("ref_pass").astype(np.float64))
            for s in series_list]


def sweep_thresholds(pairs: Iterable[tuple[np.ndarray, np.ndarray]], grid_step: float,
                     post_filter: MorphFilterSpec | None = None
                     ) -> tuple[list[float], list[float]]:
    """The grid {step, 2*step, ...} below 1 and the corpus PQ at each of its
    points, for per-file (reference, output probabilities) pairs, at least one.

    Each file is decided at every threshold in one ``(thresholds, frames)``
    comparison, the same ``probs >= threshold`` as ``nets.decide``; its runs
    are filtered and matched in run form, and R and the costs are summed over
    files per threshold.
    """
    if not 0.0 < grid_step < 1.0:
        raise ValueError("grid_step must be in (0, 1)")
    n = int(np.ceil(1.0 / grid_step))
    grid = [i * grid_step for i in range(1, n) if i * grid_step < 1.0]
    thresholds = np.array(grid)[:, None]
    r = np.zeros(len(grid), dtype=np.int64)
    sum_err = np.zeros(len(grid), dtype=np.int64)
    n_files = 0
    for n_files, (ref, probs) in enumerate(pairs, 1):
        probs = np.asarray(probs)
        if probs.shape != np.shape(ref):
            raise ValueError(f"length mismatch: ref {np.shape(ref)} vs probs {probs.shape}")
        det = runs(probs >= thresholds)
        if post_filter is not None:
            det = post_filter.on_runs(*det)
        file_r, file_err = component_totals(runs(ref), det, len(grid))
        r += file_r
        sum_err += file_err
    if not n_files:
        raise ValueError("empty training set: no files to sweep")
    return grid, [pq_from_totals(int(a), int(b)) for a, b in zip(r, sum_err)]


def _pick_threshold(model: nets.ModelParams, pairs: Iterable[tuple[np.ndarray, np.ndarray]],
                    grid_step: float, post_filter: MorphFilterSpec | None) -> tuple[float, float]:
    """The grid point of maximal corpus PQ (ties go to the smallest threshold)
    and that PQ, for (inputs, reference) pairs that are run one at a time."""
    if post_filter is not None and not isinstance(post_filter, MorphFilterSpec):
        raise TypeError("post_filter must be a MorphFilterSpec or None, "
                        f"got {type(post_filter).__name__}")
    grid, curve = sweep_thresholds(((ref, nets.forward(model, x)) for x, ref in pairs),
                                   grid_step, post_filter)
    best = curve.index(max(curve))
    return grid[best], curve[best]


def select_threshold(model: nets.ModelParams,
                     series_list: list[FrameSeries],
                     feature_spec: FeatureSpec,
                     grid_step: float = 0.01,
                     post_filter: MorphFilterSpec | None = None) -> tuple[float, float]:
    """Sweep the threshold grid {step, 2*step, ...} and return the corpus-PQ
    maximizer (ties go to the smallest threshold), with its training PQ.
    ``post_filter`` is a ``MorphFilterSpec`` or None; ``series_list`` may not
    be empty."""
    return _pick_threshold(model, ((window_expand(s, feature_spec), s.channel("ref_pass"))
                                   for s in series_list), grid_step, post_filter)


def fit(model: nets.ModelParams, dataset: list[tuple[np.ndarray, np.ndarray]],
        config: TrainConfig, post_filter: MorphFilterSpec | None = None
        ) -> tuple[nets.ModelParams, list[float], float, float]:
    """``train`` on the (inputs, targets) pairs of ``sequences_from_series``,
    then the threshold sweep on ``config.threshold_grid`` over the same pairs:
    (trained model, per-epoch losses, threshold, its training PQ)."""
    model, losses = train(model, dataset, config)
    return model, losses, *_pick_threshold(model, dataset, config.threshold_grid, post_filter)
