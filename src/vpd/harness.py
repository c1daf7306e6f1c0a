"""Experiment orchestration: model comparison, feature ablation, evaluation.

Every experiment follows one path: split files, train per fold, pick the
output threshold on the training files, then score held-out files with the
passage metric.  Results carry both the mean of per-fold PQ ratios and the
aggregated (sum R, sum Err) so either averaging convention can be inspected.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import nets
from .config import DictConfig
from .event_log import INPUT_CHANNELS, FrameSeries
from .features import FeatureSpec, window_expand
from .morphology import MorphFilterSpec
from .passage_metric import PQReport, score_signals
from .training import (DivergenceError, SplitPlan, TrainConfig, fit, make_splits,
                       sequences_from_series, train_test_split)

MODEL_TAGS = ("basic", "lr", "mlp", "simplernn", "lstm", "gru", "final")


@dataclass(frozen=True)
class ModelSetting(DictConfig):
    """Per-family architecture knobs; ``window`` only matters for lr/mlp."""

    tag: str
    window: int = 0
    hidden: int = 8
    dense_units: int = 8
    dropout_p: float = 0.2
    use_morph: bool = False

    def build(self, in_dim: int, seed: int) -> nets.ModelParams | None:
        if self.tag == "basic":
            return None
        if self.tag == "lr":
            return nets.init_lr(in_dim, seed=seed)
        if self.tag == "mlp":
            return nets.init_mlp(in_dim, hidden=self.hidden, seed=seed)
        if self.tag == "simplernn":
            return nets.init_simplernn(in_dim, hidden=self.hidden, seed=seed)
        if self.tag == "lstm":
            return nets.init_lstm(in_dim, hidden=self.hidden, seed=seed)
        if self.tag == "gru":
            return nets.init_gru(in_dim, hidden=self.hidden, seed=seed)
        if self.tag == "final":
            return nets.init_final(in_dim, lstm_units=self.hidden,
                                   dense_units=self.dense_units,
                                   dropout_p=self.dropout_p, seed=seed)
        raise ValueError(f"unknown model tag {self.tag!r}")


@dataclass(frozen=True)
class HarnessConfig(DictConfig):
    train: TrainConfig = field(default_factory=TrainConfig)
    channels: tuple[str, ...] = INPUT_CHANNELS
    window: int = 8
    n_folds: int | None = None      # k-fold when set, otherwise a holdout split
    test_fraction: float = 0.2
    split_seed: int = 0
    repeats: int = 1                # independent init/dropout seeds per fold
    morph: MorphFilterSpec = field(default_factory=MorphFilterSpec)
    final_hidden: int = 16
    final_dense: int = 8
    final_dropout: float = 0.2

    def __post_init__(self):
        if not isinstance(self.channels, tuple):
            raise TypeError(f"channels must be a list of channel names, got {self.channels!r}")
        if (not self.channels or len(set(self.channels)) != len(self.channels)
                or not set(self.channels) <= set(INPUT_CHANNELS)):
            raise ValueError(f"channels must be distinct names from {INPUT_CHANNELS}, "
                             f"at least one, got {self.channels}")
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")
        if self.n_folds is not None and self.n_folds < 2:
            raise ValueError(f"n_folds must be >= 2 or null, got {self.n_folds}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


def default_zoo(config: HarnessConfig | None = None) -> list[ModelSetting]:
    """One setting per model family, in ``MODEL_TAGS`` order: lr/mlp see
    ``config.window`` past frames, the final model is built from ``final_*``."""
    config = config or HarnessConfig()
    return [
        ModelSetting("basic"),
        ModelSetting("lr", window=config.window),
        ModelSetting("mlp", window=config.window, hidden=12),
        ModelSetting("simplernn", hidden=8),
        ModelSetting("lstm", hidden=8),
        ModelSetting("gru", hidden=8),
        ModelSetting("final", hidden=config.final_hidden, dense_units=config.final_dense,
                     dropout_p=config.final_dropout, use_morph=True),
    ]


@dataclass
class ExperimentResult:
    model_tag: str
    channels: tuple[str, ...]
    window: int
    fold_reports: list[PQReport]
    thresholds: list[float]
    plan_hash: str
    config: dict
    error: str | None = None

    def _pqs(self) -> list[float]:
        # a run cut short by divergence would rank its finished folds alone
        return [r.pq for r in self.fold_reports] if self.error is None else []

    @property
    def mean_pq(self) -> float:
        """Mean of the per-fold PQs; NaN when the run failed (``error`` set).

        This is not R / (R + ΣErr) of the summed `agg_r` / `agg_sum_err`:
        the mean of ratios is not the ratio of sums, so a row of these three
        figures need not satisfy the PQ identity that criterion c1 checks.
        """
        pqs = self._pqs()
        return float(np.mean(pqs)) if pqs else float("nan")

    @property
    def std_pq(self) -> float:
        pqs = self._pqs()
        return float(np.std(pqs)) if pqs else float("nan")

    @property
    def agg_r(self) -> int | None:
        """Summed R over folds; None when the run failed (``error`` set)."""
        return None if self.error else sum(r.r for r in self.fold_reports)

    @property
    def agg_sum_err(self) -> int | None:
        return None if self.error else sum(r.sum_err for r in self.fold_reports)

    def to_dict(self) -> dict:
        return {
            "model": self.model_tag,
            "channels": list(self.channels),
            "window": self.window,
            "mean_pq": None if self.error else self.mean_pq,
            "std_pq": None if self.error else self.std_pq,
            "agg_r": self.agg_r,
            "agg_sum_err": self.agg_sum_err,
            "thresholds": self.thresholds,
            "fold_reports": [r.to_dict() for r in self.fold_reports],
            "plan_hash": self.plan_hash,
            "config": self.config,
            "error": self.error,
        }


def evaluate_model(model: nets.ModelParams, threshold: float,
                   series_list: list[FrameSeries], feature_spec: FeatureSpec,
                   post_filter: MorphFilterSpec | None = None) -> PQReport:
    """Corpus-aggregated PQ of thresholded (optionally filtered) predictions."""
    return _score_inputs(model, threshold, ((s.channel("ref_pass"), window_expand(s, feature_spec))
                                            for s in series_list), post_filter)


def _score_inputs(model: nets.ModelParams, threshold: float, pairs,
                  post_filter: MorphFilterSpec | None) -> PQReport:
    """``evaluate_model`` on (reference, model inputs) pairs, which may be lazy."""
    nets.check_threshold(threshold)  # before any forward pass
    return score_signals((ref, nets.decide(nets.forward(model, x), threshold, post_filter))
                         for ref, x in pairs)


def score_prediction_channel(series_list: list[FrameSeries],
                             channel: str = "basic_clf") -> PQReport:
    """Score an already-binarized channel (e.g. the rule-based classifier)."""
    return score_signals((s.channel("ref_pass"), s.channel(channel)) for s in series_list)


def _make_plan(corpus: dict[str, FrameSeries], config: HarnessConfig) -> SplitPlan:
    ids = sorted(corpus)
    if config.n_folds is not None:
        return make_splits(ids, config.n_folds, seed=config.split_seed)
    return train_test_split(ids, config.test_fraction, seed=config.split_seed)


def _eval_folds(plan: SplitPlan) -> list[int]:
    return [1] if plan.kind == "holdout" else list(range(plan.n_folds))


def _model_seed(master: int, tag: str, fold: int, repeat: int) -> int:
    # deliberately independent of the channel subset so ablation rows share seeds
    key = f"{master}:{tag}:{fold}:{repeat}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big")


def _run_one(corpus, plan, config: HarnessConfig, setting: ModelSetting,
             channels: tuple[str, ...]) -> ExperimentResult:
    feature_spec = FeatureSpec(channels=channels, window=setting.window)
    post_filter = config.morph if setting.use_morph else None
    reports: list[PQReport] = []
    thresholds: list[float] = []
    error = None
    try:
        for fold in _eval_folds(plan):
            train_series = [corpus[f] for f in plan.train_files(fold)]
            test_series = [corpus[f] for f in plan.fold_files(fold)]
            if setting.tag == "basic":
                reports.append(score_prediction_channel(test_series))
                thresholds.append(0.5)
                continue
            dataset = sequences_from_series(train_series, feature_spec)
            test_inputs = [(s.channel("ref_pass"), window_expand(s, feature_spec))
                           for s in test_series]
            for repeat in range(config.repeats):
                seed = _model_seed(config.train.seed, setting.tag, fold, repeat)
                model, _, threshold, _ = fit(setting.build(feature_spec.dim, seed=seed),
                                             dataset, replace(config.train, seed=seed),
                                             post_filter)
                reports.append(_score_inputs(model, threshold, test_inputs, post_filter))
                thresholds.append(threshold)
    except DivergenceError as exc:
        error = str(exc)
    return ExperimentResult(
        model_tag=setting.tag, channels=channels, window=setting.window,
        fold_reports=reports, thresholds=thresholds, plan_hash=plan.plan_hash(),
        config={**config.to_dict(), "model": setting.to_dict()}, error=error)


def run_model_comparison(corpus: dict[str, FrameSeries],
                         config: HarnessConfig | None = None,
                         models: list[ModelSetting] | None = None) -> list[ExperimentResult]:
    """Train and score each model family under one shared split plan."""
    config = config or HarnessConfig()
    models = models if models is not None else default_zoo(config)
    plan = _make_plan(corpus, config)
    return [_run_one(corpus, plan, config, setting, config.channels)
            for setting in models]


def channel_subsets(channels=INPUT_CHANNELS) -> list[tuple[str, ...]]:
    """All non-empty subsets, canonical order: by size, then channel order."""
    subsets = []
    for size in range(1, len(channels) + 1):
        subsets.extend(itertools.combinations(channels, size))
    return subsets


def run_ablation(corpus: dict[str, FrameSeries],
                 config: HarnessConfig | None = None) -> list[ExperimentResult]:
    """Final-model runs over every non-empty input-channel subset; identical
    split plan and seeds across subsets."""
    config = config or HarnessConfig()
    missing = [c for c in INPUT_CHANNELS
               if any(c not in s.channels for s in corpus.values())]
    if missing:
        raise ValueError(f"corpus lacks channels {missing} in some files")
    plan = _make_plan(corpus, config)
    setting = {s.tag: s for s in default_zoo(config)}["final"]
    return [_run_one(corpus, plan, config, setting, subset)
            for subset in channel_subsets()]


def format_results_table(results: list[ExperimentResult]) -> str:
    """Aligned-column text table with both averaging conventions.

    `PQ(mean)` is the mean of per-fold PQs, not R / (R + ΣErr) of the summed
    `R` / `SumErr` columns, so a printed row need not satisfy the c1 identity.
    """
    header = ("Model", "Features", "R", "SumErr", "PQ(mean)", "PQ(std)")
    rows = [header]
    for res in results:
        rows.append((
            res.model_tag,
            "(" + ",".join(res.channels) + ")" + (f" w={res.window}" if res.window else ""),
            "-" if res.error else str(res.agg_r),
            "-" if res.error else str(res.agg_sum_err),
            "-" if np.isnan(res.mean_pq) else f"{res.mean_pq:.3f}",
            "-" if np.isnan(res.std_pq) else f"{res.std_pq:.3f}",
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def results_to_json(results: list[ExperimentResult]) -> str:
    return json.dumps([r.to_dict() for r in results], indent=2)
