"""Seeded synthetic checkpoint-log corpus with controllable sensor noise.

Ground truth is a train of passage intervals per file; each sensor channel is
the reference corrupted by a per-channel noise model chosen to exercise every
error kind the quality metric distinguishes: edge jitter (offsets), dropouts
(misses), mid-passage flicker (splits), false activations (false passages),
and gap bridging (merges).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DictConfig
from .event_log import INPUT_CHANNELS, EventLog, FrameSeries, densify, sparsify
from .passage_metric import Interval, runs


@dataclass(frozen=True)
class ChannelNoise(DictConfig):
    edge_jitter: int = 0              # max lead/lag of each passage edge, frames
    dropout_prob: float = 0.0         # probability the sensor misses a passage
    flicker_prob: float = 0.0         # probability of an off-blip inside a passage
    blip_len: tuple[int, int] = (1, 3)
    false_activation_rate: float = 0.0  # expected false blips per 1000 idle frames
    merge_prob: float = 0.0           # probability of bridging a short gap

    def __post_init__(self):
        for name in ("dropout_prob", "flicker_prob", "merge_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.edge_jitter < 0 or self.false_activation_rate < 0:
            raise ValueError("edge_jitter and false_activation_rate must be >= 0")
        _check_range(self.blip_len, "blip_len")


def _check_range(rng_pair, name, minimum=1):
    lo, hi = rng_pair
    if lo > hi or lo < minimum:
        raise ValueError(f"{name} must be a non-empty range with min >= {minimum}, "
                         f"got ({lo}, {hi})")


@dataclass(frozen=True)
class SynthConfig(DictConfig):
    n_files: int = 100
    passages_per_file: tuple[int, int] = (2, 4)
    passage_len: tuple[int, int] = (20, 60)
    gap_len: tuple[int, int] = (15, 50)
    noise: dict = field(default_factory=dict)  # channel name -> ChannelNoise
    seed: int = 0

    def __post_init__(self):
        if self.n_files < 1:
            raise ValueError("n_files must be >= 1")
        _check_range(self.passages_per_file, "passages_per_file")
        _check_range(self.passage_len, "passage_len")
        _check_range(self.gap_len, "gap_len")
        noise = dict(self.noise)
        for name in INPUT_CHANNELS:
            noise.setdefault(name, ChannelNoise())
            if not isinstance(noise[name], ChannelNoise):
                noise[name] = ChannelNoise.from_dict(noise[name])
        unknown = set(noise) - set(INPUT_CHANNELS)
        if unknown:
            raise ValueError(f"noise for unknown channels: {sorted(unknown)}")
        object.__setattr__(self, "noise", noise)


def noiseless_preset(n_files: int = 30, seed: int = 0) -> SynthConfig:
    """Every sensor channel equals the reference exactly."""
    return SynthConfig(n_files=n_files, seed=seed)


def paper_like_preset(n_files: int = 250, seed: int = 0) -> SynthConfig:
    """Moderate noise echoing the sensors' failure modes: the correlational
    channel flickers, the loop bridges short gaps, the shield drops passages."""
    return SynthConfig(
        n_files=n_files,
        seed=seed,
        noise={
            "shield": ChannelNoise(edge_jitter=3, dropout_prob=0.08,
                                   flicker_prob=0.05, blip_len=(1, 3),
                                   false_activation_rate=0.5),
            "loop": ChannelNoise(edge_jitter=3, dropout_prob=0.02,
                                 flicker_prob=0.03, blip_len=(1, 3),
                                 false_activation_rate=0.3, merge_prob=0.35),
            "cor": ChannelNoise(edge_jitter=2, dropout_prob=0.02,
                                flicker_prob=0.30, blip_len=(1, 4),
                                false_activation_rate=1.5),
        },
    )


def pure_noise_channel() -> ChannelNoise:
    """A channel carrying no passage information at all."""
    return ChannelNoise(dropout_prob=1.0, false_activation_rate=60.0, blip_len=(2, 8))


def _rand_len(rng, lo_hi) -> int:
    lo, hi = lo_hi
    return int(rng.integers(lo, hi + 1))


def _corrupt_channel(rng: np.random.Generator, ref: np.ndarray,
                     truth: list[Interval], noise: ChannelNoise) -> np.ndarray:
    n = ref.size
    out = np.zeros(n, dtype=np.uint8)
    kept: list[tuple[int, int]] = []
    for iv in truth:
        if rng.random() < noise.dropout_prob:
            continue
        a, b = iv.start, iv.end
        if noise.edge_jitter:
            a += int(rng.integers(-noise.edge_jitter, noise.edge_jitter + 1))
            b += int(rng.integers(-noise.edge_jitter, noise.edge_jitter + 1))
        a = max(0, min(a, n - 1))
        b = max(a, min(b, n - 1))
        out[a:b + 1] = 1
        kept.append((a, b))
    # mid-passage off-blips
    for a, b in kept:
        if b - a + 1 >= 3 and rng.random() < noise.flicker_prob:
            blip = min(_rand_len(rng, noise.blip_len), b - a - 1)
            start = int(rng.integers(a + 1, b - blip + 1))
            out[start:start + blip] = 0
    # bridge short gaps between consecutive kept passages
    if noise.merge_prob:
        for (_, b1), (a2, _) in zip(kept, kept[1:]):
            gap = a2 - b1 - 1
            if 0 < gap <= noise.blip_len[1] * 2 and rng.random() < noise.merge_prob:
                out[b1 + 1:a2] = 1
    # false activations on idle frames
    if noise.false_activation_rate:
        idle = np.flatnonzero(ref == 0)
        if idle.size:
            n_blips = rng.poisson(noise.false_activation_rate * idle.size / 1000.0)
            for _ in range(n_blips):
                pos = int(rng.choice(idle))
                blip = _rand_len(rng, noise.blip_len)
                out[pos:pos + blip] = 1
    return out


def _generate_file(config: SynthConfig, file_idx: int) -> tuple[FrameSeries, list[Interval]]:
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, file_idx]))
    n_pass = _rand_len(rng, config.passages_per_file)
    truth: list[Interval] = []
    pos = _rand_len(rng, config.gap_len)
    for _ in range(n_pass):
        length = _rand_len(rng, config.passage_len)
        truth.append(Interval(pos, pos + length - 1))
        pos += length + _rand_len(rng, config.gap_len)
    n = pos  # trailing gap after the last passage
    ref = np.zeros(n, dtype=np.uint8)
    for iv in truth:
        ref[iv.start:iv.end + 1] = 1
    channels = {"ref_pass": ref}
    for name in INPUT_CHANNELS:
        channels[name] = _corrupt_channel(rng, ref, truth, config.noise[name])
    # synthetic stand-in for the rule-based classifier output: sensor majority
    votes = channels["shield"].astype(int) + channels["loop"] + channels["cor"]
    channels["basic_clf"] = (votes >= 2).astype(np.uint8)
    return FrameSeries(0, channels), truth


def generate_dataset(config: SynthConfig) -> tuple[list[EventLog], list[list[Interval]]]:
    """Event logs plus the true (pre-noise) passage intervals per file.

    Logs are produced by sparsifying the dense channels at input-channel change
    points, so the recorded reference is the ground truth snapped to sensor
    events; the exact intervals are returned (and written to the manifest).
    """
    logs, truths = [], []
    for idx in range(config.n_files):
        series, truth = _generate_file(config, idx)
        logs.append(sparsify(series, source_id=f"synth-{config.seed:08d}-{idx:05d}"))
        truths.append(truth)
    return logs, truths


def generate_corpus(config: SynthConfig) -> list[EventLog]:
    return generate_dataset(config)[0]


def corpus_stats(logs: list[EventLog]) -> dict:
    """File, passage, and per-channel run-length summaries."""
    stats = {
        "files": len(logs),
        "frames": 0,
        "ref_passages": 0,
        "channels": {name: {"runs": 0, "run_lengths": {}}
                     for name in ("shield", "loop", "cor", "basic_clf", "ref_pass")},
    }
    for log in logs:
        if not log.records:
            continue
        series = densify(log)
        stats["frames"] += len(series)
        for name, info in stats["channels"].items():
            starts, ends = runs(series.channel(name))
            info["runs"] += len(starts)
            for length in (ends - starts + 1).tolist():
                info["run_lengths"][length] = info["run_lengths"].get(length, 0) + 1
    stats["ref_passages"] = stats["channels"]["ref_pass"]["runs"]
    return stats
