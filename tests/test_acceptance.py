"""Acceptance suite: one test (or parametrized row) per release criterion.

Each criterion is listed in the terminal summary with a PASS/FAIL verdict
(see conftest.pytest_terminal_summary).  The regression rows in criterion 1
check the PQ formula against previously reported (R, sum Err, PQ) corpus
totals.  All three figures are rounded, so a row passes when the PQ interval
that its printed totals allow meets the rounding interval of its printed PQ:
|PQ(R, sum Err) - PQ_printed| may reach half a unit of PQ's last digit plus
half a unit of the totals' last digit divided by (R + sum Err), each
half-unit read from the printed digits of that row.  The `loop+cor` row fails
this check: its totals allow at most 1713.45 / 1884.0 = 0.909475, below the
0.9095 that a printed 0.910 needs.  Which of its figures is off is open until
the source table is in the repository: one may be a typo, or the PQ may be a
mean of per-run PQs while R and sum Err are per-run means.
"""
import itertools

import numpy as np
import pytest

from conftest import random_event_log, random_intervals
from test_nets import ALL_BUILDERS, fd_gradient, perturbed
from test_passage_metric import as_index_components, brute_force_components
from vpd import nets, synth
from vpd.event_log import densify, parse_log, sparsify, write_log
from vpd.features import FeatureSpec
from vpd.harness import (HarnessConfig, channel_subsets, evaluate_model,
                         run_ablation, run_model_comparison)
from vpd.morphology import MorphFilterSpec, closing, opening
from vpd.passage_metric import (Interval, extract_intervals, match_passages,
                                pq_from_totals, summarize_components)
from vpd.training import (LossSpec, TrainConfig, select_threshold,
                          sequences_from_series, train, train_test_split)

# ---------------------------------------------------------------------------
# criterion 1: PQ formula against previously reported (R, sum Err, PQ) rows

# Figures kept as the strings they were printed as: their precision is part of
# the data (the float 0.91 has lost the last digit of "0.910").
REPORTED_ROWS = [
    ("basic-classifier", "1684.3", "158.7", "0.914"),
    ("lstm", "1751.8", "145.3", "0.923"),
    ("simplernn-tuned", "1723.0", "161.1", "0.915"),
    ("gru", "1699.0", "175.0", "0.907"),
    ("cor", "1714.1", "153.9", "0.918"),
    ("loop", "1621.6", "255.9", "0.864"),
    ("shield", "1679.5", "200.8", "0.893"),
    ("loop+cor", "1713.4", "170.6", "0.910"),
    ("shield+loop", "1738.7", "130.8", "0.930"),
    ("shield+loop+cor", "1767.6", "93.2", "0.950"),
]


def half_unit(printed: str) -> float:
    """Half a unit in the last printed digit: "161.1" -> 0.05, "0.910" -> 5e-4."""
    return 0.5 * 10.0 ** -len(printed.partition(".")[2])


@pytest.mark.parametrize("label,r,sum_err,reported",
                         REPORTED_ROWS, ids=[row[0] for row in REPORTED_ROWS])
def test_c1_pq_formula_consistency(label, r, sum_err, reported):
    r_val, err_val, pq_val = float(r), float(sum_err), float(reported)
    u_r, u_err, u_pq = half_unit(r), half_unit(sum_err), half_unit(reported)
    pq = pq_from_totals(r_val, err_val)
    # PQ rises with R and falls with sum Err, so the box of unrounded totals
    # maps onto the interval between these two corners.
    lo = pq_from_totals(r_val - u_r, err_val + u_err)
    hi = pq_from_totals(r_val + u_r, err_val - u_err)
    assert lo <= pq_val + u_pq and hi >= pq_val - u_pq, (
        f"{label}: printed R={r}, SumErr={sum_err}, PQ={reported}; "
        f"pq_from_totals(R, SumErr) = {pq:.6f}; the printed totals allow PQ in "
        f"[{lo:.6f}, {hi:.6f}], the printed PQ stands for "
        f"[{pq_val - u_pq:.6f}, {pq_val + u_pq:.6f}]: no rounding of the "
        f"printed totals gives the printed PQ, so the row's figures disagree "
        f"with each other")


# ---------------------------------------------------------------------------
# criterion 2: analytic BPTT gradients vs central finite differences

GRAD_BUILDERS = {
    "lr": lambda seed: nets.init_lr(3, seed=seed),
    "mlp": lambda seed: nets.init_mlp(3, hidden=12, seed=seed),
    "simplernn": lambda seed: nets.init_simplernn(3, hidden=6, seed=seed),
    "lstm": lambda seed: nets.init_lstm(3, hidden=6, seed=seed),
    "gru": lambda seed: nets.init_gru(3, hidden=6, seed=seed),
    "final": lambda seed: nets.init_final(3, lstm_units=8, dense_units=4,
                                          dropout_p=0.0, seed=seed),
}


@pytest.mark.parametrize("name", sorted(GRAD_BUILDERS))
def test_c2_gradient_correctness(name):
    T = 20
    for draw in range(20):
        rng = np.random.default_rng([draw, sum(map(ord, name))])
        model = perturbed(GRAD_BUILDERS[name](seed=draw), rng)
        x = rng.normal(0.0, 1.0, (T, 3))
        targets = rng.integers(0, 2, T).astype(float)
        spec = LossSpec(positive_weight=2.0, negative_weight=1.0,
                        derivative_lambda=0.1)
        _, analytic = nets.backward(model, x, targets, spec)
        fd = fd_gradient(model, x, targets, spec, eps=1e-5)
        rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-4, (name, draw, rel.max())


# ---------------------------------------------------------------------------
# criterion 3: matcher vs brute-force transitive-closure oracle

def check_against_oracle(ref, det):
    assert as_index_components(ref, det, match_passages(ref, det)) == \
        brute_force_components(ref, det)


def test_c3_matcher_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        check_against_oracle(random_intervals(rng), random_intervals(rng))

    # planted configurations, one per error kind
    planted = {
        "correct": ([Interval(10, 20)], [Interval(12, 18)]),
        "missed": ([Interval(10, 20)], []),
        "false": ([], [Interval(10, 20)]),
        "merged": ([Interval(0, 5), Interval(8, 12), Interval(20, 30)],
                   [Interval(3, 25)]),
        "split": ([Interval(0, 30)],
                  [Interval(1, 5), Interval(8, 12), Interval(20, 29)]),
        "multiple": ([Interval(0, 10), Interval(14, 30)],
                     [Interval(5, 16), Interval(18, 22), Interval(25, 33)]),
    }
    for kind, (ref, det) in planted.items():
        check_against_oracle(ref, det)
        comps = match_passages(ref, det)
        assert any(c.kind == kind for c in comps), kind
    # planted costs match the error table
    assert match_passages(*planted["merged"])[0].cost == 3
    assert match_passages(*planted["split"])[0].cost == 3
    assert match_passages(*planted["multiple"])[0].cost == 3


# ---------------------------------------------------------------------------
# criterion 4: morphology laws, exhaustive over short strings

def _runs_of_ones(s):
    runs = []
    start = None
    for i, v in enumerate(s):
        if v and start is None:
            start = i
        elif not v and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(s) - 1))
    return runs


def test_c4_morphology_laws_exhaustive():
    for n in range(1, 13):
        for bits in itertools.product((0, 1), repeat=n):
            s = np.array(bits, dtype=np.uint8)
            zero_positions = np.flatnonzero(s == 0)
            for k in (1, 2, 3, 4):
                o = opening(s, k)
                c = closing(s, k)
                # idempotence
                assert np.array_equal(opening(o, k), o)
                assert np.array_equal(closing(c, k), c)
                # anti-extensivity / extensivity
                assert np.all(o <= s) and np.all(s <= c)
                # monotonicity under any one-bit increase
                for pos in zero_positions:
                    t = s.copy()
                    t[pos] = 1
                    assert np.all(o <= opening(t, k))
                    assert np.all(c <= closing(t, k))
                # characterizations: short-run removal and gap fill
                runs = _runs_of_ones(s)
                expect_open = np.zeros_like(s)
                for a, b in runs:
                    if b - a + 1 >= k:
                        expect_open[a:b + 1] = 1
                assert np.array_equal(o, expect_open)
                expect_close = s.copy()
                for (_, b1), (a2, _) in zip(runs, runs[1:]):
                    if a2 - b1 - 1 < k:
                        expect_close[b1 + 1:a2] = 1
                assert np.array_equal(c, expect_close)


# ---------------------------------------------------------------------------
# criterion 5: parse/write and densify/sparsify round trips on 1000 logs

def test_c5_round_trip_integrity():
    rng = np.random.default_rng(99)
    logs = [random_event_log(rng, source_id=f"rand-{i}") for i in range(500)]
    logs += synth.generate_corpus(synth.paper_like_preset(n_files=500, seed=99))
    assert len(logs) == 1000
    for log in logs:
        assert parse_log(write_log(log), source_id=log.source_id).records == log.records
        assert sparsify(densify(log), source_id=log.source_id).records == log.records


# ---------------------------------------------------------------------------
# criterion 6: selected threshold beats every other grid point (full sweep)

def test_c6_threshold_optimality():
    logs = synth.generate_corpus(synth.paper_like_preset(n_files=20, seed=5))
    series = [densify(log) for log in logs]
    spec = FeatureSpec()
    model = nets.init_mlp(spec.dim, seed=1)
    model, _ = train(model, sequences_from_series(series, spec),
                     TrainConfig(epochs=2, seed=1))
    grid_step = 0.02
    for post in (None, MorphFilterSpec()):
        chosen, chosen_pq = select_threshold(model, series, spec, grid_step,
                                             post_filter=post)
        sweep = {}
        for i in range(1, 50):
            t = i * grid_step
            components = []
            for s in series:
                probs = nets.forward(model, np.asarray(
                    [s.channel(c) for c in spec.channels]).T.astype(float))
                pred = (probs >= t).astype(np.uint8)
                if post is not None:
                    pred = post(pred)
                components.extend(match_passages(
                    extract_intervals(s.channel("ref_pass")),
                    extract_intervals(pred)))
            sweep[t] = summarize_components(components).pq
        best = max(sweep.values())
        assert chosen_pq == pytest.approx(best)
        assert sweep[chosen] == pytest.approx(best)
        # tie rule: no smaller grid point achieves the same quality
        for t, pq in sweep.items():
            if t < chosen:
                assert pq < best


# ---------------------------------------------------------------------------
# criterion 7: end-to-end desk-scale run, stacked model vs windowed baseline

def test_c7_end_to_end_desk_scale():
    config = synth.paper_like_preset(n_files=250, seed=42)
    series = {log.source_id: densify(log) for log in synth.generate_corpus(config)}
    plan = train_test_split(sorted(series), test_fraction=0.2, seed=0)
    train_series = [series[i] for i in plan.train_files(1)]
    test_series = [series[i] for i in plan.fold_files(1)]
    assert (len(train_series), len(test_series)) == (200, 50)

    spec = FeatureSpec()
    final = nets.init_final(spec.dim, lstm_units=16, dense_units=8,
                            dropout_p=0.2, seed=0)
    cfg = TrainConfig(epochs=12, seed=0,
                      loss=LossSpec(positive_weight=2.0, negative_weight=1.0,
                                    derivative_lambda=0.05))
    final, _ = train(final, sequences_from_series(train_series, spec), cfg)
    morph = MorphFilterSpec()
    threshold, _ = select_threshold(final, train_series, spec, 0.01,
                                    post_filter=morph)
    final_pq = evaluate_model(final, threshold, test_series, spec,
                              post_filter=morph).pq

    lr_spec = FeatureSpec(window=8)
    lr = nets.init_lr(lr_spec.dim, seed=0)
    lr, _ = train(lr, sequences_from_series(train_series, lr_spec),
                  TrainConfig(epochs=12, seed=0))
    lr_threshold, _ = select_threshold(lr, train_series, lr_spec, 0.01)
    lr_pq = evaluate_model(lr, lr_threshold, test_series, lr_spec).pq

    assert final_pq >= 0.90, final_pq
    assert final_pq > lr_pq, (final_pq, lr_pq)


# ---------------------------------------------------------------------------
# criterion 8: every model family reaches PQ 1.0 on a noiseless corpus

def test_c8_noiseless_sanity():
    config = synth.noiseless_preset(n_files=30, seed=7)
    series = {log.source_id: densify(log) for log in synth.generate_corpus(config)}
    hc = HarnessConfig(train=TrainConfig(epochs=8, seed=0),
                       test_fraction=0.2, window=4)
    results = run_model_comparison(series, hc)
    assert len(results) == 7
    for res in results:
        assert res.error is None
        assert res.mean_pq == 1.0, (res.model_tag, res.mean_pq)


# ---------------------------------------------------------------------------
# criterion 9: ablation structure and planted-noise-channel exclusion

def test_c9_ablation_structure_and_noise_exclusion():
    base = synth.paper_like_preset(n_files=40, seed=11).to_dict()
    base["noise"]["cor"] = synth.pure_noise_channel().to_dict()
    config = synth.SynthConfig.from_dict(base)
    series = {log.source_id: densify(log) for log in synth.generate_corpus(config)}
    hc = HarnessConfig(
        train=TrainConfig(epochs=6, seed=0,
                          loss=LossSpec(positive_weight=2.0,
                                        derivative_lambda=0.05)),
        test_fraction=0.25, repeats=3, final_hidden=8, final_dense=4)
    results = run_ablation(series, hc)

    assert [r.channels for r in results] == channel_subsets()
    assert len({r.plan_hash for r in results}) == 1
    for res in results:
        assert res.error is None
        assert len(res.fold_reports) == hc.repeats

    best = max(results, key=lambda r: r.mean_pq)
    assert "cor" not in best.channels, (best.channels, best.mean_pq)
