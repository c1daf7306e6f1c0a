from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vpd import nets
from vpd.event_log import FrameSeries, densify
from vpd.features import FeatureSpec
from vpd.morphology import MorphFilterSpec
from vpd.passage_metric import score_signals
from vpd.synth import generate_corpus, paper_like_preset
from vpd.training import (DivergenceError, LossSpec, TrainConfig, fit, make_splits,
                          select_threshold, sequences_from_series, sweep_thresholds,
                          train, train_test_split)


def make_series(ref, **channels):
    chans = {k: np.array(v, dtype=np.uint8) for k, v in channels.items()}
    chans["ref_pass"] = np.array(ref, dtype=np.uint8)
    return FrameSeries(0, chans)


def loop_sweep(pairs, grid_step, post_filter=None):
    """The sweep one threshold at a time: decide, filter and score every file
    at each grid point.  The oracle for ``sweep_thresholds``."""
    n = int(np.ceil(1.0 / grid_step))
    grid = [i * grid_step for i in range(1, n) if i * grid_step < 1.0]
    curve = [score_signals((ref, nets.decide(probs, t, post_filter))
                           for ref, probs in pairs).pq for t in grid]
    return grid, curve


def loop_select(pairs, grid_step, post_filter=None):
    """First grid point of maximal PQ, and that PQ, from the loop oracle."""
    best_t, best_pq = None, -1.0
    for t, pq in zip(*loop_sweep(pairs, grid_step, post_filter)):
        if pq > best_pq:
            best_t, best_pq = t, pq
    return best_t, best_pq


def sweep_file(length):
    """(reference, probabilities) of one file: the reference may be all 0 or
    all 1, and some probabilities sit on a grid point so that ties happen."""
    ref = st.one_of(st.just([0] * length), st.just([1] * length),
                    st.lists(st.integers(0, 1), min_size=length, max_size=length))
    prob = st.one_of(st.floats(0.0, 1.0),
                     st.integers(0, 20).map(lambda i: i * 0.05),
                     st.integers(0, 10).map(lambda i: i * 0.1))
    return st.tuples(ref.map(lambda v: np.array(v, dtype=np.uint8)),
                     st.lists(prob, min_size=length, max_size=length).map(np.array))


sweep_corpora = st.lists(st.integers(0, 80).flatmap(sweep_file), min_size=1, max_size=4)
grid_steps = st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.07, 0.3])
post_filters = st.one_of(st.none(), st.builds(MorphFilterSpec, st.integers(1, 5),
                                              st.integers(1, 5),
                                              st.sampled_from(["close-then-open",
                                                               "open-then-close"])))


class PerArrayAdam:
    """Adam over a dict of named arrays, one array at a time: the oracle for
    ``training._Adam``, which steps the whole buffer at once."""

    def __init__(self, config, shapes):
        self.cfg = config
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}
        self.t = 0

    def step(self, arrays, grads):
        cfg = self.cfg
        self.t += 1
        correction1 = 1.0 - cfg.beta1 ** self.t
        correction2 = 1.0 - cfg.beta2 ** self.t
        for name, arr in arrays.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            arr -= cfg.learning_rate * (m / correction1) / (
                np.sqrt(v / correction2) + cfg.eps)


class PerArraySGD:
    def __init__(self, config, shapes):
        self.cfg = config

    def step(self, arrays, grads):
        for name, arr in arrays.items():
            arr -= self.cfg.learning_rate * grads[name]


def per_array_clip(grads, max_norm):
    """Clip a dict of named gradients to global norm ``max_norm``; whether it
    fired."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
        return True
    return False


def per_array_train(model_init, dataset, config):
    """``train`` with the gradient split into named arrays and the optimizer
    and clip run one array at a time: (model, losses, updates clipped)."""
    model = model_init.copy()
    arrays = dict(nets.param_arrays(model))
    shapes = {k: v.shape for k, v in arrays.items()}
    opt = (PerArrayAdam if config.optimizer == "adam" else PerArraySGD)(config, shapes)
    order_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5EED]))
    trace, clipped = [], 0
    for epoch in range(config.epochs):
        order = np.arange(len(dataset))
        if config.shuffle_files:
            order_rng.shuffle(order)
        epoch_losses = []
        for file_idx in order:
            x, targets = dataset[file_idx]
            drop_rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, epoch, int(file_idx)]))
            value, grad = nets.backward(model, x, targets, config.loss, mode="train",
                                        rng=drop_rng)
            grads = {name: g.copy() for name, g in nets.param_arrays(model, grad)}
            if config.clip_norm is not None:
                clipped += per_array_clip(grads, config.clip_norm)
            opt.step(arrays, grads)
            epoch_losses.append(value)
        trace.append(float(np.mean(epoch_losses)))
    return model, trace, clipped


class TestLoss:
    def test_zero_on_perfect_output(self):
        t = np.array([0.0, 1.0, 1.0, 0.0])
        assert nets.loss_value(t, t, LossSpec()) == 0.0

    def test_constant_half_closed_form(self):
        y = np.full(8, 0.5)
        r = np.zeros(8)
        assert nets.loss_value(y, r, LossSpec()) == pytest.approx(0.25)

    def test_transcription_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 50))
            y = rng.random(n)
            r = rng.integers(0, 2, n).astype(float)
            spec = LossSpec(positive_weight=float(rng.uniform(0.1, 5)),
                            negative_weight=float(rng.uniform(0.1, 5)),
                            derivative_lambda=float(rng.uniform(0, 1)))
            w = np.where(r == 1, spec.positive_weight, spec.negative_weight)
            expect = np.sum(w * (y - r) ** 2) / np.sum(w)
            expect += spec.derivative_lambda * np.sum((y[1:] - y[:-1]) ** 2)
            assert nets.loss_value(y, r, spec) == pytest.approx(expect, abs=1e-12)

    def test_unit_weights_zero_lambda_is_mse(self):
        rng = np.random.default_rng(4)
        y = rng.random(20)
        r = rng.integers(0, 2, 20).astype(float)
        assert nets.loss_value(y, r, LossSpec()) == pytest.approx(float(np.mean((y - r) ** 2)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nets.loss_value(np.zeros(3), np.zeros(4), LossSpec())

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            LossSpec(positive_weight=0.0)
        with pytest.raises(ValueError):
            LossSpec(derivative_lambda=-1.0)


class TestTrain:
    def small_dataset(self, rng, n_files=4):
        out = []
        for _ in range(n_files):
            n = int(rng.integers(30, 60))
            ref = np.zeros(n)
            ref[10:20] = 1
            x = np.stack([ref, ref, ref], axis=1) + rng.normal(0, 0.05, (n, 3))
            out.append((x, ref))
        return out

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(0)
        dataset = self.small_dataset(rng)
        model = nets.init_lstm(3, hidden=4, seed=1)
        before = model.flat.copy()
        trained, _ = train(model, dataset, TrainConfig(epochs=3, learning_rate=0.0))
        assert np.array_equal(trained.flat, before)
        # and the input model itself is never mutated
        assert np.array_equal(model.flat, before)

    def test_sgd_single_file_loss_non_increasing(self):
        rng = np.random.default_rng(1)
        n = 40
        x = rng.random((n, 3))
        targets = np.zeros(n)
        model = nets.init_lr(3, seed=2)
        _, trace = train(model, [(x, targets)],
                         TrainConfig(epochs=30, optimizer="sgd", learning_rate=0.1,
                                     shuffle_files=False))
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-9)

    def test_loss_halves_on_learnable_corpus(self):
        rng = np.random.default_rng(2)
        dataset = self.small_dataset(rng, n_files=6)
        model = nets.init_lstm(3, hidden=6, seed=3)
        _, trace = train(model, dataset, TrainConfig(epochs=40, seed=0))
        assert trace[-1] <= 0.5 * trace[0]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        dataset = self.small_dataset(rng)
        cfg = TrainConfig(epochs=4, seed=9)
        model = nets.init_final(3, lstm_units=4, dense_units=3, seed=5)
        a, trace_a = train(model, dataset, cfg)
        b, trace_b = train(model, dataset, cfg)
        assert np.array_equal(a.flat, b.flat)
        assert trace_a == trace_b

    @pytest.mark.parametrize("optimizer,rate", [("adam", 1e-2), ("sgd", 0.3)])
    def test_whole_buffer_steps_match_per_array_steps(self, optimizer, rate):
        # the clip fires on most updates, so its norm and scale are pinned too
        rng = np.random.default_rng(11)
        dataset = self.small_dataset(rng, n_files=5)
        cfg = TrainConfig(epochs=3, seed=4, optimizer=optimizer, learning_rate=rate,
                          clip_norm=0.05, loss=LossSpec(positive_weight=2.0,
                                                        derivative_lambda=0.05))
        model = nets.init_final(3, lstm_units=4, dense_units=3, dropout_p=0.3, seed=2)
        trained, losses = train(model, dataset, cfg)
        expect, expect_losses, clipped = per_array_train(model, dataset, cfg)
        assert clipped >= 10
        assert losses == expect_losses
        assert np.array_equal(trained.flat, expect.flat)
        assert not np.array_equal(trained.flat, model.flat)

    def test_divergence_raises_with_epoch(self):
        x = np.ones((10, 3))
        model = nets.init_mlp(3, seed=0)
        model.flat[:] = np.nan
        with pytest.raises(DivergenceError) as exc:
            train(model, [(x, np.zeros(10))], TrainConfig(epochs=2))
        assert exc.value.epoch == 0

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            train(nets.init_lr(3), [], TrainConfig())

    def test_empty_sequence(self):
        with pytest.raises(ValueError, match="empty sequence"):
            train(nets.init_lstm(3, seed=0), [(np.zeros((0, 3)), np.zeros(0))],
                  TrainConfig(epochs=1))


class TestSplits:
    def test_even_folds(self):
        plan = make_splits([f"f{i}" for i in range(10)], 5, seed=0)
        sizes = [len(plan.fold_files(k)) for k in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_same_seed_same_plan(self):
        ids = [f"f{i}" for i in range(17)]
        assert make_splits(ids, 4, seed=3) == make_splits(ids, 4, seed=3)
        assert make_splits(ids, 4, seed=3) != make_splits(ids, 4, seed=4)

    def test_partition_properties(self):
        ids = [f"f{i}" for i in range(23)]
        plan = make_splits(ids, 4, seed=1)
        folds = [plan.fold_files(k) for k in range(4)]
        assert sorted(sum(folds, [])) == sorted(ids)

    def test_balanced_over_many_seeds(self):
        ids = [f"f{i}" for i in range(13)]
        for seed in range(100):
            plan = make_splits(ids, 3, seed=seed)
            sizes = sorted(len(plan.fold_files(k)) for k in range(3))
            assert max(sizes) - min(sizes) <= 1

    def test_too_few_files(self):
        with pytest.raises(ValueError):
            make_splits(["a", "b"], 3)

    def test_holdout(self):
        plan = train_test_split([f"f{i}" for i in range(10)], 0.3, seed=0)
        assert plan.kind == "holdout"
        assert len(plan.fold_files(1)) == 3
        assert len(plan.fold_files(0)) == 7

    def test_plan_hash_stable(self):
        ids = [f"f{i}" for i in range(8)]
        assert make_splits(ids, 2, seed=5).plan_hash() == \
            make_splits(ids, 2, seed=5).plan_hash()


class TestSelectThreshold:
    def constant_half_model(self):
        # all-zero parameters give a constant sigmoid(0) = 0.5 output
        model = nets.init_lr(3, seed=0)
        model.flat[:] = 0.0
        return model

    def test_constant_output_all_zero_ref(self):
        model = self.constant_half_model()
        series = [make_series(np.zeros(30), shield=np.zeros(30),
                              loop=np.zeros(30), cor=np.zeros(30))]
        threshold, pq = select_threshold(model, series, FeatureSpec(), 0.01)
        assert pq == 1.0
        # every t > 0.5 scores PQ 1.0; the tie rule picks the smallest one
        assert threshold == pytest.approx(0.51)

    def test_maximizer_beats_full_sweep(self):
        rng = np.random.default_rng(6)
        series = []
        for _ in range(5):
            n = 80
            ref = np.zeros(n)
            ref[20:50] = 1
            noisy = lambda: np.clip(ref + rng.normal(0, 0.3, n), 0, 1).round()
            series.append(make_series(ref, shield=noisy(), loop=noisy(), cor=noisy()))
        model = nets.init_mlp(3, seed=1)
        spec = FeatureSpec()
        threshold, best_pq = select_threshold(model, series, spec, 0.05)
        from vpd.harness import evaluate_model
        for i in range(1, 20):
            t = i * 0.05
            rep = evaluate_model(model, t, series, spec)
            assert best_pq >= rep.pq
            if t == pytest.approx(threshold):
                assert rep.pq == pytest.approx(best_pq)

    def test_morph_filter_applied(self):
        # flickering probabilities around a single passage: filtering the
        # binarized output must not hurt the chosen optimum
        rng = np.random.default_rng(8)
        n = 100
        ref = np.zeros(n)
        ref[30:70] = 1
        series = [make_series(ref, shield=ref, loop=ref, cor=ref)]
        model = nets.init_lr(3, seed=0)
        t_plain, pq_plain = select_threshold(model, series, FeatureSpec(), 0.1)
        t_morph, pq_morph = select_threshold(model, series, FeatureSpec(), 0.1,
                                             post_filter=MorphFilterSpec())
        assert 0.0 < t_plain < 1.0 and 0.0 < t_morph < 1.0

    def test_bad_grid(self):
        series = [make_series(np.ones(4), shield=np.ones(4), loop=np.ones(4), cor=np.ones(4))]
        with pytest.raises(ValueError, match="grid_step"):
            select_threshold(nets.init_lr(3), series, FeatureSpec(), 1.5)

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty training set"):
            select_threshold(nets.init_lr(3), [], FeatureSpec(), 0.1)

    @pytest.mark.parametrize("post_filter", [(3, 3), lambda pred: pred, "close-then-open"])
    def test_post_filter_must_be_spec_or_none(self, post_filter):
        with pytest.raises(TypeError, match="MorphFilterSpec"):
            select_threshold(nets.init_lr(3), [], FeatureSpec(), 0.1,
                             post_filter=post_filter)

    @settings(deadline=None, max_examples=150)
    @given(sweep_corpora, grid_steps, post_filters)
    def test_equals_loop_oracle(self, pairs, grid_step, post_filter):
        assert sweep_thresholds(pairs, grid_step, post_filter) == \
            loop_sweep(pairs, grid_step, post_filter)
        # select_threshold over the files a FrameSeries can hold (one frame or more)
        files = [(ref, probs) for ref, probs in pairs if ref.size]
        series = [make_series(ref, shield=ref, loop=ref, cor=ref) for ref, _ in files]
        if not series:
            with pytest.raises(ValueError, match="empty training set"):
                select_threshold(nets.init_lr(3), series, FeatureSpec(), grid_step)
            return
        with mock.patch.object(nets, "forward", side_effect=[probs for _, probs in files]):
            chosen = select_threshold(nets.init_lr(3), series, FeatureSpec(), grid_step,
                                      post_filter=post_filter)
        assert chosen == loop_select(files, grid_step, post_filter)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            sweep_thresholds([(np.zeros(3), np.zeros(4))], 0.1)


class TestFit:
    """``fit`` is ``train`` on the pairs of ``sequences_from_series``, then
    ``select_threshold`` on the files they came from."""

    @pytest.fixture(scope="class")
    def series(self):
        return [densify(log) for log in generate_corpus(paper_like_preset(n_files=5, seed=3))]

    @pytest.mark.parametrize("model, spec, post_filter", [
        (nets.init_final(3, seed=2), FeatureSpec(), MorphFilterSpec()),
        (nets.init_lr(FeatureSpec(window=8).dim, seed=2), FeatureSpec(window=8), None),
    ], ids=["final-morph", "lr-window8"])
    def test_equals_train_then_select_threshold(self, series, model, spec, post_filter):
        config = TrainConfig(epochs=2, seed=5)
        trained, losses = train(model, sequences_from_series(series, spec), config)
        threshold, pq = select_threshold(trained, series, spec, config.threshold_grid,
                                         post_filter=post_filter)
        fitted, fit_losses, fit_threshold, fit_pq = fit(
            model, sequences_from_series(series, spec), config, post_filter)
        assert np.array_equal(fitted.flat, trained.flat)
        assert fit_losses == losses
        assert (repr(fit_threshold), repr(fit_pq)) == (repr(threshold), repr(pq))


class TestConfigSerialization:
    def test_train_config_round_trip(self):
        cfg = TrainConfig(epochs=7, learning_rate=0.5, optimizer="sgd",
                          loss=LossSpec(2.0, 1.0, 0.1), clip_norm=None)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg
