import contextlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from vpd import nets
from vpd.nets import GATES, CellParams, cell_step, forward
from vpd.training import LossSpec


def fd_gradient(model, x, targets, spec, eps=1e-5, mode="eval", rng=None):
    """Central differences of the loss, one parameter of ``model.flat`` at a time."""
    flat = model.flat
    out = np.zeros_like(flat)
    for i in range(flat.size):
        flat[i] += eps
        lp = nets.loss_value(forward(model, x, mode, rng), targets, spec)
        flat[i] -= 2 * eps
        lm = nets.loss_value(forward(model, x, mode, rng), targets, spec)
        flat[i] += eps
        out[i] = (lp - lm) / (2 * eps)
    return out


def stacked_cell(kind, kw):
    """CellParams from per-gate arrays ``w_<g>``, ``u_<g>``, ``b_<g>``."""
    return CellParams(kind, *(np.concatenate([kw[f"{p}_{g}"] for g in GATES[kind]])
                              for p in "wub"))


def perturbed(model, rng, scale=0.4):
    model.flat += rng.normal(0.0, scale, model.flat.size)
    return model


def cell_step_forward(model, x):
    """Eval-mode outputs from a ``cell_step`` loop and then the dense stack."""
    state = model.cell.zero_state()
    outs = []
    for t in range(len(x)):
        h, state = cell_step(model.cell, x[t], state)
        outs.append(h)
    dense_in = np.stack(outs)
    for layer in model.dense:
        dense_in = nets._act(layer.activation, dense_in @ layer.weights.T + layer.bias)
    return dense_in[:, 0]


def loop_cell_forward(cell, x, state=None):
    """Per-step cell loop that slices each step's gates out of ``A[t]`` and
    calls ``nets._sigmoid`` on them: the oracle for the tightened
    ``nets._cell_forward``."""
    T = x.shape[0]
    n = cell.hidden
    A = x @ cell.w.T
    A += cell.b
    cache = {"x": x, "A": A}
    if state is None:
        state = cell.zero_state()
    if cell.kind == "simplernn":
        h = state
        for t in range(T):
            a = A[t]
            a += cell.u @ h
            h = np.tanh(a, out=a)
        cache.update(H=A, state=h)
    elif cell.kind == "lstm":
        H, C, TC = (np.zeros((T, n)) for _ in range(3))
        h, c = state
        for t in range(T):
            a = A[t]
            a += cell.u @ h
            nets._sigmoid(a[:3 * n], out=a[:3 * n])
            np.tanh(a[3 * n:], out=a[3 * n:])
            i, f, o, g = a[:n], a[n:2 * n], a[2 * n:3 * n], a[3 * n:]
            c = f * c + i * g
            tc = np.tanh(c)
            h = o * tc
            C[t], TC[t], H[t] = c, tc, h
        cache.update(H=H, C=C, TC=TC, state=(h, c))
    else:
        H = np.zeros((T, n))
        RH = np.zeros((T, n))
        u_zr, u_h = cell.u[:2 * n], cell.u[2 * n:]
        h = state
        for t in range(T):
            a = A[t]
            zr, ht = a[:2 * n], a[2 * n:]
            zr += u_zr @ h
            nets._sigmoid(zr, out=zr)
            rh = zr[n:] * h
            ht += u_h @ rh
            np.tanh(ht, out=ht)
            h = (1.0 - zr[:n]) * h + zr[:n] * ht
            RH[t], H[t] = rh, h
        cache.update(H=H, RH=RH, state=h)
    return cache


def hoisted_cell_backward(cell, cache, dH, grads):
    """Backward pass with the gate factors hoisted before a loop that indexes
    its arrays by t and allocates each step's vectors: the oracle for the
    tightened ``nets._cell_backward``."""
    x, A, H = cache["x"], cache["A"], cache["H"]
    T, n = H.shape
    H_prev = np.vstack([np.zeros((1, n)), H[:-1]])
    dZ = np.zeros_like(A)
    dZg = dZ.reshape(T, -1, n)
    u_T = cell.u.T
    dh_next = np.zeros(n)
    if cell.kind == "simplernn":
        np.subtract(1.0, H * H, out=dZ)
        for t in range(T - 1, -1, -1):
            dz = dZ[t]
            dz *= dH[t] + dh_next
            dh_next = u_T @ dz
    elif cell.kind == "lstm":
        I, F, O, G = (A[:, k * n:(k + 1) * n] for k in range(4))
        C, TC = cache["C"], cache["TC"]
        C_prev = np.vstack([np.zeros((1, n)), C[:-1]])
        dZg[:, 0] = G * I * (1.0 - I)
        dZg[:, 1] = C_prev * F * (1.0 - F)
        dZg[:, 3] = I * (1.0 - G * G)
        Q = TC * O * (1.0 - O)
        K = O * (1.0 - TC * TC)
        dc_next = np.zeros(n)
        for t in range(T - 1, -1, -1):
            dh = dH[t] + dh_next
            dc = dh * K[t]
            dc += dc_next
            dz = dZg[t]
            dz *= dc
            np.multiply(dh, Q[t], out=dz[2])
            dc_next = dc * F[t]
            dh_next = u_T @ dZ[t]
    else:
        Z, R, HT = (A[:, k * n:(k + 1) * n] for k in range(3))
        dZg[:, 0] = Z * (1.0 - Z) * (HT - H_prev)
        dZg[:, 1] = H_prev * R * (1.0 - R)
        dZg[:, 2] = Z * (1.0 - HT * HT)
        one_minus_z = 1.0 - Z
        u_zr_T, u_h_T = u_T[:, :2 * n], u_T[:, 2 * n:]
        for t in range(T - 1, -1, -1):
            dh = dH[t] + dh_next
            dz = dZg[t]
            dz[::2] *= dh
            s = u_h_T @ dz[2]
            dz[1] *= s
            dh_next = dh * one_minus_z[t]
            dh_next += u_zr_T @ dZ[t, :2 * n]
            dh_next += s * R[t]
    grads["cell.w"] += dZ.T @ x
    grads["cell.b"] += dZ.sum(axis=0)
    if cell.kind == "gru":
        grads["cell.u"][:2 * n] += dZ[:, :2 * n].T @ H_prev
        grads["cell.u"][2 * n:] += dZ[:, 2 * n:].T @ cache["RH"]
    else:
        grads["cell.u"] += dZ.T @ H_prev


def loop_cell_backward(cell, cache, dH, grads):
    """Per-step backward through the cell with every gate factor formed inside
    the loop: the oracle for the hoisted ``nets._cell_backward``."""
    x, A, H = cache["x"], cache["A"], cache["H"]
    T, n = H.shape
    H_prev = np.vstack([np.zeros((1, n)), H[:-1]])
    dZ = np.zeros_like(A)  # gradient w.r.t. the gate pre-activations
    dh_next = np.zeros(n)
    if cell.kind == "simplernn":
        for t in range(T - 1, -1, -1):
            dh = dH[t] + dh_next
            dz = dh * (1.0 - H[t] * H[t])
            dh_next = cell.u.T @ dz
            dZ[t] = dz
    elif cell.kind == "lstm":
        I, F, O, G = (A[:, k * n:(k + 1) * n] for k in range(4))
        dZi, dZf, dZo, dZg = (dZ[:, k * n:(k + 1) * n] for k in range(4))
        C, TC = cache["C"], cache["TC"]
        C_prev = np.vstack([np.zeros((1, n)), C[:-1]])
        dc_next = np.zeros(n)
        for t in range(T - 1, -1, -1):
            dh = dH[t] + dh_next
            do = dh * TC[t]
            dZo[t] = do * O[t] * (1.0 - O[t])
            dc = dh * O[t] * (1.0 - TC[t] * TC[t]) + dc_next
            df = dc * C_prev[t]
            dZf[t] = df * F[t] * (1.0 - F[t])
            di = dc * G[t]
            dZi[t] = di * I[t] * (1.0 - I[t])
            dg = dc * I[t]
            dZg[t] = dg * (1.0 - G[t] * G[t])
            dc_next = dc * F[t]
            dh_next = cell.u.T @ dZ[t]
    else:
        Z, R, HT = (A[:, k * n:(k + 1) * n] for k in range(3))
        dZz, dZr, dZh = (dZ[:, k * n:(k + 1) * n] for k in range(3))
        u_zr_T, u_h_T = cell.u[:2 * n].T, cell.u[2 * n:].T
        for t in range(T - 1, -1, -1):
            h_prev = H_prev[t]
            dh = dH[t] + dh_next
            dZz[t] = dh * (HT[t] - h_prev) * Z[t] * (1.0 - Z[t])
            dZh[t] = da_h = dh * Z[t] * (1.0 - HT[t] * HT[t])
            s = u_h_T @ da_h
            dZr[t] = s * h_prev * R[t] * (1.0 - R[t])
            dh_next = dh * (1.0 - Z[t]) + u_zr_T @ dZ[t, :2 * n] + s * R[t]
    grads["cell.w"] += dZ.T @ x
    grads["cell.b"] += dZ.sum(axis=0)
    if cell.kind == "gru":
        grads["cell.u"][:2 * n] += dZ[:, :2 * n].T @ H_prev
        grads["cell.u"][2 * n:] += dZ[:, 2 * n:].T @ cache["RH"]
    else:
        grads["cell.u"] += dZ.T @ H_prev


ALL_BUILDERS = {
    "lr": lambda seed: nets.init_lr(3, seed=seed),
    "mlp": lambda seed: nets.init_mlp(3, hidden=5, seed=seed),
    "simplernn": lambda seed: nets.init_simplernn(3, hidden=4, seed=seed),
    "lstm": lambda seed: nets.init_lstm(3, hidden=4, seed=seed),
    "gru": lambda seed: nets.init_gru(3, hidden=4, seed=seed),
    "final": lambda seed: nets.init_final(3, lstm_units=4, dense_units=3,
                                          dropout_p=0.0, seed=seed),
}


class TestCellStep:
    def test_simplernn_zero_everything(self):
        cell = CellParams("simplernn", np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2))
        h, state = cell_step(cell, np.array([1.0, -2.0, 3.0]), cell.zero_state())
        assert np.array_equal(h, np.zeros(2))

    def test_lstm_saturated_forget_preserves_cell(self):
        h_dim = 2
        kw = {f"{p}_{g}": np.zeros((h_dim, 3) if p == "w" else (h_dim, h_dim))
              for g in "ifoc" for p in ("w", "u")}
        kw |= {f"b_{g}": np.zeros(h_dim) for g in "ifoc"}
        kw["b_f"] = np.full(h_dim, 50.0)
        cell = stacked_cell("lstm", kw)
        c = np.array([0.7, -1.3])
        state = (np.zeros(h_dim), c.copy())
        rng = np.random.default_rng(0)
        for _ in range(20):
            _, state = cell_step(cell, rng.normal(size=3), state)
        assert np.allclose(state[1], c, atol=1e-12)

    def test_lstm_matches_transcription(self):
        rng = np.random.default_rng(8)
        kw = {f"{p}_{g}": rng.normal(size=(2, 3) if p == "w" else (2, 2))
              for g in "ifoc" for p in ("w", "u")}
        kw |= {f"b_{g}": rng.normal(size=2) for g in "ifoc"}
        cell = stacked_cell("lstm", kw)
        x = rng.normal(size=3)
        h0 = rng.normal(size=2)
        c0 = rng.normal(size=2)
        h, (h1, c1) = cell_step(cell, x, (h0, c0))
        i = expit(kw["w_i"] @ x + kw["u_i"] @ h0 + kw["b_i"])
        f = expit(kw["w_f"] @ x + kw["u_f"] @ h0 + kw["b_f"])
        o = expit(kw["w_o"] @ x + kw["u_o"] @ h0 + kw["b_o"])
        g = np.tanh(kw["w_c"] @ x + kw["u_c"] @ h0 + kw["b_c"])
        c_ref = f * c0 + i * g
        assert np.allclose(c1, c_ref)
        assert np.allclose(h1, o * np.tanh(c_ref))

    def test_gru_matches_transcription(self):
        rng = np.random.default_rng(9)
        kw = {f"{p}_{g}": rng.normal(size=(2, 3) if p == "w" else (2, 2))
              for g in "zrh" for p in ("w", "u")}
        kw |= {f"b_{g}": rng.normal(size=2) for g in "zrh"}
        cell = stacked_cell("gru", kw)
        x = rng.normal(size=3)
        h0 = rng.normal(size=2)
        h, _ = cell_step(cell, x, h0)
        z = expit(kw["w_z"] @ x + kw["u_z"] @ h0 + kw["b_z"])
        r = expit(kw["w_r"] @ x + kw["u_r"] @ h0 + kw["b_r"])
        ht = np.tanh(kw["w_h"] @ x + kw["u_h"] @ (r * h0) + kw["b_h"])
        assert np.allclose(h, (1 - z) * h0 + z * ht)

    @pytest.mark.parametrize("kind,w,u,b", [
        ("lstm", (8, 3), (8, 2), (6,)),
        ("gru", (6, 3), (8, 2), (8,)),
        ("gru", (6, 3), (6, 3), (6,)),
        ("simplernn", (2,), (2, 2), (2,)),
        ("peephole", (2, 3), (2, 2), (2,)),
    ])
    def test_inconsistent_cell_rejected(self, kind, w, u, b):
        with pytest.raises(ValueError):
            CellParams(kind, np.zeros(w), np.zeros(u), np.zeros(b))

    def test_dimension_mismatch(self):
        cell = CellParams("simplernn", np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            cell_step(cell, np.zeros(4), cell.zero_state())

    def test_forward_loop_matches_cell_step(self):
        # vectorized per-sequence forward vs the single-step reference
        rng = np.random.default_rng(12)
        for name in ("simplernn", "lstm", "gru"):
            model = perturbed(ALL_BUILDERS[name](3), rng)
            x = rng.random((15, 3))
            assert np.allclose(forward(model, x), cell_step_forward(model, x), atol=1e-12)


class TestForward:
    def test_zero_params_give_half(self):
        model = nets.init_lr(3, seed=0)
        model.flat[:] = 0.0
        y = forward(model, np.ones((5, 3)))
        assert np.allclose(y, 0.5)

    def test_outputs_strictly_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for builder in ALL_BUILDERS.values():
            model = perturbed(builder(0), rng, scale=2.0)
            y = forward(model, rng.random((30, 3)))
            assert np.all(y > 0) and np.all(y < 1)

    def test_no_dropout_train_equals_eval(self):
        model = nets.init_final(3, dropout_p=0.0, seed=4)
        x = np.random.default_rng(2).random((10, 3))
        assert np.array_equal(forward(model, x, mode="train", rng=0),
                              forward(model, x, mode="eval"))

    def test_dropout_changes_train_output_only(self):
        model = nets.init_final(3, dropout_p=0.5, seed=4)
        x = np.random.default_rng(2).random((10, 3))
        eval_out = forward(model, x, mode="eval")
        train_out = forward(model, x, mode="train", rng=123)
        assert not np.array_equal(eval_out, train_out)
        assert np.array_equal(eval_out, forward(model, x, mode="eval"))

    def test_seeded_forward_is_reproducible(self):
        model = nets.init_final(3, dropout_p=0.3, seed=4)
        x = np.random.default_rng(2).random((10, 3))
        a = forward(model, x, mode="train", rng=77)
        b = forward(model, x, mode="train", rng=77)
        assert np.array_equal(a, b)

    def test_train_mode_without_rng_raises(self):
        model = nets.init_final(3, dropout_p=0.3, seed=4)
        with pytest.raises(ValueError):
            forward(model, np.zeros((2, 3)), mode="train")

    def test_bad_input_shape(self):
        model = nets.init_lr(3, seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((4, 2)))


class TestStreamedForward:
    """``forward`` runs ``nets._CHUNK`` frames at a time with the recurrent state
    carried across chunks; ``_pass`` run once on the whole sequence, as
    ``backward`` runs it, is its oracle."""

    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from(sorted(ALL_BUILDERS)), st.integers(0, 70),
           st.sampled_from([1, 2, 3, 7, "T", "T+1"]), st.sampled_from(["eval", "train"]),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_whole_sequence_pass(self, name, T, chunk, mode, seed):
        rng = np.random.default_rng(seed)
        model = perturbed(ALL_BUILDERS[name](seed % 5), rng)
        if mode == "train":
            model.dropout_p = 0.4
        x = rng.random((T, 3))
        chunk = max(1, {"T": T, "T+1": T + 1}.get(chunk, chunk))
        # Generators, not seeds: masks redrawn per chunk would then differ
        with mock.patch.object(nets, "_CHUNK", chunk):
            y = forward(model, x, mode=mode, rng=np.random.default_rng(seed))
        masks = nets._dropout_masks(model, mode, np.random.default_rng(seed))
        expect = nets._pass(model, x, masks)[0]
        if chunk >= T:
            assert np.array_equal(y, expect)
        else:
            assert y.shape == expect.shape
            assert np.max(np.abs(y - expect)) <= 1e-12

    @pytest.mark.parametrize("name", ["simplernn", "lstm", "gru", "final"])
    def test_chunk_of_one_matches_cell_step_loop(self, name, monkeypatch):
        rng = np.random.default_rng(21)
        model = perturbed(ALL_BUILDERS[name](3), rng)
        x = rng.random((25, 3))
        monkeypatch.setattr(nets, "_CHUNK", 1)
        assert np.max(np.abs(forward(model, x) - cell_step_forward(model, x))) <= 1e-12

    def test_eval_memory_is_bounded_by_the_chunk(self):
        h, d = 16, 8
        model = nets.init_final(3, lstm_units=h, dense_units=d, seed=0)
        x = np.random.default_rng(0).random((20_000, 3))
        tracemalloc.start()
        try:
            y = forward(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # float64 caches per frame: gate rows, H, C and tanh(C), each dense layer's
        # Z and output, for at most two chunks at once
        per_frame = 8 * (4 * h + 3 * h + 2 * d + 2 * 1)
        assert peak <= 3 * y.nbytes + 2 * nets._CHUNK * per_frame


def sequential_pass(model, x, masks, state=None):
    """``_pass`` over ``nets._CHUNK``-frame chunks from ``state``, as the
    sequential ``forward`` runs them: (outputs, state after ``x``)."""
    out = np.empty(len(x))
    for start in range(0, len(x), nets._CHUNK):
        out[start:start + nets._CHUNK], cache = nets._pass(
            model, x[start:start + nets._CHUNK], masks, state)[:2]
        state = cache["state"]
    return out, state


def lane_constants(slab, chunk_slabs, lane_slabs, lanes, super_chunks, merge_slabs, passes):
    """Patches of the private lane constants of ``nets``, small enough that a
    few dozen frames run as several lanes and super-chunks."""
    chunk = slab * chunk_slabs
    return [mock.patch.object(nets, name, value) for name, value in (
        ("_SLAB", slab), ("_CHUNK", chunk), ("_LANE_MIN", slab * lane_slabs),
        ("_LANES", lanes), ("_SUPER", chunk * super_chunks),
        ("_MERGE_STEPS", slab * merge_slabs), ("_PASSES", passes))]


def patched(patches, fn, *args, **kwargs):
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        return fn(*args, **kwargs)


def lane_model(kind, hidden, seed, mode, forgetting):
    """A perturbed model; a ``forgetting`` one has a small ``u`` and gates set
    to forget, so that lanes started from different states merge within a
    few steps."""
    rng = np.random.default_rng(seed)
    if kind == "final":
        model = nets.init_final(3, lstm_units=hidden, dense_units=3,
                                dropout_p=0.4 if mode == "train" else 0.0, seed=seed % 7)
    else:
        model = getattr(nets, f"init_{kind}")(3, hidden=hidden, seed=seed % 7)
    model = perturbed(model, rng, scale=rng.choice([0.2, 1.0]))
    if forgetting:
        model.cell.u *= 0.05
        gate = {"lstm": slice(hidden, 2 * hidden), "gru": slice(0, hidden)}.get(model.cell.kind)
        if gate is not None:  # the LSTM's forget gate near 0, the GRU's update gate near 1
            model.cell.b[gate] += -4.0 if model.cell.kind == "lstm" else 4.0
    return model


LANE_DRAWS = (st.sampled_from([4, 8]), st.integers(1, 3), st.integers(1, 3),
              st.integers(2, 5), st.integers(1, 4), st.sampled_from([1, 2, 256]),
              st.integers(1, 3))


class TestShootingForward:
    """Long inputs run as lanes of one batched recurrence, corrected until they
    merge (``nets._shoot``).  The oracle is the same ``forward`` with the lane
    threshold out of reach, which runs every chunk sequentially; the outputs
    must be bit for bit the same."""

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from(["simplernn", "lstm", "gru", "final"]), st.integers(1, 9),
           st.sampled_from(["eval", "train"]), st.booleans(), st.integers(1, 200),
           st.tuples(*LANE_DRAWS), st.integers(0, 2 ** 32 - 1))
    def test_bit_identical_to_sequential(self, kind, hidden, mode, forgetting, T, consts, seed):
        model = lane_model(kind, hidden, seed, mode, forgetting)
        x = np.random.default_rng(seed).normal(size=(T, 3))
        patches = lane_constants(*consts)
        run = lambda: forward(model, x, mode=mode, rng=seed)  # noqa: E731
        y = patched(patches, run)
        expect = patched(patches + [mock.patch.object(nets, "_LANE_MIN", 10 ** 9)], run)
        assert np.array_equal(y, expect)
        if mode == "eval":
            assert np.max(np.abs(y - cell_step_forward(model, x)), initial=0.0) <= 1e-12

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from(["simplernn", "lstm", "gru", "final"]), st.integers(1, 9),
           st.sampled_from(["eval", "train"]), st.booleans(), st.integers(2, 12),
           st.integers(2, 5), st.tuples(*LANE_DRAWS), st.integers(0, 2 ** 32 - 1))
    def test_carried_state(self, kind, hidden, mode, forgetting, slabs, lanes, consts, seed):
        rng = np.random.default_rng(seed)
        model = lane_model(kind, hidden, seed, mode, forgetting)
        masks = nets._dropout_masks(model, mode, seed)
        state = rng.normal(size=(2, hidden) if kind in ("lstm", "final") else hidden)
        state = tuple(state) if kind in ("lstm", "final") else state
        patches = lane_constants(*consts)
        x = rng.normal(size=(slabs * consts[0], 3))
        out = np.full(len(x), np.nan)
        lanes = min(lanes, slabs)
        done, got = patched(patches, nets._shoot, model, x, masks, out, state, lanes)
        assert 0 < done <= len(x) and done % consts[0] == 0
        expect, expect_state = patched(patches, sequential_pass, model, x[:done], masks, state)
        assert np.array_equal(out[:done], expect)
        assert np.array_equal(np.asarray(got), np.asarray(expect_state))

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(sorted(GATES)), st.integers(1, 9), st.integers(1, 6),
           st.sampled_from([4, 8, 12]), st.integers(0, 2 ** 32 - 1))
    def test_lane_slab_steps_like_cell_forward(self, kind, hidden, b, S, seed):
        rng = np.random.default_rng(seed)
        cell = nets._init_cell(rng, kind, 3, hidden)
        for p in (cell.w, cell.u, cell.b):
            p += rng.normal(0.0, 1.0, p.shape)
        x = rng.normal(size=(b, S, 3))
        s = rng.normal(size=(b, 2 if kind == "lstm" else 1, hidden))
        start = s.copy()
        w, u, bias, m = nets._halved(cell)
        A = x.swapaxes(0, 1).reshape(S * b, 3) @ w.T
        A += bias
        H = np.empty((S, b, hidden))
        nets._lane_slab(kind, u, m, A.reshape(S, b, -1), H, s)
        for lane in range(b):
            state = tuple(start[lane]) if kind == "lstm" else start[lane, 0]
            cache = nets._cell_forward(cell, x[lane], state)
            assert np.array_equal(H[:, lane], cache["H"])
            assert np.array_equal(s[lane], np.reshape(cache["state"], s[lane].shape))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 64), st.integers(1, 20), st.integers(1, 17), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_per_lane_matmul_is_dot(self, rows, n, b, leading_rows, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(rows + 3, n))
        u = u[:rows] if leading_rows else u[3:]  # the GRU's row blocks of u
        h = rng.normal(size=(4, b, n))[2]  # one step's row of a slab buffer
        got = np.matmul(u, h[:, :, None], np.empty((b, rows, 1)))[:, :, 0]
        for lane in range(b):
            assert np.array_equal(got[lane], np.dot(u, h[lane]))

    def test_long_input_runs_as_lanes(self):
        model = nets.init_final(3, seed=1)
        x = np.random.default_rng(1).random((3 * nets._CHUNK + 100, 3))
        with mock.patch.object(nets, "_shoot", wraps=nets._shoot) as shoot:
            y = forward(model, x)
        assert shoot.call_count == 1 and shoot.call_args.args[-1] == 6
        with mock.patch.object(nets, "_LANE_MIN", 10 ** 9):
            assert np.array_equal(y, forward(model, x))

    @pytest.mark.parametrize("merge_slabs, passes, falls_back",
                             [(2, 3, True), (256, 1, True), (256, 3, False)])
    def test_non_forgetting_lstm(self, merge_slabs, passes, falls_back):
        # no lane ever merges: a pass aborts after merge_slabs slabs, and each
        # full pass proves one more of the 4 lanes
        model = perturbed(nets.init_lstm(3, hidden=4, seed=0), np.random.default_rng(0))
        model.cell.b[4:8] += 50.0  # the forget gate is 1 in float64
        x = np.random.default_rng(3).normal(size=(300, 3))
        patches = lane_constants(4, 2, 4, 4, 8, merge_slabs, passes)
        calls, real = [], nets._shoot

        def recording(model, x, *args):
            done, state = real(model, x, *args)
            calls.append(bool(done < len(x)))
            return done, state

        with mock.patch.object(nets, "_shoot", recording):
            y = patched(patches, forward, model, x)
        assert calls[-1] is falls_back and not any(calls[:-1])
        expect = patched(patches + [mock.patch.object(nets, "_LANE_MIN", 10 ** 9)],
                         forward, model, x)
        assert np.array_equal(y, expect)

    def test_merge_compares_c_as_well_as_h(self):
        # c climbs by about 1 a frame for 200 frames and then falls: h = tanh(c)
        # is exactly 1 wherever c > 20, so a lane started from a wrong c shows
        # the true h there but departs from it once c falls
        model = nets.init_lstm(1, hidden=1, seed=0)
        model.cell.w[:] = [[0.0], [0.0], [0.0], [10.0]]
        model.cell.u[:] = 0.0
        model.cell.b[:] = [50.0, 50.0, 50.0, 0.0]
        x = np.repeat([1.0, -1.0], 200)[:, None]
        patches = lane_constants(4, 2, 2, 4, 50, 256, 3)
        y = patched(patches, forward, model, x)
        expect = patched(patches + [mock.patch.object(nets, "_LANE_MIN", 10 ** 9)],
                         forward, model, x)
        assert np.array_equal(y, expect)


class TestDecide:
    def test_threshold_then_filter(self):
        probs = np.array([0.9, 0.2, 0.9, 0.5, 0.1])
        assert nets.decide(probs, 0.5).tolist() == [1, 0, 1, 1, 0]
        assert nets.decide(probs, 0.5, post_filter=lambda p: 1 - p).tolist() == [0, 1, 0, 0, 1]

    @staticmethod
    def half_probs():
        # a zero-parameter model outputs exactly 0.5 on every frame
        model = nets.init_lr(3, seed=0)
        model.flat[:] = 0.0
        return forward(model, np.zeros((4, 3)))

    def test_tie_goes_to_one(self):
        assert nets.decide(self.half_probs(), 0.5).tolist() == [1, 1, 1, 1]

    def test_high_threshold_all_zero(self):
        assert nets.decide(self.half_probs(), 0.999).tolist() == [0, 0, 0, 0]

    def test_equals_forward_plus_compare(self):
        rng = np.random.default_rng(5)
        model = perturbed(nets.init_gru(3, hidden=4, seed=1), rng)
        x = rng.random((20, 3))
        expect = (forward(model, x) >= 0.4).astype(np.uint8)
        assert np.array_equal(nets.decide(forward(model, x), 0.4), expect)

    def test_rejects_threshold_on_model_output(self):
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\)"):
            nets.decide(self.half_probs(), 1.5)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -3.0, float("nan")])
    def test_rejects_out_of_range_threshold(self, threshold):
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\)"):
            nets.decide(np.zeros(3), threshold)


class TestBackward:
    def test_hand_derived_length_one(self):
        # zero params, one frame, target 0: y = 0.5, d loss/d bias = 2*0.5*0.25
        model = nets.init_lr(2, seed=0)
        model.flat[:] = np.zeros(3)
        x = np.array([[0.3, -0.7]])
        value, grad = nets.backward(model, x, np.array([0.0]), LossSpec())
        grads = dict(nets.param_arrays(model, grad))
        assert value == pytest.approx(0.25)
        assert grads["dense0.bias"][0] == pytest.approx(0.25)
        assert np.allclose(grads["dense0.weights"], 0.25 * x)

    @pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
    def test_empty_sequence(self, name):
        # named before the loss divides by the zero total weight
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty sequence"):
                nets.backward(ALL_BUILDERS[name](0), np.zeros((0, 3)), np.zeros(0),
                              LossSpec())

    def test_zero_lambda_equals_plain_mse_gradient(self):
        rng = np.random.default_rng(7)
        model = perturbed(nets.init_lstm(3, hidden=4, seed=2), rng)
        x = rng.random((12, 3))
        targets = rng.integers(0, 2, 12).astype(float)
        _, grad1 = nets.backward(model, x, targets, LossSpec(derivative_lambda=0.0))
        y = forward(model, x)
        plain = nets.loss_output_grad(y, targets, LossSpec())
        assert np.allclose(plain, 2.0 * (y - targets) / 12)
        _, grad2 = nets.backward(model, x, targets, LossSpec())
        g1, g2 = (dict(nets.param_arrays(model, g)) for g in (grad1, grad2))
        for k in g1:
            assert np.array_equal(g1[k], g2[k])

    @pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
    def test_finite_difference(self, name):
        rng = np.random.default_rng(sum(map(ord, name)))
        spec = LossSpec(positive_weight=2.5, negative_weight=0.8,
                        derivative_lambda=0.07)
        for trial in range(3):
            model = perturbed(ALL_BUILDERS[name](trial), rng)
            x = rng.random((10, 3))
            targets = rng.integers(0, 2, 10).astype(float)
            _, analytic = nets.backward(model, x, targets, spec)
            numeric = fd_gradient(model, x, targets, spec)
            rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
            assert rel.max() < 1e-4

    def test_dropout_gradient_exact_for_fixed_masks(self):
        # same rng for forward and backward: gradients match finite differences
        # of the masked network
        model = nets.init_final(3, lstm_units=3, dense_units=2,
                                dropout_p=0.4, seed=3)
        rng = np.random.default_rng(4)
        x = rng.random((8, 3))
        targets = rng.integers(0, 2, 8).astype(float)
        spec = LossSpec()
        _, analytic = nets.backward(model, x, targets, spec, mode="train", rng=99)
        numeric = fd_gradient(model, x, targets, spec, mode="train", rng=99)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        assert rel.max() < 1e-4

    def test_targets_length_mismatch(self):
        model = nets.init_lr(3, seed=0)
        with pytest.raises(ValueError):
            nets.backward(model, np.zeros((4, 3)), np.zeros(3), LossSpec())


class TestHoistedBackward:
    """``nets._cell_backward`` forms every factor off the recurrent path before
    its loop; the per-step loop ``loop_cell_backward`` is its oracle."""

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from(sorted(ALL_BUILDERS)),
           st.one_of(st.integers(1, 12), st.just(351)), st.sampled_from(["eval", "train"]),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_per_step_loop(self, name, T, mode, seed):
        rng = np.random.default_rng(seed)
        model = perturbed(ALL_BUILDERS[name](seed % 5), rng, scale=1.0)
        if mode == "train":
            model.dropout_p = 0.4
        x = rng.normal(size=(T, 3))
        targets = rng.integers(0, 2, T).astype(float)
        spec = LossSpec(positive_weight=2.0, negative_weight=0.7, derivative_lambda=0.05)
        value, grad = nets.backward(model, x, targets, spec, mode=mode, rng=seed)
        with mock.patch.object(nets, "_cell_backward", loop_cell_backward):
            expect_value, expect_grad = nets.backward(model, x, targets, spec, mode=mode,
                                                      rng=seed)
        assert value == expect_value
        grads, expect_grads = (dict(nets.param_arrays(model, g)) for g in (grad, expect_grad))
        for key, expect in expect_grads.items():
            assert np.max(np.abs(grads[key] - expect)) <= 1e-12, key

    @pytest.mark.parametrize("kind", sorted(GATES))
    @pytest.mark.parametrize("T", [1, 2, 351])
    def test_cell_gradients_match_per_step_loop(self, kind, T):
        # the cell alone, with a large dH and no dense stack in front of it
        rng = np.random.default_rng(T)
        cell = nets._init_cell(rng, kind, 5, 6)
        cell.u *= 2.0
        cache = nets._cell_forward(cell, rng.normal(size=(T, 5)))
        dH = rng.normal(0.0, 3.0, size=(T, 6))
        grads, expect = ({f"cell.{p}": np.zeros_like(getattr(cell, p)) for p in "wub"}
                         for _ in range(2))
        nets._cell_backward(cell, cache, dH, grads)
        loop_cell_backward(cell, cache, dH, expect)
        for key in expect:
            assert np.max(np.abs(grads[key] - expect[key])) <= 1e-12, key


class TestTightenedLoops:
    """The zipped, buffered step loops of ``nets._cell_forward`` and
    ``nets._cell_backward`` against the per-step forward loop
    ``loop_cell_forward`` and the indexed ``hoisted_cell_backward``, bit for
    bit."""

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(sorted(GATES)),
           st.one_of(st.just(1), st.integers(2, 40), st.just(nets._CHUNK + 1)),
           st.booleans(), st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
    def test_match_oracles_bit_for_bit(self, kind, T, carried, hidden, seed):
        rng = np.random.default_rng(seed)
        cell = nets._init_cell(rng, kind, 3, hidden)
        for p in (cell.w, cell.u, cell.b):
            p += rng.normal(0.0, 1.0, p.shape)
        x = rng.normal(size=(T, 3))
        state = None
        if carried:
            state = rng.normal(size=(2, hidden) if kind == "lstm" else hidden)
            state = tuple(state) if kind == "lstm" else state
        before = np.array(state if carried else 0.0)
        got = nets._cell_forward(cell, x, state)
        expect = loop_cell_forward(cell, x, state)
        assert got.keys() == expect.keys()
        for key in expect:
            assert np.array_equal(np.asarray(got[key]), np.asarray(expect[key])), key
        assert np.array_equal(np.array(state if carried else 0.0), before)  # read, not written
        dH = rng.normal(0.0, 3.0, size=(T, hidden))
        grads, expect_grads = ({f"cell.{p}": np.zeros_like(getattr(cell, p)) for p in "wub"}
                               for _ in range(2))
        nets._cell_backward(cell, got, dH, grads)
        hoisted_cell_backward(cell, expect, dH, expect_grads)
        for key in expect_grads:
            assert np.array_equal(grads[key], expect_grads[key]), key


class TestSigmoid:
    """``nets._sigmoid`` = 1/2 + tanh(z/2)/2 against scipy's ``expit``."""

    GRID = np.linspace(-800.0, 800.0, 16001)

    @settings(deadline=None, max_examples=30)
    @given(st.floats(0.1, 100.0), st.integers(0, 2 ** 32 - 1))
    def test_within_two_ulp_of_expit(self, scale, seed):
        z = np.concatenate([self.GRID, np.random.default_rng(seed).normal(0.0, scale, 4000)])
        assert np.max(np.abs(nets._sigmoid(z) - expit(z))) <= 2.3e-16

    def test_exact_at_zero_and_far_out(self):
        assert nets._sigmoid(np.array([0.0, -800.0, 800.0])).tolist() == [0.5, 0.0, 1.0]

    def test_raises_no_floating_point_error(self):
        with np.errstate(all="raise"):
            nets._sigmoid(np.concatenate([self.GRID, [-1e308, 1e308]]))

    def test_in_place(self):
        z = np.concatenate([self.GRID, np.random.default_rng(0).normal(0.0, 5.0, 1000)])
        expect = nets._sigmoid(z)
        assert nets._sigmoid(z, out=z) is z
        assert np.array_equal(z, expect)

    def test_vpd_runs_without_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = 'import vpd, vpd.cli, sys; print("scipy" in sys.modules)'
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert out.stdout.strip() == "False"


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
    def test_round_trip(self, name):
        model = ALL_BUILDERS[name](5)
        text = nets.save_model(model, extra={"threshold": 0.4})
        loaded, meta = nets.load_model(text)
        assert meta["threshold"] == 0.4
        assert loaded.variant == model.variant
        assert np.array_equal(loaded.flat, model.flat)
        x = np.random.default_rng(0).random((6, 3))
        assert np.array_equal(forward(loaded, x), forward(model, x))

    @pytest.mark.parametrize("key", ["variant", "dropout_p", "seed", "dense", "cell", "params"])
    def test_reserved_extra_key_rejected(self, key):
        with pytest.raises(ValueError, match=key):
            nets.save_model(nets.init_lr(3), extra={key: 1})

    @pytest.mark.parametrize("name,drop", [("lstm", "cell.u"), ("final", "dense1.bias"),
                                           ("lr", "dense0.weights")])
    def test_missing_array_named(self, name, drop):
        doc = json.loads(nets.save_model(ALL_BUILDERS[name](0)))
        del doc["params"][drop]
        with pytest.raises(ValueError, match=drop):
            nets.load_model(json.dumps(doc))

    @pytest.mark.parametrize("edit,problem", [
        (lambda doc: doc.update(params=list(doc["params"].values())), "params must be a mapping"),
        (lambda doc: doc["params"].update({"cell.w": [1.0]}), "params['cell.w'] must be a mapping"),
        (lambda doc: doc.update(cell=["lstm", 4]), "cell must be a mapping"),
        (lambda doc: doc.update(dense=dict(enumerate(doc["dense"]))), "dense must be a list"),
        (lambda doc: doc["dense"].__setitem__(0, "relu"), "dense[0] must be a mapping"),
    ], ids=["params-list", "param-not-mapping", "cell-list", "dense-mapping", "layer-string"])
    def test_wrong_types_named(self, edit, problem):
        doc = json.loads(nets.save_model(ALL_BUILDERS["final"](0)))
        edit(doc)
        with pytest.raises(TypeError, match=re.escape(problem)):
            nets.load_model(json.dumps(doc))

    def test_checkpoint_not_an_object(self):
        with pytest.raises(TypeError, match="checkpoint must be a mapping"):
            nets.load_model("[1, 2]")

    @pytest.mark.parametrize("field,key,value", [
        ("cell", "hidden", 5), ("cell", "in", 2), ("dense", "in", 3), ("dense", "out", 2),
    ])
    def test_declared_dims_must_match_arrays(self, field, key, value):
        doc = json.loads(nets.save_model(ALL_BUILDERS["final"](0)))
        (doc[field] if field == "cell" else doc[field][0])[key] = value
        with pytest.raises(ValueError, match="declares"):
            nets.load_model(json.dumps(doc))


LEGACY = Path(__file__).parent / "data"


class TestLegacyCheckpoint:
    """Checkpoints that store each gate as its own ``cell.<w|u|b>_<gate>`` arrays."""

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_loads_bit_identical(self, kind):
        model, meta = nets.load_model((LEGACY / f"legacy_{kind}.json").read_text())
        assert model.cell.kind == kind and model.cell.hidden == 2
        y = forward(model, np.array(meta["input"]))
        assert np.array_equal(y, np.array(meta["expected"]))

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_resave_writes_stacked_names(self, kind):
        model, meta = nets.load_model((LEGACY / f"legacy_{kind}.json").read_text())
        doc = json.loads(nets.save_model(model, extra=meta))
        assert [n for n in doc["params"] if n.startswith("cell.")] == \
            ["cell.w", "cell.u", "cell.b"]
        reloaded, _ = nets.load_model(json.dumps(doc))
        x = np.array(meta["input"])
        assert np.array_equal(forward(reloaded, x), np.array(meta["expected"]))

    def test_missing_gate_array_named(self):
        doc = json.loads((LEGACY / "legacy_lstm.json").read_text())
        del doc["params"]["cell.u_f"]
        with pytest.raises(ValueError, match="cell.u_f"):
            nets.load_model(json.dumps(doc))


def named_arrays(model):
    """Each parameter array by attribute, in the order the buffer lays them out."""
    arrays = [] if model.cell is None else [model.cell.w, model.cell.u, model.cell.b]
    for layer in model.dense:
        arrays += [layer.weights, layer.bias]
    return arrays


BUFFER_SOURCES = [f"{name}-{how}" for name in sorted(ALL_BUILDERS)
                  for how in ("fresh", "copy", "load_model")] + ["legacy-lstm", "legacy-gru"]


def buffered_model(source):
    """A model made as ``source`` says: ``<variant>-<fresh|copy|load_model>``
    or ``legacy-<kind>`` for ``tests/data/legacy_<kind>.json``."""
    name, how = source.split("-")
    if name == "legacy":
        return nets.load_model((LEGACY / f"legacy_{how}.json").read_text())[0]
    model = ALL_BUILDERS[name](3)
    if how == "copy":
        return model.copy()
    return nets.load_model(nets.save_model(model))[0] if how == "load_model" else model


class TestFlatBuffer:
    """``ModelParams.flat`` holds every parameter; the named arrays are views
    into it, in ``param_arrays`` order."""

    @pytest.mark.parametrize("source", BUFFER_SOURCES)
    def test_named_arrays_are_views(self, source):
        model = buffered_model(source)
        rng = np.random.default_rng(0)
        values = rng.normal(size=model.flat.size)
        model.flat[:] = values
        assert np.array_equal(np.concatenate([a.ravel() for a in named_arrays(model)]), values)
        written = [rng.normal(size=a.shape) for a in named_arrays(model)]
        for arr, value in zip(named_arrays(model), written):
            arr[...] = value
        assert np.array_equal(model.flat, np.concatenate([v.ravel() for v in written]))
        assert model.flat.dtype == np.float64 and model.flat.flags.c_contiguous

    @pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
    def test_copy_owns_its_buffer(self, name):
        model = ALL_BUILDERS[name](3)
        before = model.flat.copy()
        twin = model.copy()
        assert not np.shares_memory(twin.flat, model.flat)
        assert np.array_equal(twin.flat, before)
        twin.flat += 1.0
        assert np.array_equal(model.flat, before)
        assert np.array_equal(np.concatenate([a.ravel() for a in named_arrays(model)]), before)
        x = np.random.default_rng(1).random((6, 3))
        assert not np.array_equal(forward(twin, x), forward(model, x))

    def test_param_arrays_names_and_layout(self):
        model = ALL_BUILDERS["final"](0)
        assert [name for name, _ in nets.param_arrays(model)] == [
            "cell.w", "cell.u", "cell.b", "dense0.weights", "dense0.bias",
            "dense1.weights", "dense1.bias"]
        for (_, view), arr in zip(nets.param_arrays(model), named_arrays(model)):
            assert np.shares_memory(view, model.flat) and np.array_equal(view, arr)

    def test_param_arrays_of_other_vectors(self):
        model = ALL_BUILDERS["gru"](0)
        size = model.flat.size
        stack = np.arange(2.0 * size).reshape(2, size)
        views = nets.param_arrays(model, stack)
        for row in range(2):
            assert np.array_equal(np.concatenate([v[row].ravel() for _, v in views]),
                                  stack[row])
        for (_, view), arr in zip(views, named_arrays(model)):
            assert view.shape == (2,) + arr.shape
        with pytest.raises(ValueError, match="parameter count"):
            nets.param_arrays(model, np.zeros(size + 1))
