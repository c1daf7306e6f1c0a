"""``nets.backward`` against complex-step derivatives of an independent forward.

The complex-step derivative (Squire and Trapp, SIAM Review 40(1), 1998;
Martins, Sturdza and Alonso, ACM TOMS 29(3), 2003) of an analytic loss L is

    dL/dθ_j = Im L(θ + i·h·e_j) / h,

with no difference of nearby values, so it holds to machine precision for
any tiny h.  The forward pass here is dtype-generic: it steps like
``nets.cell_step``, takes relu on the real part, and reads its parameters
through ``nets.param_arrays`` from a complex θ.  It shares no code with the
forward or backward passes of ``nets``.  All P directions run at once, as the
P rows of one (P, P) complex θ.
"""
import numpy as np
import pytest

from vpd import nets
from vpd.training import LossSpec

#: the imaginary step h
STEP = 1e-30

BUILDERS = {
    "lr": lambda seed: nets.init_lr(3, seed=seed),
    "mlp": lambda seed: nets.init_mlp(3, hidden=12, seed=seed),
    "simplernn": lambda seed: nets.init_simplernn(3, hidden=6, seed=seed),
    "lstm": lambda seed: nets.init_lstm(3, hidden=6, seed=seed),
    "gru": lambda seed: nets.init_gru(3, hidden=6, seed=seed),
    "final": lambda seed: nets.init_final(3, lstm_units=8, dense_units=4, dropout_p=0.0,
                                          seed=seed),
}


def _sigmoid(z):
    return 0.5 + 0.5 * np.tanh(0.5 * z)


def _act(name, z):
    if name == "relu":
        return np.where(z.real > 0, z, 0)
    return {"sigmoid": _sigmoid, "tanh": np.tanh, "identity": lambda a: a}[name](z)


def _matvec(u, h):
    return (u @ h[..., None])[..., 0]


def cell_outputs(kind, w, u, b, x):
    """h_t (B, T, n) of B cells with stacked parameters w (B, G·n, in),
    u (B, G·n, n) and b (B, G·n), each stepped like ``cell_step`` from zero."""
    n = u.shape[-1]
    zx = x @ np.swapaxes(w, -1, -2) + b[:, None, :]
    h = c = np.zeros((len(b), n), dtype=w.dtype)
    out = []
    for t in range(len(x)):
        a = zx[:, t]
        if kind == "lstm":
            a = a + _matvec(u, h)
            c = _sigmoid(a[:, n:2 * n]) * c + _sigmoid(a[:, :n]) * np.tanh(a[:, 3 * n:])
            h = _sigmoid(a[:, 2 * n:3 * n]) * np.tanh(c)
        elif kind == "simplernn":
            h = np.tanh(a + _matvec(u, h))
        else:
            zr = _sigmoid(a[:, :2 * n] + _matvec(u[:, :2 * n], h))
            z, r = zr[:, :n], zr[:, n:]
            h = (1 - z) * h + z * np.tanh(a[:, 2 * n:] + _matvec(u[:, 2 * n:], r * h))
        out.append(h)
    return np.stack(out, axis=1)


def outputs(model, theta, x, masks):
    """Per-frame outputs (B, T) of ``model`` with each row of ``theta`` (B, P)
    as its parameters, under the given dropout masks."""
    p = dict(nets.param_arrays(model, theta))
    a = x
    if model.cell is not None:
        a = cell_outputs(model.cell.kind, p["cell.w"], p["cell.u"], p["cell.b"], x)
    keep = 1.0 - model.dropout_p
    for i, (layer, mask) in enumerate(zip(model.dense, masks)):
        if mask is not None:
            a = a * (mask / keep)
        weights, bias = p[f"dense{i}.weights"], p[f"dense{i}.bias"]
        a = _act(layer.activation, a @ np.swapaxes(weights, -1, -2) + bias[:, None, :])
    return a[..., 0]


def loss(y, targets, spec):
    """``nets.loss_value`` of each row of ``y`` (B, T), in y's dtype."""
    w = np.where(targets == 1, spec.positive_weight, spec.negative_weight)
    value = np.sum(w * (y - targets) ** 2, axis=-1) / np.sum(w)
    return value + spec.derivative_lambda * np.sum(np.diff(y, axis=-1) ** 2, axis=-1)


def complex_step_gradient(model, x, targets, spec, masks):
    theta = model.flat + 1j * STEP * np.eye(model.flat.size)
    return loss(outputs(model, theta, x, masks), targets, spec).imag / STEP


@pytest.mark.parametrize("mode", ["eval", "train"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_backward_matches_complex_step(name, mode):
    spec = LossSpec(positive_weight=2.0, negative_weight=1.0, derivative_lambda=0.1)
    T = 20
    for draw in range(5):
        rng = np.random.default_rng([draw, sum(map(ord, name))])
        model = BUILDERS[name](draw)
        model.flat += rng.normal(0.0, 0.4, model.flat.size)
        if mode == "train":
            model.dropout_p = 0.4
        x = rng.normal(0.0, 1.0, (T, 3))
        targets = rng.integers(0, 2, T).astype(float)
        seed = int(rng.integers(2 ** 32))
        masks = nets._dropout_masks(model, mode, seed)
        y = outputs(model, model.flat[None], x, masks)[0]
        assert np.max(np.abs(y - nets.forward(model, x, mode, seed))) <= 1e-14
        _, grad = nets.backward(model, x, targets, spec, mode=mode, rng=seed)
        expect = complex_step_gradient(model, x, targets, spec, masks)
        # relative error in the max norm: per element it would divide by the
        # parameters whose derivative is zero (dropped units) or nearly so
        rel = np.max(np.abs(grad - expect)) / np.max(np.abs(expect))
        assert rel <= 1e-13, (name, mode, draw, rel)
