"""From-scratch sequence classifiers with exact analytic gradients.

Variants share one container: an optional recurrent cell (SimpleRNN, LSTM or
GRU) followed by a stack of dense layers applied frame-wise, with an optional
dropout transformation before each dense layer.  Logistic regression and the
MLP baseline are the cell-free special cases.  ``backward`` runs full
backpropagation through time over the sequence; gradients are exact for the
weighted-MSE-plus-derivative-penalty loss and are validated against central
finite differences and complex-step derivatives in the test suite.

A model owns one float64 buffer, ``ModelParams.flat``, and its named arrays
(``cell.w``, ``dense[i].bias``, ...) are views into it, laid out by
``param_arrays``: write through them (``cell.u *= 2``), since rebinding one
detaches it.  ``backward`` returns the gradient as one vector of that layout.

``forward`` runs a long input's chunks as lanes of one batched recurrence
and corrects them until they merge with the sequential pass (multiple
shooting, with a bit-equality test in place of a Newton step), so its outputs
are those of the sequential pass, bit for bit, with no option to set.
"""
from __future__ import annotations

import copy
import itertools
import json
from dataclasses import dataclass, field, replace

import numpy as np

VARIANTS = ("lr", "mlp", "simplernn", "lstm", "gru", "final")

ACTIVATIONS = ("sigmoid", "tanh", "relu", "identity")


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid as 1/2 + tanh(z/2)/2: it cannot overflow and raises no
    floating-point warning.  ``out`` may be ``z`` itself."""
    s = np.multiply(z, 0.5, out=out)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "sigmoid":
        return _sigmoid(z)
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d activation / d z, from pre-activation z and activation a."""
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (z > 0).astype(z.dtype)
    if name == "identity":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {name!r}")


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class DenseParams:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activation: str = "sigmoid"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("inconsistent dense dimensions")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


GATES = {"simplernn": ("h",), "lstm": ("i", "f", "o", "c"), "gru": ("z", "r", "h")}


@dataclass
class CellParams:
    """Recurrent cell with its G = len(GATES[kind]) gates stacked row-wise.

    Gate k of ``GATES[kind]`` owns rows ``k*h:(k+1)*h`` of ``w``, ``u`` and
    ``b``: the packed layout of cuDNN and PyTorch's ``weight_ih_l0``.
    """

    kind: str
    w: np.ndarray  # (G*h, in)
    u: np.ndarray  # (G*h, h)
    b: np.ndarray  # (G*h,)

    def __post_init__(self):
        if self.kind not in GATES:
            raise ValueError(f"unknown cell kind {self.kind!r}")
        if not (self.w.ndim == self.u.ndim == 2 and self.b.ndim == 1
                and self.w.shape[0] == self.u.shape[0] == self.b.shape[0]
                == len(GATES[self.kind]) * self.u.shape[1]):
            raise ValueError(
                f"inconsistent {self.kind} cell dimensions: w {self.w.shape}, "
                f"u {self.u.shape}, b {self.b.shape}")

    @property
    def hidden(self) -> int:
        return self.u.shape[1]

    @property
    def in_dim(self) -> int:
        return self.w.shape[1]

    def zero_state(self):
        h = self.hidden
        return (np.zeros(h), np.zeros(h)) if self.kind == "lstm" else np.zeros(h)


@dataclass
class ModelParams:
    """A cell and dense stack whose parameters live in one buffer, ``flat``:
    ``__post_init__`` copies the given arrays into it and rebinds them as its
    views.  Rebinding a named array later detaches it; write through it."""

    variant: str
    cell: CellParams | None
    dense: list[DenseParams]
    dropout_p: float = 0.0
    seed: int | None = None
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if not self.dense:
            raise ValueError("model needs at least one dense layer")
        if self.dense[-1].out_dim != 1:
            raise ValueError("final layer must have output dimension 1")
        dims = [self.cell.hidden if self.cell is not None else None]
        for layer in self.dense:
            if dims[-1] is not None and layer.in_dim != dims[-1]:
                raise ValueError("dense layer dimensions do not chain")
            dims.append(layer.out_dim)
        slots = _slots(self)
        self.flat = np.concatenate([np.ravel(getattr(owner, attr)) for _, owner, attr in slots],
                                   dtype=np.float64)
        for (_, owner, attr), (_, view) in zip(slots, param_arrays(self)):
            setattr(owner, attr, view)

    @property
    def in_dim(self) -> int:
        return self.cell.in_dim if self.cell is not None else self.dense[0].in_dim

    def copy(self) -> "ModelParams":
        """A copy with its own buffer (``deepcopy`` detaches the views: repack)."""
        return replace(self, cell=copy.deepcopy(self.cell), dense=copy.deepcopy(self.dense))


def _slots(model: ModelParams) -> list[tuple[str, object, str]]:
    """(name, owner, attribute) of each parameter array, in buffer order."""
    slots = [] if model.cell is None else [(f"cell.{p}", model.cell, p) for p in "wub"]
    return slots + [(f"dense{i}.{p}", layer, p) for i, layer in enumerate(model.dense)
                    for p in ("weights", "bias")]


def param_arrays(model: ModelParams, flat: np.ndarray | None = None
                 ) -> list[tuple[str, np.ndarray]]:
    """Named views into ``flat`` (the model's buffer by default) in buffer
    order: the one map from names to offsets.  ``flat`` may be a gradient, a
    complex perturbation, or a ``(B, P)`` stack, giving views ``(B, *shape)``."""
    flat = model.flat if flat is None else flat
    out, pos = [], 0
    for name, owner, attr in _slots(model):
        arr = getattr(owner, attr)
        out.append((name, flat[..., pos:pos + arr.size].reshape(flat.shape[:-1] + arr.shape)))
        pos += arr.size
    if pos != flat.shape[-1]:
        raise ValueError(f"flat vector length {flat.shape[-1]} != parameter count {pos}")
    return out


# ---------------------------------------------------------------------------
# initialization


def _glorot(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    r = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-r, r, size=(out_dim, in_dim))


def _recurrent_init(rng: np.random.Generator, h: int) -> np.ndarray:
    r = 1.0 / np.sqrt(h)
    return rng.uniform(-r, r, size=(h, h))


def _dense_stack(rng, dims_acts):
    return [DenseParams(_glorot(rng, o, i), np.zeros(o), act) for i, o, act in dims_acts]


def init_lr(in_dim: int, seed: int = 0) -> ModelParams:
    rng = np.random.default_rng(seed)
    return ModelParams("lr", None, _dense_stack(rng, [(in_dim, 1, "sigmoid")]), seed=seed)


def init_mlp(in_dim: int, hidden: int = 12, seed: int = 0) -> ModelParams:
    rng = np.random.default_rng(seed)
    dense = _dense_stack(rng, [(in_dim, hidden, "tanh"), (hidden, 1, "sigmoid")])
    return ModelParams("mlp", None, dense, seed=seed)


def _init_cell(rng, kind: str, in_dim: int, hidden: int) -> CellParams:
    """Draw each gate's input then recurrent block, in ``GATES[kind]`` order."""
    w, u = [], []
    for _ in GATES[kind]:
        w.append(_glorot(rng, hidden, in_dim))
        u.append(_recurrent_init(rng, hidden))
    b = np.zeros(len(w) * hidden)
    if kind == "lstm":
        b[hidden:2 * hidden] = 1.0  # open forget gate at start of training
    return CellParams(kind, np.vstack(w), np.vstack(u), b)


def _init_recurrent(kind: str, in_dim: int, hidden: int, seed: int) -> ModelParams:
    rng = np.random.default_rng(seed)
    cell = _init_cell(rng, kind, in_dim, hidden)
    return ModelParams(kind, cell, _dense_stack(rng, [(hidden, 1, "sigmoid")]), seed=seed)


def init_simplernn(in_dim: int, hidden: int = 8, seed: int = 0) -> ModelParams:
    return _init_recurrent("simplernn", in_dim, hidden, seed)


def init_lstm(in_dim: int, hidden: int = 8, seed: int = 0) -> ModelParams:
    return _init_recurrent("lstm", in_dim, hidden, seed)


def init_gru(in_dim: int, hidden: int = 8, seed: int = 0) -> ModelParams:
    return _init_recurrent("gru", in_dim, hidden, seed)


def init_final(in_dim: int, lstm_units: int = 16, dense_units: int = 8,
               dropout_p: float = 0.2, seed: int = 0) -> ModelParams:
    """Stacked detector: LSTM -> dropout -> dense(relu) -> dropout -> dense(sigmoid)."""
    rng = np.random.default_rng(seed)
    cell = _init_cell(rng, "lstm", in_dim, lstm_units)
    dense = _dense_stack(rng, [(lstm_units, dense_units, "relu"),
                               (dense_units, 1, "sigmoid")])
    return ModelParams("final", cell, dense, dropout_p=dropout_p, seed=seed)


# ---------------------------------------------------------------------------
# single-step cell semantics (also the reference for the vectorized paths)


def cell_step(cell: CellParams, x: np.ndarray, state):
    """One recurrent update; returns (output, new state)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cell.in_dim,):
        raise ValueError(f"input shape {x.shape} != ({cell.in_dim},)")
    n = cell.hidden
    zx = cell.w @ x + cell.b
    if cell.kind == "lstm":
        h, c = (np.asarray(s, dtype=np.float64) for s in state)
        a = zx + cell.u @ h
        i, f, o = _sigmoid(a[:n]), _sigmoid(a[n:2 * n]), _sigmoid(a[2 * n:3 * n])
        g = np.tanh(a[3 * n:])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        return h_new, (h_new, c_new)
    h = np.asarray(state, dtype=np.float64)
    if cell.kind == "simplernn":
        h_new = np.tanh(zx + cell.u @ h)
        return h_new, h_new
    zr = _sigmoid(zx[:2 * n] + cell.u[:2 * n] @ h)
    z, r = zr[:n], zr[n:]
    h_tilde = np.tanh(zx[2 * n:] + cell.u[2 * n:] @ (r * h))
    h_new = (1.0 - z) * h + z * h_tilde
    return h_new, h_new


# ---------------------------------------------------------------------------
# forward


def _dropout_masks(model: ModelParams, mode: str, rng) -> list[np.ndarray | None]:
    """One mask per dense layer, shared across all time steps of the sequence."""
    if mode == "eval" or model.dropout_p == 0.0:
        return [None] * len(model.dense)
    if rng is None:
        raise ValueError("train-mode forward with dropout needs an rng or seed")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    keep = 1.0 - model.dropout_p
    return [(gen.random(layer.in_dim) < keep).astype(np.float64) for layer in model.dense]


def _halved(cell: CellParams):
    """``w``, ``u`` and ``b`` with the sigmoid gates' rows halved, which is
    exact, and the number ``m`` of those rows, which lead the gate stack."""
    m = {"lstm": 3, "gru": 2}.get(cell.kind, 0) * cell.hidden
    half = np.where(np.arange(len(cell.b)) < m, 0.5, 1.0)
    return cell.w * half[:, None], cell.u * half[:, None], cell.b * half, m


def _cell_forward(cell: CellParams, x: np.ndarray, state=None) -> dict:
    """Run the cell over the sequence from ``state`` (zero if None), keeping
    per-step caches; ``cache["state"]`` is the state after the last step.

    ``A`` (T, G*h) starts as ``x @ w.T + b`` with the sigmoid gates' rows of
    ``w``, ``u`` and ``b`` halved, which is exact.  Step t adds its recurrent
    term to row t, takes its ``tanh`` and maps the sigmoid gates by
    ``s*0.5 + 0.5`` (``_sigmoid``, bit for bit), so the backward pass (which
    assumes a zero initial state) reads gate k of step t from ``A[t, k*h:(k+1)*h]``.
    """
    T, n = x.shape[0], cell.hidden
    w, u, b, m = _halved(cell)
    A = x @ w.T
    A += b
    cache = {"x": x, "A": A}
    state = cell.zero_state() if state is None else state
    uh, prod = np.empty(len(b)), np.empty(n)  # one step's recurrent term and a product
    if cell.kind == "simplernn":
        h = state
        for a in A:
            a += np.dot(u, h, uh)
            h = np.tanh(a, a)
        cache.update(H=A, state=h.copy())
    elif cell.kind == "lstm":
        H, C, TC = (np.empty((T, n)) for _ in range(3))
        I, F, O, G = (A[:, k * n:(k + 1) * n] for k in range(4))
        h, c = state
        for a, s, i, f, o, g, c_t, tc, h_t in zip(A, A[:, :m], I, F, O, G, C, TC, H):
            a += np.dot(u, h, uh)
            np.tanh(a, a)
            s *= 0.5
            s += 0.5
            c = np.multiply(f, c, c_t)
            c += np.multiply(i, g, prod)
            np.tanh(c, tc)
            h = np.multiply(o, tc, h_t)
        cache.update(H=H, C=C, TC=TC, state=(h.copy(), c.copy()))
    else:
        H, RH = np.empty((T, n)), np.empty((T, n))  # RH: r * h_prev, for the backward pass
        Z, R, HT = (A[:, k * n:(k + 1) * n] for k in range(3))
        (u_zr, u_h), (uh_zr, uh_h) = np.split(u, [m]), np.split(uh, [m])
        h = state
        for zr, z, r, ht, rh, h_t in zip(A[:, :m], Z, R, HT, RH, H):
            zr += np.dot(u_zr, h, uh_zr)
            np.tanh(zr, zr)
            zr *= 0.5
            zr += 0.5
            ht += np.dot(u_h, np.multiply(r, h, rh), uh_h)
            np.tanh(ht, ht)
            np.subtract(1.0, z, h_t)
            h_t *= h
            h_t += np.multiply(z, ht, prod)
            h = h_t
        cache.update(H=H, RH=RH, state=h.copy())
    return cache


def _lane_slab(kind: str, u: np.ndarray, m: int, A: np.ndarray, H: np.ndarray,
               s: np.ndarray) -> None:
    """Step b independent lanes of a cell through one slab of S steps.

    ``A`` (S, b, G*h) holds each step's input term with the sigmoid gates'
    rows halved and ``u`` is the halved recurrent matrix, as in
    ``_cell_forward``; step t writes the lanes' h into ``H[t]``.  ``s``
    (b, 1 or 2, h) holds each lane's h (and the LSTM's c) and is updated in
    place.  The recurrent term is the per-lane ``np.matmul(u, h[:, :, None])``,
    which gives the bits of ``_cell_forward``'s ``np.dot(u, h)``; the GEMM
    ``h @ u.T`` does not.  Every elementwise step is that of ``_cell_forward``:
    the LSTM maps its whole gate row by ``* scale + offset``, which is
    ``* 0.5 + 0.5`` on the sigmoid rows and leaves the candidate's bits as
    they are (``z * 1.0`` and ``z + -0.0`` are ``z``, signed zeros too).
    """
    _, b, n = H.shape
    cols = zip(itertools.chain([s[:, 0, :, None]], H[:, :, :, None]), H)  # h_{t-1} as columns, h_t
    prod = np.empty((b, n))
    if kind == "simplernn":
        uh = np.empty((b, n, 1))
        for a, (h_col, h_t) in zip(A, cols):
            np.matmul(u, h_col, uh)
            a += uh[:, :, 0]
            np.tanh(a, h_t)
    elif kind == "lstm":
        c, uh, tc = s[:, 1].copy(), np.empty((b, 4 * n, 1)), np.empty((b, n))
        uh_row = uh[:, :, 0]
        sig = np.arange(4 * n) < m
        scale, offset = np.where(sig, 0.5, 1.0), np.where(sig, 0.5, -0.0)
        I, F, O, G = (A[:, :, k * n:(k + 1) * n] for k in range(4))
        for a, i, f, o, g, (h_col, h_t) in zip(A, I, F, O, G, cols):
            np.matmul(u, h_col, uh)
            a += uh_row
            np.tanh(a, a)
            a *= scale
            a += offset
            c *= f
            c += np.multiply(i, g, prod)
            np.tanh(c, tc)
            np.multiply(o, tc, h_t)
        s[:, 1] = c
    else:
        Z, R, HT = (A[:, :, k * n:(k + 1) * n] for k in range(3))
        u_zr, u_h = np.split(u, [m])
        uh_zr, uh_h, rh = np.empty((b, m, 1)), np.empty((b, n, 1)), np.empty((b, n, 1))
        for zr, z, r, ht, (h_col, h_t) in zip(A[:, :, :m], Z, R, HT, cols):
            np.matmul(u_zr, h_col, uh_zr)
            zr += uh_zr[:, :, 0]
            np.tanh(zr, zr)
            zr *= 0.5
            zr += 0.5
            h = h_col[:, :, 0]
            np.multiply(r, h, rh[:, :, 0])
            np.matmul(u_h, rh, uh_h)
            ht += uh_h[:, :, 0]
            np.tanh(ht, ht)
            np.subtract(1.0, z, h_t)
            h_t *= h
            h_t += np.multiply(z, ht, prod)
    s[:, 0] = H[-1]


def _dense_forward(model: ModelParams, A: np.ndarray, masks) -> tuple[np.ndarray, list]:
    keep = 1.0 - model.dropout_p
    caches = []
    for layer, mask in zip(model.dense, masks):
        A_in = A * (mask / keep) if mask is not None else A
        Z = A_in @ layer.weights.T + layer.bias
        A = _act(layer.activation, Z)
        caches.append((A_in, Z, A))
    return A, caches


def _checked_input(model: ModelParams, x: np.ndarray, mode: str, rng):
    """``x`` as float64 after the shape and mode checks, and the dropout masks."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ValueError(f"input shape {x.shape} incompatible with model input "
                         f"dimension {model.in_dim}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    return x, _dropout_masks(model, mode, rng)


def _pass(model: ModelParams, x: np.ndarray, masks, state=None):
    """The cell over ``x`` from ``state`` (zero if None), then the dense stack
    on its output: ``(outputs (T,), cell cache or None, dense caches)``."""
    cell_cache = _cell_forward(model.cell, x, state) if model.cell is not None else None
    out, dense_caches = _dense_forward(model, x if cell_cache is None else cell_cache["H"],
                                       masks)
    return out[:, 0], cell_cache, dense_caches


#: frames per chunk of ``forward``: above the longest paper-like log (351
#: frames), so such logs run as one chunk, as in ``backward``, bit for bit
_CHUNK = 2048
#: steps per slab of the lanes: a divisor of ``_CHUNK`` and a multiple of 4, so
#: that BLAS computes each row of a slab's products as it does in a chunk's
_SLAB = 64
#: fewest frames per lane, and most lanes per super-chunk
_LANE_MIN, _LANES = 1024, 16
#: most frames per super-chunk: a multiple of ``_CHUNK``
_SUPER = 2 ** 16
#: correction passes, and steps a lane may run in one without merging, before
#: the rest of the input runs sequentially
_PASSES, _MERGE_STEPS = 3, 1024


def _lane_state(e: np.ndarray, kind: str):
    """A slab-end state (1 or 2, h) of the lanes as ``_cell_forward`` takes it."""
    return (e[0].copy(), e[1].copy()) if kind == "lstm" else e[0].copy()


def _lane_pass(model, x, masks, out, lanes, first, s, ends, check):
    """One pass of ``lanes`` (from state ``s``) over their slabs of ``x``.

    Each slab's outputs go into ``out`` and its end state into ``ends``.  With
    ``check``, a lane stops at the first slab end where its state equals the
    stored one bit for bit, since from there on it would repeat the stored
    run.  Returns whether each lane merged, or None once a lane has run
    ``_MERGE_STEPS`` steps without merging."""
    cell, S = model.cell, _SLAB
    w, u, b, m = _halved(cell)
    merged = np.zeros(len(first) - 1, bool)
    for j in itertools.count():
        if not len(lanes):
            return merged
        if check and j * S >= _MERGE_STEPS:
            return None
        g = first[lanes] + j  # the lanes' slabs
        idx = (g * S + np.arange(S)[:, None]).ravel()  # their frames, step-major
        A = x[idx] @ w.T
        A += b
        H = np.empty((S, len(lanes), cell.hidden))
        _lane_slab(cell.kind, u, m, A.reshape(S, len(lanes), -1), H, s)
        y = _dense_forward(model, H.reshape(len(idx), -1), masks)[0][:, 0]
        # compared as int64 so that bits decide: 0.0 and -0.0 differ, a NaN meets itself
        same = check & (s.view(np.int64) == ends[g].view(np.int64)).all(axis=(1, 2))
        out[idx] = y
        ends[g] = s
        merged[lanes[same]] = True
        keep = ~same & (g + 1 < first[lanes + 1])
        lanes, s = lanes[keep], s[keep]


def _shoot(model: ModelParams, x: np.ndarray, masks, out: np.ndarray, state, B: int):
    """Run ``x`` (a whole number of slabs) as B lanes and correct them until
    every lane's outputs in ``out`` are those of the sequential pass from
    ``state``, bit for bit.  Returns the frames done and the state after them.

    Pass 1 runs lane 0 from ``state`` and the others from zero.  Each later
    pass reruns the lanes from the first unproven one, each from its
    predecessor's latest end state; the first of them is then exact, and so
    is each following lane whose predecessor merged.  After ``_PASSES``
    passes, or when a pass aborts, the first unproven lane is where the
    sequential pass takes over."""
    cell = model.cell
    slabs, lanes = len(x) // _SLAB, np.arange(B + 1)
    first = lanes * (slabs // B) + np.minimum(lanes, slabs % B)  # each lane's first slab
    ends = np.empty((slabs, 2 if cell.kind == "lstm" else 1, cell.hidden))
    s = np.zeros((B,) + ends.shape[1:])
    if state is not None:
        s[0] = state
    k = 0  # lanes before k are exact
    for p in range(_PASSES + 1):
        if p:
            s = ends[first[k:B] - 1]
        merged = _lane_pass(model, x, masks, out, lanes[k:B], first, s, ends, p > 0)
        if merged is None:
            break
        k = next((i + 1 for i in range(k, B) if not merged[i]), B)
        if k == B:
            return len(x), _lane_state(ends[-1], cell.kind)
    return first[k] * _SLAB, _lane_state(ends[first[k] - 1], cell.kind)


def forward(model: ModelParams, x: np.ndarray, mode: str = "eval", rng=None) -> np.ndarray:
    """Per-frame output probabilities for one input sequence (T, in_dim).

    Recurrent state starts at zero and is never carried across sequences.
    Dropout is active only in train mode, with inverted scaling; ``rng`` may be
    a seed or a Generator and fully determines the masks.

    The sequence runs in chunks of ``_CHUNK`` frames with the recurrent state
    carried from one chunk into the next, so the result is the whole-sequence
    one and memory beyond ``x`` and the output is O(chunk), not O(T).

    A long input's whole chunks run first, in super-chunks of up to ``_SUPER``
    frames, each as up to ``_LANES`` lanes of one batched recurrence (multiple
    shooting): lanes that start from a wrong state are rerun until their state
    equals the stored one bit for bit.  A forgetting cell merges within a few
    hundred steps; one that does not falls back to the sequential pass.  Either
    way the outputs are bit for bit those of the sequential pass.
    """
    x, masks = _checked_input(model, x, mode, rng)
    out = np.empty(len(x))
    start, state = 0, None
    whole = len(x) - len(x) % _CHUNK
    while model.cell is not None and start < whole:
        size = min(whole - start, _SUPER)
        B = min(_LANES, size // _LANE_MIN)
        if B < 2:
            break
        done, state = _shoot(model, x[start:start + size], masks, out[start:start + size],
                             state, B)
        start += done
        if done < size:
            break
    while start < len(x):
        stop = min(start - start % _CHUNK + _CHUNK, len(x))
        out[start:stop], cache = _pass(model, x[start:stop], masks, state)[:2]
        if cache is not None:
            state = cache["state"]
            del cache  # so that the next chunk's caches replace these, not join them
        start = stop
    return out


def check_threshold(threshold: float) -> None:
    """Reject a decision threshold outside the open interval (0, 1)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")


def decide(probs: np.ndarray, threshold: float, post_filter=None) -> np.ndarray:
    """Binary decisions ``probs >= threshold``, then the optional ``post_filter``
    (any binary-signal map, e.g. a ``MorphFilterSpec``)."""
    check_threshold(threshold)
    pred = (np.asarray(probs) >= threshold).astype(np.uint8)
    return pred if post_filter is None else post_filter(pred)


# ---------------------------------------------------------------------------
# loss and backward


def loss_value(outputs: np.ndarray, targets: np.ndarray, spec) -> float:
    """Weighted MSE (weights by target class, normalized by total weight) plus
    a penalty on the output's discrete derivative."""
    y = np.asarray(outputs, dtype=np.float64)
    r = np.asarray(targets, dtype=np.float64)
    if y.shape != r.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {r.shape}")
    w = np.where(r == 1, spec.positive_weight, spec.negative_weight)
    value = float(np.sum(w * (y - r) ** 2) / np.sum(w))
    if spec.derivative_lambda > 0 and y.size > 1:
        value += spec.derivative_lambda * float(np.sum(np.diff(y) ** 2))
    return value


def loss_output_grad(outputs: np.ndarray, targets: np.ndarray, spec) -> np.ndarray:
    y = np.asarray(outputs, dtype=np.float64)
    r = np.asarray(targets, dtype=np.float64)
    w = np.where(r == 1, spec.positive_weight, spec.negative_weight)
    dy = 2.0 * w * (y - r) / np.sum(w)
    if spec.derivative_lambda > 0 and y.size > 1:
        d = np.diff(y)
        dy[1:] += 2.0 * spec.derivative_lambda * d
        dy[:-1] -= 2.0 * spec.derivative_lambda * d
    return dy


def _dense_backward(model: ModelParams, dY: np.ndarray, caches, masks, grads):
    keep = 1.0 - model.dropout_p
    dA = dY
    for idx in range(len(model.dense) - 1, -1, -1):
        layer = model.dense[idx]
        A_in, Z, A = caches[idx]
        dZ = dA * _act_grad(layer.activation, Z, A)
        grads[f"dense{idx}.weights"] += dZ.T @ A_in
        grads[f"dense{idx}.bias"] += dZ.sum(axis=0)
        dA = dZ @ layer.weights
        if masks[idx] is not None:
            dA = dA * (masks[idx] / keep)
    return dA  # gradient w.r.t. the dense stack's input (cell output or x)


def _cell_backward(cell: CellParams, cache: dict, dH: np.ndarray, grads):
    """Add the cell's parameter gradients, given ``dH`` = d loss / d H.

    Every factor that does not depend on the gradient carried back from step
    t + 1 is computed for all steps before the loop and written into ``dZ``,
    the gradient w.r.t. the gate pre-activations: gate k's coefficient of the
    carried dh (or dc) sits in ``dZ[t, k*h:(k+1)*h]``.  The loop walks reversed
    row views and scales step t's row in place.  The cache must come from a
    zero initial state."""
    x, A, H = cache["x"], cache["A"], cache["H"]
    T, n = H.shape
    H_prev = np.vstack([np.zeros((1, n)), H[:-1]])
    dZ = np.zeros_like(A)
    dZg = dZ.reshape(T, -1, n)  # dZg[t, k] is gate k of step t
    u_T = cell.u.T
    dh, dc, s, buf = np.empty((4, n))  # one step's vectors
    dh_next, dc_next = np.zeros((2, n))
    if cell.kind == "simplernn":
        np.subtract(1.0, H * H, out=dZ)
        for dz, dh_t in zip(dZ[::-1], dH[::-1]):
            dz *= np.add(dh_t, dh_next, dh)
            np.dot(u_T, dz, dh_next)
    elif cell.kind == "lstm":
        I, F, O, G = (A[:, k * n:(k + 1) * n] for k in range(4))
        C, TC = cache["C"], cache["TC"]
        C_prev = np.vstack([np.zeros((1, n)), C[:-1]])
        # the i, f and g gates scale the carried dc; the o gate scales dh by Q
        dZg[:, 0] = G * I * (1.0 - I)
        dZg[:, 1] = C_prev * F * (1.0 - F)
        dZg[:, 3] = I * (1.0 - G * G)
        Q = TC * O * (1.0 - O)
        K = O * (1.0 - TC * TC)  # dc = dh * K + dc_next
        for dh_t, k, q, f, dz, dz_o, dz_row in zip(dH[::-1], K[::-1], Q[::-1], F[::-1],
                                                  dZg[::-1], dZg[::-1, 2], dZ[::-1]):
            np.add(dh_t, dh_next, dh)
            np.multiply(dh, k, dc)
            dc += dc_next
            dz *= dc
            np.multiply(dh, q, dz_o)
            np.multiply(dc, f, dc_next)
            np.dot(u_T, dz_row, dh_next)
    else:
        Z, R, HT = (A[:, k * n:(k + 1) * n] for k in range(3))
        # z and candidate gates scale dh; the r gate scales s = u_h.T @ dZ_h
        dZg[:, 0] = Z * (1.0 - Z) * (HT - H_prev)
        dZg[:, 1] = H_prev * R * (1.0 - R)
        dZg[:, 2] = Z * (1.0 - HT * HT)
        one_minus_z = 1.0 - Z
        u_zr_T, u_h_T = u_T[:, :2 * n], u_T[:, 2 * n:]
        for dh_t, dz_zh, dz_r, dz_h, dz_zr, omz, r in zip(
                dH[::-1], dZg[::-1, ::2], dZg[::-1, 1], dZg[::-1, 2], dZ[::-1, :2 * n],
                one_minus_z[::-1], R[::-1]):
            np.add(dh_t, dh_next, dh)
            dz_zh *= dh
            dz_r *= np.dot(u_h_T, dz_h, s)
            np.multiply(dh, omz, dh_next)
            dh_next += np.dot(u_zr_T, dz_zr, buf)
            dh_next += np.multiply(s, r, buf)
    grads["cell.w"] += dZ.T @ x
    grads["cell.b"] += dZ.sum(axis=0)
    if cell.kind == "gru":
        # the candidate gate's recurrent input is r * h_prev, not h_prev
        grads["cell.u"][:2 * n] += dZ[:, :2 * n].T @ H_prev
        grads["cell.u"][2 * n:] += dZ[:, 2 * n:].T @ cache["RH"]
    else:
        grads["cell.u"] += dZ.T @ H_prev


def backward(model: ModelParams, x: np.ndarray, targets: np.ndarray, loss_spec,
             mode: str = "eval", rng=None) -> tuple[float, np.ndarray]:
    """Loss and exact gradient for one sequence, accumulated over all frames;
    the gradient is one vector laid out like ``model.flat`` (see ``param_arrays``).

    With ``mode='train'`` the dropout masks are drawn once and shared by the
    forward pass and the gradients (gradients are exact for the sampled masks).
    """
    x, masks = _checked_input(model, x, mode, rng)
    if not len(x):
        raise ValueError("empty sequence: backward needs at least one frame")
    targets = np.asarray(targets, dtype=np.float64)
    y, cell_cache, dense_caches = _pass(model, x, masks)
    if targets.shape != y.shape:
        raise ValueError(f"targets shape {targets.shape} != outputs {y.shape}")
    value = loss_value(y, targets, loss_spec)
    dY = loss_output_grad(y, targets, loss_spec)[:, None]
    grad = np.zeros_like(model.flat)
    grads = dict(param_arrays(model, grad))
    dA0 = _dense_backward(model, dY, dense_caches, masks, grads)
    if model.cell is not None:
        _cell_backward(model.cell, cell_cache, dA0, grads)
    return value, grad


# ---------------------------------------------------------------------------
# serialization


_RESERVED_KEYS = ("variant", "dropout_p", "seed", "dense", "cell", "params")


def save_model(model: ModelParams, extra: dict | None = None) -> str:
    """JSON checkpoint: variant, dims, flat row-major parameter arrays.

    ``extra`` metadata is stored beside them at the top level, so it may not
    use the checkpoint's own keys.
    """
    clash = sorted(set(extra or ()) & set(_RESERVED_KEYS))
    if clash:
        raise ValueError(f"extra metadata uses reserved checkpoint keys {clash}")
    cell = model.cell
    doc = {
        "variant": model.variant,
        "dropout_p": model.dropout_p,
        "seed": model.seed,
        "dense": [
            {"out": l.out_dim, "in": l.in_dim, "activation": l.activation}
            for l in model.dense
        ],
        "cell": None if cell is None else {"kind": cell.kind, "hidden": cell.hidden,
                                           "in": cell.in_dim},
        "params": {name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                   for name, arr in param_arrays(model)},
        **(extra or {}),
    }
    return json.dumps(doc, indent=2)


def _check_dims(what: str, declared: dict, actual: dict) -> None:
    if declared != actual:
        raise ValueError(f"checkpoint declares {what} {declared} but its arrays give {actual}")


def _mapping(what: str, value):
    """``value`` if it is a JSON object; a ``TypeError`` naming ``what`` otherwise."""
    if not isinstance(value, dict):
        raise TypeError(f"checkpoint {what} must be a mapping, got {type(value).__name__}")
    return value


def load_model(text: str) -> tuple[ModelParams, dict]:
    """Inverse of :func:`save_model`; returns (model, leftover metadata).

    Also reads checkpoints that store each gate as its own arrays
    (``cell.w_i``, ``cell.u_i``, ``cell.b_i``, ...) by stacking them in
    ``GATES`` order.
    """
    doc = _mapping("checkpoint", json.loads(text))
    params = {name: np.array(_mapping(f"params[{name!r}]", p)["data"],
                             dtype=np.float64).reshape(p["shape"])
              for name, p in _mapping("params", doc["params"]).items()}

    def take(name):
        if name not in params:
            raise ValueError(f"checkpoint lacks parameter array {name!r}")
        return params[name]

    cell = None
    cell_spec = doc["cell"]
    if cell_spec is not None:
        kind = _mapping("cell", cell_spec)["kind"]
        if kind not in GATES:
            raise ValueError(f"unknown cell kind {kind!r}")
        if "cell.w" in params:
            w, u, b = (take(f"cell.{p}") for p in "wub")
        else:
            w, u, b = (np.concatenate([take(f"cell.{p}_{g}") for g in GATES[kind]])
                       for p in "wub")
        cell = CellParams(kind, w, u, b)
        _check_dims("cell", {"hidden": cell_spec["hidden"], "in": cell_spec["in"]},
                    {"hidden": cell.hidden, "in": cell.in_dim})
    if not isinstance(doc["dense"], list):
        raise TypeError(f"checkpoint dense must be a list, got {type(doc['dense']).__name__}")
    dense = []
    for i, spec in enumerate(doc["dense"]):
        layer = DenseParams(take(f"dense{i}.weights"), take(f"dense{i}.bias"),
                            _mapping(f"dense[{i}]", spec)["activation"])
        _check_dims(f"dense{i}", {"out": spec["out"], "in": spec["in"]},
                    {"out": layer.out_dim, "in": layer.in_dim})
        dense.append(layer)
    model = ModelParams(doc["variant"], cell, dense, dropout_p=doc["dropout_p"],
                        seed=doc.get("seed"))
    meta = {k: v for k, v in doc.items() if k not in _RESERVED_KEYS}
    return model, meta
