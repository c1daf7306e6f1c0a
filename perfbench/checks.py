"""Independent, slower reference paths that the benchmark checks job outputs against.

None of these go through ``vpd.event_log``, ``vpd.morphology`` or
``vpd.passage_metric``: logs are read with a plain CSV reader, the recurrent
cell is stepped with ``nets.cell_step`` one frame at a time, morphology works
on interval lists, and PQ components come from a brute-force overlap graph.
"""
from __future__ import annotations

import numpy as np

from vpd import nets

KINDS = ("correct", "missed", "false", "merged", "split", "multiple")
COLUMNS = ("frame", "shield", "loop", "cor", "basic_clf", "ref_pass")


def read_dense(path) -> dict[str, np.ndarray]:
    """CSV log -> zero-order-hold dense channels."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:] if line.strip()]
    table = np.array(rows, dtype=np.int64)
    frames = table[:, 0]
    spans = np.diff(np.append(frames, frames[-1] + 1))
    return {name: np.repeat(table[:, j], spans).astype(np.uint8)
            for j, name in enumerate(COLUMNS) if j}


def runs(signal) -> list[tuple[int, int]]:
    """Closed intervals of the 1-runs, by a frame-by-frame scan."""
    out, start = [], None
    for i, v in enumerate(signal.tolist()):
        if v and start is None:
            start = i
        elif not v and start is not None:
            out.append((start, i - 1))
            start = None
    if start is not None:
        out.append((start, len(signal) - 1))
    return out


def morph(intervals, open_width: int, close_width: int, order: str):
    """The morphology filter on interval lists: closing merges runs whose gap
    is shorter than ``close_width``; opening drops runs shorter than
    ``open_width``."""
    def closing(ivs):
        merged = []
        for a, b in ivs:
            if merged and a - merged[-1][1] - 1 < close_width:
                merged[-1] = (merged[-1][0], b)
            else:
                merged.append((a, b))
        return merged

    def opening(ivs):
        return [(a, b) for a, b in ivs if b - a + 1 >= open_width]

    if order == "close-then-open":
        return opening(closing(intervals))
    return closing(opening(intervals))


def _kind_cost(n_ref: int, n_det: int) -> tuple[str, int]:
    if n_ref == 1 and n_det == 1:
        return "correct", 0
    if n_det == 0:
        return "missed", n_ref
    if n_ref == 0:
        return "false", n_det
    if n_det == 1:
        return "merged", n_ref
    if n_ref == 1:
        return "split", n_det
    return "multiple", max(n_ref, n_det)


def brute_force_components(ref, det) -> list[tuple[int, int]]:
    """(references, detections) per connected component of the overlap graph,
    from every overlapping pair and a union-find."""
    parent = list(range(len(ref) + len(det)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if ref and det:
        r = np.array(ref)
        d = np.array(det)
        overlap = (r[:, None, 0] <= d[None, :, 1]) & (d[None, :, 0] <= r[:, None, 1])
        for i, j in np.argwhere(overlap).tolist():
            parent[find(i)] = find(len(ref) + j)
    shape: dict[int, list[int]] = {}
    for node in range(len(parent)):
        shape.setdefault(find(node), [0, 0])[node >= len(ref)] += 1
    return [tuple(v) for v in shape.values()]


def pq_report(ref, det, n_frames: int) -> dict:
    """Expected per-file report: R, summed cost, kind counts and accuracy."""
    counts = {k: 0 for k in KINDS}
    r = sum_err = 0
    for n_ref, n_det in brute_force_components(ref, det):
        kind, cost = _kind_cost(n_ref, n_det)
        counts[kind] += 1
        r += kind == "correct"
        sum_err += cost
    ref_mask = np.zeros(n_frames, dtype=bool)
    det_mask = np.zeros(n_frames, dtype=bool)
    for a, b in ref:
        ref_mask[a:b + 1] = True
    for a, b in det:
        det_mask[a:b + 1] = True
    return {"r": r, "sum_err": sum_err, "counts": counts,
            "accuracy": float(np.mean(ref_mask == det_mask))}


def same_report(got: dict, want: dict) -> bool:
    return (got["r"] == want["r"] and got["sum_err"] == want["sum_err"]
            and all(got["counts"].get(k, 0) == v for k, v in want["counts"].items())
            and abs(got["accuracy"] - want["accuracy"]) <= 1e-12)


def reference_forward(model, x: np.ndarray) -> np.ndarray:
    """Per-frame outputs from a ``nets.cell_step`` loop and the dense stack."""
    state = model.cell.zero_state()
    hidden = np.empty((len(x), model.cell.hidden))
    for t in range(len(x)):
        hidden[t], state = nets.cell_step(model.cell, x[t], state)
    a = hidden
    for layer in model.dense:
        z = a @ layer.weights.T + layer.bias
        a = {"relu": lambda v: np.maximum(v, 0.0),
             "sigmoid": lambda v: 1.0 / (1.0 + np.exp(-v)),
             "tanh": np.tanh,
             "identity": lambda v: v}[layer.activation](z)
    return a[:, 0]


def model_inputs(dense: dict, features: dict) -> np.ndarray:
    if features.get("window", 0) != 0:
        raise ValueError("reference path covers window-0 feature specs only")
    return np.stack([dense[c] for c in features["channels"]], axis=1).astype(np.float64)


def expected_model_report(probs, dense, threshold, morph_spec) -> dict:
    det = runs(probs >= threshold)
    if morph_spec:
        det = morph(det, morph_spec["open_width"], morph_spec["close_width"],
                    morph_spec["order"])
    return pq_report(runs(dense["ref_pass"]), det, len(probs))
