"""Mutation check for the oracles: each mutant must make its listed tests fail.

Each entry of ``MUTANTS`` names a file under ``src/vpd``, a piece of its text
that occurs exactly once, the text that replaces it, and the tests that must
catch the change, and optionally tests that must still pass on it: a
mutant that a weaker oracle lets through, to show why a stronger one is
there.  Every mutant is applied to a fresh temporary copy of
``src/`` and ``tests/``, never to the working tree, and only its tests run
there.  All listed tests are first run once on an unmutated copy: a mutant
counts as killed only if tests that pass on the real code fail on it, and
its ``survives`` tests still pass.

Run by hand from the repository root (Tier-1 does not collect this file)::

    python tests/mutants.py            # every mutant
    python tests/mutants.py -k lstm    # those whose name contains "lstm"

It prints one line per mutant and ``killed k/n``, and exits non-zero when a
mutant survives or its text is not found.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/vpd
    old: str
    new: str
    tests: tuple[str, ...]
    survives: tuple[str, ...] = ()


NETS = "tests/test_nets.py"
HOISTED = f"{NETS}::TestHoistedBackward"
STREAMED = f"{NETS}::TestStreamedForward"
TIGHT = f"{NETS}::TestTightenedLoops"
SHOOT = f"{NETS}::TestShootingForward"
TRAINING = "tests/test_training.py"
BUFFER = f"{NETS}::TestFlatBuffer"
PER_ARRAY = f"{TRAINING}::TestTrain::test_whole_buffer_steps_match_per_array_steps"
GOLDEN = "tests/test_golden.py"

MUTANTS = [
    # the hoisted recurrent backward pass
    Mutant("lstm backward drops the dc_next term", "nets.py",
           "            dc += dc_next\n", "",
           (HOISTED, f"{NETS}::TestBackward")),
    Mutant("lstm backward takes C in place of C_prev", "nets.py",
           "dZg[:, 1] = C_prev * F * (1.0 - F)", "dZg[:, 1] = C * F * (1.0 - F)",
           (HOISTED, f"{NETS}::TestBackward")),
    Mutant("gru backward drops the s * r term", "nets.py",
           "            dh_next += np.multiply(s, r, buf)\n", "",
           (HOISTED, f"{NETS}::TestBackward")),
    Mutant("one gradient scaled by (1 + 1e-15)", "nets.py",
           'grads["cell.b"] += dZ.sum(axis=0)', 'grads["cell.b"] += dZ.sum(axis=0) * (1 + 1e-15)',
           (GOLDEN,)),
    Mutant("one gradient scaled by (1 + 1e-9)", "nets.py",
           'grads[f"dense{idx}.bias"] += dZ.sum(axis=0)',
           'grads[f"dense{idx}.bias"] += dZ.sum(axis=0) * (1 + 1e-9)',
           ("tests/test_complex_step.py",),
           survives=("tests/test_acceptance.py::test_c2_gradient_correctness",)),
    Mutant("gru candidate's u gradient against h_prev, not r * h_prev", "nets.py",
           'grads["cell.u"][2 * n:] += dZ[:, 2 * n:].T @ cache["RH"]',
           'grads["cell.u"][2 * n:] += dZ[:, 2 * n:].T @ H_prev',
           (f"{NETS}::TestBackward::test_finite_difference",)),
    # the tightened step loops and the tanh-form sigmoid
    Mutant("lstm sigmoid gate rows not scaled by 1/2", "nets.py",
           "half = np.where(np.arange(len(cell.b)) < m, 0.5, 1.0)",
           'half = np.where(np.arange(len(cell.b)) < (0 if cell.kind == "lstm" else m), 0.5, 1.0)',
           (TIGHT, f"{NETS}::TestCellStep")),
    Mutant("lstm forward writes its c cache one row late", "nets.py",
           "zip(A, A[:, :m], I, F, O, G, C, TC, H)", "zip(A, A[:, :m], I, F, O, G, C[1:], TC, H)",
           (TIGHT,)),
    Mutant("lstm backward walks K forward in time", "nets.py",
           "zip(dH[::-1], K[::-1], Q[::-1]", "zip(dH[::-1], K, Q[::-1]",
           (TIGHT, f"{NETS}::TestBackward")),
    Mutant("simplernn backward walks dH forward in time", "nets.py",
           "zip(dZ[::-1], dH[::-1])", "zip(dZ[::-1], dH)",
           (TIGHT, f"{NETS}::TestBackward")),
    Mutant("gru forward leaves its sigmoid gates at tanh(z/2) / 2", "nets.py",
           "            zr += 0.5\n            ht += np.dot(", "            ht += np.dot(",
           (TIGHT, f"{NETS}::TestCellStep")),
    Mutant("_sigmoid without the final + 1/2", "nets.py",
           "    s += 0.5\n    return s\n", "    return s\n",
           (f"{NETS}::TestSigmoid",)),
    # the streamed forward pass
    Mutant("c reset at every chunk boundary, only h carried", "nets.py",
           '            state = cache["state"]\n',
           '            state = cache["state"]\n'
           '            if model.cell.kind == "lstm":\n'
           '                state = (state[0], np.zeros_like(state[1]))\n',
           (STREAMED,)),
    Mutant("no state carried across chunks", "nets.py",
           'state = cache["state"]', "state = None",
           (STREAMED,)),
    Mutant("dropout masks redrawn per chunk", "nets.py",
           "_pass(model, x[start:stop], masks, state)",
           "_pass(model, x[start:stop], _dropout_masks(model, mode, rng), state)",
           (STREAMED,)),
    # the lanes of the shooting forward pass
    Mutant("lstm merge test compares h only", "nets.py",
           "same = check & (s.view(np.int64) == ends[g].view(np.int64)).all(axis=(1, 2))",
           "same = check & (s[:, 0].view(np.int64) == ends[g][:, 0].view(np.int64)).all(axis=1)",
           (SHOOT,)),
    Mutant("a correction pass starts each lane from its own end state", "nets.py",
           "s = ends[first[k:B] - 1]", "s = ends[first[k + 1:B + 1] - 1]",
           (SHOOT,)),
    Mutant("a merged lane's corrected outputs stop one slab short", "nets.py",
           "        out[idx] = y\n", "        out[idx] = np.where(np.tile(same, S), out[idx], y)\n",
           (SHOOT,)),
    Mutant("gru lanes leave their sigmoid gates at tanh(z/2) / 2", "nets.py",
           "            zr += 0.5\n            h = h_col", "            h = h_col",
           (SHOOT,)),
    Mutant("lstm lanes take the candidate gate through the sigmoid too", "nets.py",
           "np.where(sig, 0.5, 1.0), np.where(sig, 0.5, -0.0)", "0.5, 0.5",
           (SHOOT,)),
    Mutant("lane 0 starts from zero, not the carried state", "nets.py",
           "    if state is not None:\n        s[0] = state\n", "",
           (SHOOT,)),
    Mutant("the next pass skips the lane after the first unmerged one", "nets.py",
           "k = next((i + 1 for i in range(k, B)", "k = next((i + 2 for i in range(k, B)",
           (SHOOT,)),
    Mutant("backward lets an empty sequence through", "nets.py",
           "    if not len(x):\n", "    if False:\n",
           (f"{NETS}::TestBackward",)),
    Mutant("legacy per-gate checkpoints stacked in reverse gate order", "nets.py",
           'for g in GATES[kind]])', "for g in GATES[kind][::-1]])",
           (f"{NETS}::TestLegacyCheckpoint",)),
    # one parameter buffer per model, stepped whole by the optimizer
    Mutant("copy() without rebuilding the views", "nets.py",
           "replace(self, cell=copy.deepcopy(self.cell), dense=copy.deepcopy(self.dense))",
           "copy.deepcopy(self)",
           (BUFFER, GOLDEN)),
    Mutant("the clip sums every array but the last", "training.py",
           "for _, g in nets.param_arrays(model, grad))",
           "for _, g in nets.param_arrays(model, grad)[:-1])",
           (PER_ARRAY, GOLDEN)),
    Mutant("Adam drops its second bias correction", "training.py",
           "np.sqrt(self.v / correction2)", "np.sqrt(self.v)",
           (PER_ARRAY,)),
    # fit: train, then the threshold sweep on the same inputs
    Mutant("fit sweeps without the post filter", "training.py",
           "_pick_threshold(model, dataset, config.threshold_grid, post_filter)",
           "_pick_threshold(model, dataset, config.threshold_grid, None)",
           (f"{TRAINING}::TestFit",)),
    Mutant("fit sweeps the untrained model", "training.py",
           "    model, losses = train(model, dataset, config)\n",
           "    losses = train(model, dataset, config)[1]\n",
           (f"{TRAINING}::TestFit",)),
    # decisions, runs, morphology and the passage metric
    Mutant("'>' for '>=' in decide", "nets.py",
           "pred = (np.asarray(probs) >= threshold)", "pred = (np.asarray(probs) > threshold)",
           (f"{NETS}::TestDecide",)),
    Mutant("running max end replaced by the previous end", "passage_metric.py",
           "starts[1:] > np.maximum.accumulate(ends)[:-1]", "starts[1:] > ends[:-1]",
           ("tests/test_passage_metric.py::TestComponentTotals",)),
    Mutant("rows laid on top of each other (no row offset)", "passage_metric.py",
           "offset = rows * (ends.max(initial=0) - lo + 2) - lo", "offset = 0 * rows - lo",
           ("tests/test_passage_metric.py::TestComponentTotals",)),
    Mutant("a component with one reference or one detection counts as correct",
           "passage_metric.py",
           "correct = (n_refs == 1) & (n_dets == 1)", "correct = (n_refs == 1) | (n_dets == 1)",
           ("tests/test_passage_metric.py::TestComponentTotals",)),
    Mutant("PQ denominator off by one", "passage_metric.py",
           "return r / total if total > 0 else 1.0", "return r / (total + 1) if total > 0 else 1.0",
           ("tests/test_passage_metric.py::TestPassQuality",)),
    Mutant("closing gap rule off by one", "morphology.py",
           "starts[1:] - ends[:-1] - 1 >= k", "starts[1:] - ends[:-1] - 1 > k",
           ("tests/test_morphology.py::TestRunForm", "tests/test_morphology.py::TestOpenClose")),
    Mutant("opening built as a closing", "morphology.py",
           "return MorphFilterSpec(k, 1)(signal)", "return MorphFilterSpec(1, k)(signal)",
           ("tests/test_morphology.py::TestOpenClose",)),
    Mutant("closing merges runs across rows", "morphology.py",
           "(rows[1:] != rows[:-1]) | (starts[1:]", "(starts[1:]",
           ("tests/test_morphology.py::TestRunForm",)),
    # configs and input files
    Mutant("no unknown-key check", "config.py",
           "        if unknown:\n", "        if False:\n",
           ("tests/test_config.py",)),
    Mutant("nested configs not built from mappings", "config.py",
           "kwargs[name] = hint.from_dict(value)", "kwargs[name] = value",
           ("tests/test_config.py::TestNested",)),
    Mutant("frame field not checked for digits", "event_log.py",
           "if not (digits.isascii() and digits.isdigit() and len(digits) <= 19",
           "if not (len(digits) <= 19",
           ("tests/test_event_log.py::TestParse",)),
    Mutant("absent channels written as 1", "event_log.py",
           "zeros = np.zeros(n, dtype=np.uint8)", "zeros = np.ones(n, dtype=np.uint8)",
           ("tests/test_event_log.py",)),
    Mutant("the final model ignores final_hidden", "harness.py",
           "ModelSetting(\"final\", hidden=config.final_hidden",
           "ModelSetting(\"final\", hidden=16",
           ("tests/test_harness.py::TestConfig",)),
    Mutant("file errors other than OSError escape as tracebacks", "cli.py",
           "except (OSError, ValueError, KeyError, TypeError) as exc:",
           "except OSError as exc:",
           ("tests/test_cli.py::TestBadConfig", "tests/test_cli.py::TestBadInput")),
    Mutant("a diverged vpd train run ends in a traceback", "cli.py",
           "    except DivergenceError as exc:", "    except ZeroDivisionError as exc:",
           ("tests/test_cli.py::TestBadConfig::test_diverged_run",)),
    Mutant("a diverged vpd train run prints numpy's overflow warnings", "cli.py",
           'with np.errstate(over="ignore", invalid="ignore"):', "with np.errstate():",
           ("tests/test_cli.py::TestBadConfig::test_diverged_run_prints_one_line",)),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(tree: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or why the mutant could not be judged."""
    with tempfile.TemporaryDirectory(prefix="vpd-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        path = tree / "src" / "vpd" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"text found {text.count(mutant.old)} times, expected once"
        path.write_text(text.replace(mutant.old, mutant.new))
        if mutant.survives and _pytest(tree, mutant.survives) != 0:
            return "caught by a test it should survive"
        code = _pytest(tree, mutant.tests)
    return {0: "survived", 1: "killed"}.get(code, f"pytest exit code {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("-k", default="", help="run only mutants whose name contains this")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.k in m.name]
    tests = sorted({t for m in chosen for t in m.tests + m.survives})
    with tempfile.TemporaryDirectory(prefix="vpd-mutant-") as tmp:
        _copy_tree(Path(tmp))
        if _pytest(Path(tmp), tests) != 0:
            print("the listed tests do not all pass on the unmutated tree", file=sys.stderr)
            return 2
    killed = 0
    for mutant in chosen:
        start = time.perf_counter()
        verdict = run(mutant)
        killed += verdict == "killed"
        print(f"{verdict:>8}  {time.perf_counter() - start:5.1f} s  {mutant.name}", flush=True)
    print(f"killed {killed}/{len(chosen)}")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
