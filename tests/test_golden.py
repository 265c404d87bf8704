"""Golden outputs: the runs of scripts/make_golden.py, recomputed and
compared bit for bit with tests/golden.npz.

A mismatch reports the largest absolute and relative drift of every array
that moved. BLAS and SIMD kernels can round differently on another
machine, so the file records the NumPy and SciPy versions and the CPU
features it was written with, and a report says when they differ here.
"""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _make_golden():
    spec = importlib.util.spec_from_file_location("make_golden",
                                                  ROOT / "scripts" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def drift(want, got):
    """(largest absolute, largest relative) difference of two same-shape arrays."""
    want, got = np.asarray(want, dtype=np.float64), np.asarray(got, dtype=np.float64)
    diff = np.abs(want - got)
    rel = diff / np.maximum(np.abs(want), np.finfo(np.float64).tiny)
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def test_golden_outputs():
    make_golden = _make_golden()
    with np.load(make_golden.GOLDEN) as stored:
        want = {k: stored[k] for k in stored.files}
    recorded = {k[len("meta/"):]: str(want.pop(k)) for k in list(want) if k.startswith("meta/")}
    here = make_golden.environment()
    changed_env = [f"{k}: written with {recorded.get(k)!r}, here {v!r}"
                   for k, v in here.items() if recorded.get(k) != v]

    got = make_golden.golden_arrays()
    problems = [f"{k}: missing from this run" for k in sorted(want.keys() - got.keys())]
    problems += [f"{k}: not in the golden file" for k in sorted(got.keys() - want.keys())]
    for k in sorted(want.keys() & got.keys()):
        a, b = want[k], got[k]
        if a.shape != b.shape:
            problems.append(f"{k}: shape {a.shape} -> {b.shape}")
        elif not np.array_equal(a, b):
            abs_d, rel_d = drift(a, b)
            problems.append(f"{k}: max abs drift {abs_d:.3e}, max rel drift {rel_d:.3e}")
    if problems:
        env = ("environment differs from the one that wrote the file:\n  "
               + "\n  ".join(changed_env) if changed_env
               else "environment matches the one that wrote the file")
        pytest.fail(f"{len(problems)} of {len(want)} golden arrays differ ({env}):\n  "
                    + "\n  ".join(problems[:40]))
    if changed_env:
        warnings.warn("golden outputs match, though written in another environment: "
                      + "; ".join(changed_env))
