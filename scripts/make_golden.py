#!/usr/bin/env python3
"""Golden outputs: every number of a fixed set of short runs, which
tests/test_golden.py recomputes and compares bit for bit.

    python3 scripts/make_golden.py              # rewrites tests/golden.npz

The runs go through public entry points only: method_model + train for
every method on two graphs, with and without sampling caps; link
prediction; run_stream for every strategy on a c11-sized graph over a
short stream; and the feature-recovery probe of tests/probe.py.
Regenerating the file is a numerics change: the change that does it
states the drift the test reported, and why.
"""

import argparse
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from grafenne.continual import STRATEGIES, StreamConfig, run_stream
from grafenne.graph import apply_missing_mask, load_graph, make_split
from grafenne.stream import generate_stream
from grafenne.synth import make_community_graph
from grafenne.tasks import METHODS, TrainConfig, make_link_split, method_model, train
from probe import recovery_probe

GOLDEN = ROOT / "tests" / "golden.npz"
CAPS = ((0, 0, 0), (3, 5, 2))
LINK_METHODS = ("grafenne", "sage", "vanilla_alt")


def _graphs():
    toy = ROOT / "data" / "toy"
    community = make_community_graph(n=60, classes=3, feats_per_class=4, p_in=0.2,
                                     p_out=0.02, density=0.7, noise=0.05, seed=5)
    return {"toy": load_graph(toy / "edges.tsv", toy / "features.tsv", toy / "labels.tsv"),
            "community": apply_missing_mask(community, 0.3, seed=1)}


def _put_params(out, key, model):
    # one array per run: a zip entry per parameter would outweigh the values
    out[f"{key}/params"] = np.concatenate([p.values.ravel()
                                           for p in model.trainable_parameters()])


def _static(out):
    cfg = TrainConfig(epochs=4, lr=0.01, seeds=(0,), patience=4)
    for gname, g in _graphs().items():
        split = make_split(g, seed=0)
        for method in METHODS:
            # only GrafenneModel reads the sampling caps
            for caps in CAPS if "grafenne" in method else CAPS[:1]:
                model, forward = method_model(method, g, cfg.task, dim=4, layers=2, seed=0,
                                              fp_iterations=10, caps=caps)
                res = train(model, g, split, cfg, forward, record_history=True)
                key = f"static/{gname}/{method}/caps{'-'.join(map(str, caps))}"
                out[f"{key}/history"] = np.array(res.history)
                out[f"{key}/accuracy"] = np.array(res.values[0])
                _put_params(out, key, model)


def _link(out):
    g = _graphs()["community"]
    cfg = TrainConfig(task="link_prediction", epochs=4, lr=0.01, seeds=(0,), patience=4)
    split = make_link_split(g, seed=0)
    for method in LINK_METHODS:
        model, forward = method_model(method, split.graph, cfg.task, dim=4, layers=2, seed=0)
        res = train(model, g, split, cfg, forward, record_history=True)
        out[f"link/{method}/history"] = np.array(res.history)
        out[f"link/{method}/aucroc"] = np.array(res.values[0])


def _stream(out):
    # the c11 graph and stream probabilities, over two timestamps
    g = make_community_graph(n=500, classes=4, feats_per_class=6, p_in=0.02,
                             p_out=0.004, density=0.45, noise=0.15, seed=1)
    deltas = generate_stream(g, T=2, p_n=0.03, p_f_add=0.05, p_f_del=0.4,
                             p_e_add=0.0005, p_e_del=0.0005, seed=7)
    cfg = StreamConfig(epochs=20, stream_epochs=10, lr=0.01, u_size=25, dim=8,
                       layers=2, seed=0)
    for strategy in STRATEGIES:
        records, model = run_stream(g, deltas, strategy, cfg)
        out[f"stream/{strategy}/accuracy"] = np.array([r.accuracy for r in records])
        out[f"stream/{strategy}/params_changed"] = np.array(
            [r.params_changed for r in records])
        _put_params(out, f"stream/{strategy}", model)


def golden_arrays():
    """Name -> array of every compared output."""
    out = {}
    _static(out)
    _link(out)
    _stream(out)
    out["recovery/mse"] = np.array(recovery_probe(d=3, trials=64, seed=0, epochs=30))
    return out


def environment():
    """What float results can depend on besides the code: library
    versions, and the CPU features NumPy dispatches its kernels on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            "cpu": " ".join(sorted(k for k, on in __cpu_features__.items() if on))}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(GOLDEN), help=f"npz path (default {GOLDEN})")
    args = ap.parse_args()
    arrays = golden_arrays()
    meta = {f"meta/{k}": np.array(v) for k, v in environment().items()}
    np.savez_compressed(args.out, **arrays, **meta)
    print(f"wrote {len(arrays)} arrays to {args.out}")


if __name__ == "__main__":
    main()
