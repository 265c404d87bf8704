"""Correctness checks, run outside the timed regions.

Each check compares the program's output with a computation made apart
from it (the per-node reference in tests/naive_ref.py, a SciPy diffusion,
plain set operations) or tests a property the method must have. A check
returns a list of failure messages; an empty list means it passed.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

FORWARD_TOL = 1e-9

_naive = None


def naive_ref():
    """tests/naive_ref.py, the per-node reference forward of the layer."""
    global _naive
    if _naive is None:
        path = Path(__file__).resolve().parent.parent / "tests" / "naive_ref.py"
        spec = importlib.util.spec_from_file_location("naive_ref", path)
        _naive = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(_naive)
    return _naive


def forward_matches_reference(label, model, g, alt, hg, hf):
    """The vectorised forward equals the per-node reference within 1e-9."""
    ref_g, ref_f = naive_ref().naive_forward(model, g)
    want_g = np.stack([ref_g[int(v)] for v in alt.node_ids])
    want_f = (np.stack([ref_f[int(f)] for f in alt.feat_ids]) if alt.m
              else np.zeros((0, model.config.dim)))
    errors = []
    for part, got, want in (("graph", hg.values, want_g), ("feature", hf.values, want_f)):
        if got.shape != want.shape:
            errors.append(f"{label}: {part} states shape {got.shape} != reference {want.shape}")
            continue
        diff = float(np.max(np.abs(got - want))) if got.size else 0.0
        if not diff <= FORWARD_TOL:
            errors.append(f"{label}: {part} states differ from the reference by {diff:.3g}")
    return errors


def at_least(label, value, floor):
    if not (math.isfinite(value) and value >= floor):
        return [f"{label} = {value!r}, expected >= {floor:.3f}"]
    return []


def clamped_diffusion(g, iterations):
    """Feature propagation recomputed from the graph's edge and feature
    sets: x <- D^-1/2 A D^-1/2 x, observed entries reset every step."""
    n = g.num_nodes
    row = {v: i for i, v in enumerate(g.nodes)}
    feats = g.feature_ids()
    col = {f: j for j, f in enumerate(feats)}
    e = np.array([(row[u], row[v]) for u, v in g.edges], dtype=np.int64).reshape(-1, 2)
    a = sp.coo_matrix((np.ones(2 * len(e)), (np.r_[e[:, 0], e[:, 1]], np.r_[e[:, 1], e[:, 0]])),
                      shape=(n, n)).tocsr()
    deg = np.asarray(a.sum(axis=1)).ravel()
    scale = np.zeros(n)
    scale[deg > 0] = deg[deg > 0] ** -0.5
    norm = sp.diags(scale) @ a @ sp.diags(scale)
    observed = np.zeros((n, len(feats)))
    mask = np.zeros(observed.shape, dtype=bool)
    for v, fmap in g.feats.items():
        for f, w in fmap.items():
            observed[row[v], col[f]] = w
            mask[row[v], col[f]] = True
    x = observed.copy()
    for _ in range(iterations):
        x = norm @ x
        x[mask] = observed[mask]
    return x


def feature_propagation_matches(dense, g, iterations):
    want = clamped_diffusion(g, iterations)
    if dense.values.shape != want.shape:
        return [f"feature_propagation shape {dense.values.shape} != {want.shape}"]
    diff = float(np.max(np.abs(dense.values - want))) if want.size else 0.0
    if not diff <= 1e-9:
        return [f"feature_propagation differs from the SciPy recomputation by {diff:.3g}"]
    return []


class SetGraph:
    """Snapshot state kept with plain Python sets, for the stream check."""

    def __init__(self, g):
        self.nodes = set(g.nodes)
        self.edges = set(g.edges)
        self.feats = {(v, f): w for v, fmap in g.feats.items() for f, w in fmap.items()}
        self.labels = dict(g.labels)

    def apply(self, delta):
        errors = []
        for u, v in delta.del_edges:
            e = (min(u, v), max(u, v))
            if e not in self.edges:
                errors.append(f"t={delta.t}: deletes absent edge {e}")
            self.edges.discard(e)
        for v, f in delta.del_feats:
            if (v, f) not in self.feats:
                errors.append(f"t={delta.t}: deletes absent feature {(v, f)}")
            self.feats.pop((v, f), None)
        for v in delta.del_nodes:
            self.nodes.discard(v)
            self.labels.pop(v, None)
            self.edges = {e for e in self.edges if v not in e}
            self.feats = {k: w for k, w in self.feats.items() if k[0] != v}
        for v, label in delta.add_nodes:
            self.nodes.add(v)
            if label is not None:
                self.labels[v] = label
        for u, v in delta.add_edges:
            e = (min(u, v), max(u, v))
            if e in self.edges:
                errors.append(f"t={delta.t}: adds present edge {e}")
            self.edges.add(e)
        for v, f, w in delta.add_feats:
            if (v, f) in self.feats:
                errors.append(f"t={delta.t}: adds present feature {(v, f)}")
            self.feats[(v, f)] = w
        return errors

    def differences(self, g, t):
        feats = {(v, f): w for v, fmap in g.feats.items() for f, w in fmap.items()}
        errors = []
        for part, got, want in (("nodes", set(g.nodes), self.nodes),
                                ("edges", set(g.edges), self.edges),
                                ("features", feats, self.feats),
                                ("labels", g.labels, self.labels)):
            if got != want:
                errors.append(f"t={t}: snapshot {part} differ from the set-operation replay")
        return errors


def touched_nodes(delta):
    """Nodes a delta touches, read from the delta's own fields."""
    nodes = {v for v, _ in delta.add_nodes} | set(delta.del_nodes)
    for u, v in delta.add_edges + delta.del_edges:
        nodes.update((u, v))
    nodes.update(v for v, _, _ in delta.add_feats)
    nodes.update(v for v, _ in delta.del_feats)
    return nodes
