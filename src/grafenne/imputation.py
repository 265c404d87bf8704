"""Imputation baselines: fill missing features, then run a plain GNN.

Three imputers (special label, neighborhood mean, feature propagation)
produce dense |V| x |F| matrices; DenseGnnModel consumes them directly,
or impute_then_grafenne re-sparsifies the result back into a HeteroGraph.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import tensor as T
from .graph import HeteroGraph, adjacency
from .model import GrafenneConfig, gat_layer, gin_layer, glorot, sage_layer

RESPARSIFY_EPS = 1e-8


@dataclass(frozen=True, eq=False)
class DenseFeatures:
    """Dense feature matrix plus observed-entry mask.

    Rows follow node_ids order, columns follow feat_ids order; mask is True
    exactly where the sparse map had an entry.
    """

    values: np.ndarray
    mask: np.ndarray
    node_ids: tuple
    feat_ids: tuple

    @property
    def node_row(self):
        return {v: i for i, v in enumerate(self.node_ids)}

    @property
    def feat_col(self):
        return {f: j for j, f in enumerate(self.feat_ids)}


def _expand(g, feature_ids=None):
    node_ids = g.nodes
    feat_ids = tuple(feature_ids) if feature_ids is not None else g.feature_ids()
    col = {f: j for j, f in enumerate(feat_ids)}
    vals = np.zeros((len(node_ids), len(feat_ids)))
    mask = np.zeros_like(vals, dtype=bool)
    for i, v in enumerate(node_ids):
        for f, x in g.node_feats(v).items():
            if f in col:
                vals[i, col[f]] = x
                mask[i, col[f]] = True
    return vals, mask, node_ids, feat_ids


def _adjacency_matrix(g):
    n = g.num_nodes
    row_of = {v: i for i, v in enumerate(g.nodes)}
    rows, cols = [], []
    for u, v in g.edges:
        rows += [row_of[u], row_of[v]]
        cols += [row_of[v], row_of[u]]
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def impute_special_label(g, sentinel=0.0, feature_ids=None):
    """Missing entries get the sentinel; observed entries are copied."""
    vals, mask, node_ids, feat_ids = _expand(g, feature_ids)
    vals[~mask] = sentinel
    return DenseFeatures(vals, mask, node_ids, feat_ids)


def impute_neighborhood_mean(g, feature_ids=None):
    """Missing (v, f) <- mean of observed f over v's graph neighbors,
    falling back to the global observed mean of f, then to 0."""
    vals, mask, node_ids, feat_ids = _expand(g, feature_ids)
    if vals.size == 0:
        return DenseFeatures(vals, mask, node_ids, feat_ids)
    a = _adjacency_matrix(g)
    mask_f = mask.astype(np.float64)
    nbr_sum = a @ (vals * mask_f)
    nbr_cnt = a @ mask_f
    col_cnt = mask_f.sum(axis=0)
    col_mean = np.divide(vals.sum(axis=0), col_cnt, out=np.zeros(len(feat_ids)),
                         where=col_cnt > 0)
    fallback = np.broadcast_to(col_mean, vals.shape)
    nbr_mean = np.divide(nbr_sum, nbr_cnt, out=np.array(fallback), where=nbr_cnt > 0)
    out = np.where(mask, vals, nbr_mean)
    return DenseFeatures(out, mask, node_ids, feat_ids)


def feature_propagation(g, iterations=40, clamp=True, feature_ids=None):
    """Diffuse observed values through the symmetric-normalized adjacency.

    Missing entries start at 0 and take the diffusion value; observed
    entries are re-clamped after every iteration (clamp=True), so they
    are exactly preserved. Isolated nodes receive no diffusion.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    vals, mask, node_ids, feat_ids = _expand(g, feature_ids)
    if vals.size == 0:
        return DenseFeatures(vals, mask, node_ids, feat_ids)
    a = _adjacency_matrix(g)
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg), where=deg > 0)
    a_hat = sp.diags(inv_sqrt) @ a @ sp.diags(inv_sqrt)
    observed = np.where(mask, vals, 0.0)
    x = observed.copy()
    for _ in range(iterations):
        x = a_hat @ x
        if clamp:
            x[mask] = observed[mask]
    if clamp:
        x[mask] = observed[mask]
    return DenseFeatures(x, mask, node_ids, feat_ids)


def impute_then_grafenne(g, method, iterations=40):
    """Re-sparsify an NM/FP imputation into a new HeteroGraph (entries with
    |value| < 1e-8 dropped), ready for the allotropic pipeline."""
    method = method.lower()
    if method == "nm":
        dense = impute_neighborhood_mean(g)
    elif method == "fp":
        dense = feature_propagation(g, iterations=iterations)
    else:
        raise ValueError(f"unknown imputation method {method!r}")
    rows, cols = np.nonzero(np.abs(dense.values) >= RESPARSIFY_EPS)  # row-major
    fids = np.asarray(dense.feat_ids, dtype=np.int64)[cols].tolist()
    values = dense.values[rows, cols].tolist()
    bounds = np.searchsorted(rows, np.arange(len(dense.node_ids) + 1)).tolist()
    feats = {v: dict(zip(fids[lo:hi], values[lo:hi]))
             for v, lo, hi in zip(dense.node_ids, bounds[:-1], bounds[1:]) if lo < hi}
    return g.replace(feats=feats)


class DenseGnnModel:
    """Plain L-layer GNN over the original edges with h^0 = dense features.

    Backends mirror the phase-2 variants; the first layer maps |F| -> d,
    so the parameter count grows with the feature universe (unlike the
    allotropic model, whose only |F|-dependent state is the embedding
    table).
    """

    def __init__(self, config, in_dim, num_classes=None):
        config.validate()
        self.config = config
        self.in_dim = int(in_dim)
        self.num_classes = num_classes
        self.params = {}
        rng = np.random.default_rng([config.seed, 17])
        d = config.dim
        for l in range(config.layers):
            d_in = self.in_dim if l == 0 else d
            pre = f"layer{l}"
            if config.phase2 == "sage":
                self._add(rng, f"{pre}/W", (d_in + d_in, d))
            elif config.phase2 == "gat":
                self._add(rng, f"{pre}/W13", (d_in, d))
                self._add(rng, f"{pre}/W14", (d_in, d))
                self._add(rng, f"{pre}/w15", (2 * d,))
                self._add(rng, f"{pre}/W16", (d_in, d))
            else:
                self._add(rng, f"{pre}/mlp/A0", (d_in, d))
                self.params[f"{pre}/mlp/b0"] = T.Parameter(np.zeros(d), f"{pre}/mlp/b0")
                self._add(rng, f"{pre}/mlp/A1", (d, d))
                self.params[f"{pre}/mlp/b1"] = T.Parameter(np.zeros(d), f"{pre}/mlp/b1")
                self.params[f"{pre}/epsilon"] = T.Parameter(
                    np.asarray(config.gin_epsilon), f"{pre}/epsilon")
        if num_classes is not None:
            self._add(rng, "head/W", (d, num_classes))
            self.params["head/b"] = T.Parameter(np.zeros(num_classes), "head/b")

    def _add(self, rng, name, shape):
        self.params[name] = T.Parameter(glorot(rng, shape), name)

    def trainable_parameters(self):
        return [self.params[k] for k in sorted(self.params)]

    def parameter_count(self):
        return sum(p.values.size for p in self.params.values())

    def _act(self, x):
        return T.leaky_relu(x, self.config.leaky_slope)

    def _edge_arrays(self, g):
        row_of = {v: i for i, v in enumerate(g.nodes)}
        und = [(row_of[u], row_of[v]) for u, v in g.edges]
        src = np.array([u for u, v in und] + [v for u, v in und], dtype=np.int64)
        dst = np.array([v for u, v in und] + [u for u, v in und], dtype=np.int64)
        order = np.lexsort((src, dst))
        return src[order], dst[order]

    def forward(self, g, dense):
        if dense.values.shape[1] != self.in_dim:
            raise ValueError(
                f"dense feature width {dense.values.shape[1]} does not match "
                f"first-layer weights built for {self.in_dim} features")
        src, dst = self._edge_arrays(g)
        n = g.num_nodes
        h = T.Tensor(dense.values)
        for l in range(self.config.layers):
            h = self._layer(l, h, src, dst, n)
        return h

    def _layer(self, l, h, src, dst, n):
        p = self.params
        pre = f"layer{l}"
        backend = self.config.phase2
        if backend == "sage":
            return sage_layer(h, src, dst, n, p[f"{pre}/W"])
        if backend == "gat":
            return gat_layer(h, src, dst, n, p[f"{pre}/W13"], p[f"{pre}/W14"],
                             p[f"{pre}/w15"], p[f"{pre}/W16"], self._act)
        weights = [p[f"{pre}/mlp/A0"], p[f"{pre}/mlp/b0"], p[f"{pre}/mlp/A1"], p[f"{pre}/mlp/b1"]]
        return gin_layer(h, src, dst, n, p[f"{pre}/epsilon"], weights, self._act)

    def logits(self, h):
        if self.num_classes is None:
            raise ValueError("model built without a classification head")
        return T.add(T.matmul(h, self.params["head/W"]), self.params["head/b"])


def dense_gnn_forward(g, dense, backend="sage", L=2, dim=64, seed=0, model=None):
    """Forward pass of the plain-GNN baseline; builds a fresh seeded model
    unless one is passed in."""
    if model is None:
        cfg = GrafenneConfig(layers=L, dim=dim, phase2=backend, seed=seed)
        model = DenseGnnModel(cfg, in_dim=len(dense.feat_ids))
    return model.forward(g, dense)
