"""Imputation baselines: fill missing features, then run a plain GNN.

Three imputers (special label, neighborhood mean, feature propagation)
produce dense |V| x |F| matrices; DenseGnnModel consumes them directly,
or impute_then_grafenne re-sparsifies the result back into a HeteroGraph.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import tensor as T
from .graph import directed_edges
from .model import ModelBase

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
    src, dst = directed_edges(np.asarray(g.nodes, dtype=np.int64), g.edges)
    return sp.csr_matrix((np.ones(len(src)), (dst, src)), shape=(n, n))


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


def feature_propagation(g, iterations=40, feature_ids=None):
    """Diffuse observed values through the symmetric-normalized adjacency.

    Missing entries start at 0 and take the diffusion value; observed
    entries are re-clamped after every iteration, so they are exactly
    preserved. Isolated nodes receive no diffusion.
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


class DenseGnnModel(ModelBase):
    """Plain L-layer GNN over the original edges with h^0 = dense features.

    Each layer is GRAFENNE's phase-2 backbone; the first maps |F| -> d,
    so the parameter count grows with the feature universe (unlike the
    allotropic model, whose only |F|-dependent state is the embedding
    table).
    """

    def __init__(self, config, in_dim, num_classes=None):
        super().__init__(config, num_classes)
        self.in_dim = int(in_dim)
        rng = np.random.default_rng([config.seed, 17])
        for l in range(config.layers):
            self._add_backbone(rng, f"layer{l}", self.in_dim if l == 0 else config.dim)
        self._add_head(rng, num_classes)

    def forward(self, g, dense):
        if dense.values.shape[1] != self.in_dim:
            raise ValueError(
                f"dense feature width {dense.values.shape[1]} does not match "
                f"first-layer weights built for {self.in_dim} features")
        src, dst = directed_edges(np.asarray(g.nodes, dtype=np.int64), g.edges)
        h = T.Tensor(dense.values)
        for l in range(self.config.layers):
            h = self._backbone(f"layer{l}", h, src, dst, g.num_nodes)
        return h
