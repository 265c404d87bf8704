"""Imputation baselines: fill missing features, then run a plain GNN.

Three imputers (special label, neighborhood mean, feature propagation)
produce dense |V| x |F| matrices; DenseGnnModel consumes them directly,
or resparsify turns the result back into a HeteroGraph.
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


def _expand(g):
    node_ids, feat_ids = g.nodes, g.feature_ids()
    rows = np.searchsorted(g.node_array, g.feat_node)
    cols = np.searchsorted(np.asarray(feat_ids, dtype=np.int64), g.feat_id)
    vals = np.zeros((len(node_ids), len(feat_ids)))
    mask = np.zeros_like(vals, dtype=bool)
    vals[rows, cols] = g.feat_value
    mask[rows, cols] = True
    return vals, mask, node_ids, feat_ids


def _layout(g):
    """g's edges both ways over the rows of g.nodes (once per graph: g.derived)."""
    return directed_edges(g.node_array, g.edge_array)


def _adjacency_matrix(g):
    e = g.derived(_layout)
    return sp.csr_matrix((np.ones(len(e)), e.src, e.indptr), shape=e.shape)


def impute_special_label(g):
    """Missing entries get the special value 0; observed entries are copied."""
    return DenseFeatures(*_expand(g))


def impute_neighborhood_mean(g):
    """Missing (v, f) <- mean of observed f over v's graph neighbors,
    falling back to the global observed mean of f."""
    vals, mask, node_ids, feat_ids = _expand(g)
    a = _adjacency_matrix(g)
    mask_f = mask.astype(np.float64)
    nbr_sum = a @ (vals * mask_f)
    nbr_cnt = a @ mask_f
    col_mean = vals.sum(axis=0) / mask_f.sum(axis=0)  # every column is observed
    fallback = np.broadcast_to(col_mean, vals.shape)
    nbr_mean = np.divide(nbr_sum, nbr_cnt, out=np.array(fallback), where=nbr_cnt > 0)
    out = np.where(mask, vals, nbr_mean)
    return DenseFeatures(out, mask, node_ids, feat_ids)


def feature_propagation(g, iterations=40):
    """Diffuse observed values through the symmetric-normalized adjacency.

    Missing entries start at 0 and take the diffusion value; observed
    entries are re-clamped after every iteration, so they are exactly
    preserved. Isolated nodes receive no diffusion.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    vals, mask, node_ids, feat_ids = _expand(g)
    a = _adjacency_matrix(g)
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg), where=deg > 0)
    a_hat = sp.diags(inv_sqrt) @ a @ sp.diags(inv_sqrt)
    # the observed entries' flat positions and values, gathered once
    at = np.flatnonzero(mask)
    observed = vals.ravel()[at]
    x = np.where(mask, vals, 0.0)
    for _ in range(iterations):
        x = a_hat @ x
        np.put(x, at, observed)
    return DenseFeatures(x, mask, node_ids, feat_ids)


def resparsify(g, dense):
    """g with its features replaced by the entries of the imputation
    `dense` with |value| >= 1e-8, ready for the allotropic pipeline."""
    rows, cols = np.nonzero(np.abs(dense.values) >= RESPARSIFY_EPS)  # row-major
    return g.replace(feats=(np.asarray(dense.node_ids, dtype=np.int64)[rows],
                            np.asarray(dense.feat_ids, dtype=np.int64)[cols],
                            dense.values[rows, cols]))


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

    def forward(self, edges, x):
        """Node states from dense_inputs' edge layout and input tensor."""
        if x.shape[1] != self.in_dim:
            raise ValueError(
                f"dense feature width {x.shape[1]} does not match "
                f"first-layer weights built for {self.in_dim} features")
        for l in range(self.config.layers):
            x = self._backbone(f"layer{l}", x, edges)
        return x


def dense_inputs(g, dense):
    """(edge layout, input tensor) of DenseGnnModel.forward over g, built
    once per graph so every forward reuses the layout's sparse matrices."""
    return g.derived(_layout), T.Tensor(dense.values)
