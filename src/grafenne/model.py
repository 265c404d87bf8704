"""The GRAFENNE model: per layer, (1) feature nodes message their graph
nodes through attention, (2) graph nodes exchange along original edges via
a pluggable backend (SAGE/GAT/GIN), (3) graph nodes message back to
feature nodes. Graph nodes start at zero, feature nodes at learnable
embeddings, so parameter count is independent of node and feature counts.
Every output reads the graph-node states alone, so the last layer has no
phase 3: neither its parameters nor its computation exist. A zero state
projects to zero, so layer 0's phase 1 has no self part either: its
combine reads the aggregate alone, and no graph state exists before it.

Phases 1 and 3 are _attend with graph and feature roles swapped, around
tensor.attention, the GAT backbone's attention too. LeakyReLU, of the one
slope tensor.LEAKY_SLOPE, acts elementwise, so the paper's score
w . LR(h_v W_dst || h_u W_src || x_uv w_e) of an edge u -> v is a sum of
three terms, and the softmax over v's edges cancels the h_v one: no model
builds it. The edge channel uses LR's positive homogeneity,
LR(x w) = |x| LR(sign(x) w), so it costs two d-vector scores and one
per-edge vector. Every
aggregation is one tape node over a graph.Edges layout, so no (edges, d)
tensor is ever materialized: an attention, projections, scores, softmax
per destination and weighted sum, is tensor.attention, a SAGE layer
tensor.sage, GIN's unweighted neighbour sum tensor.spmm, and every MLP,
the head included, tensor.mlp. The layouts, their sparse matrices and
what the layers derive from them (split edge weights, GAT's self-loops,
SAGE's degrees, the vanilla joint graph and its graph-node rows) are
built once per graph, through Edges.derived and AllotropicGraph.derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .graph import by_destination

_PHASE2 = ("sage", "gat", "gin")
GIN_EPSILON = 0.0  # initial value of GIN's learnable epsilon

# attention parameters: src score, edge vector, attention vector, self, message
_ATTEND_PARAMS = {"p1": ("W2", "w3", "w4", "W5", "W6"),
                  "p3": ("W8", "w9", "w10", "W11", "W12")}


@dataclass
class GrafenneConfig:
    layers: int = 2
    dim: int = 64
    phase2: str = "sage"
    cap_features: int = 0  # max feature neighbors per graph node (phase 1)
    cap_nodes: int = 0     # max graph nodes per feature node (phase 3)
    cap_graph: int = 0     # max graph neighbors per node (phase 2)
    seed: int = 0

    def validate(self):
        if self.layers < 1:
            raise ValueError(f"layers={self.layers} < 1")
        if self.dim < 1:
            raise ValueError(f"dim={self.dim} < 1")
        if self.phase2 not in _PHASE2:
            raise ValueError(f"phase2 must be one of {_PHASE2}, got {self.phase2!r}")
        if min(self.cap_features, self.cap_nodes, self.cap_graph) < 0:
            raise ValueError("sampling caps must be >= 0")
        return self


def glorot(rng, shape):
    fan_in = shape[0]
    fan_out = shape[1] if len(shape) > 1 else 1
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# a per-process memo of at most 2^14 rows, least recently used out first;
# a row costs its 8 * dim bytes plus about 300 for its array header, key
# and cache entry, so the memo holds at most 12.7 MiB at dim 64
@lru_cache(maxsize=1 << 14)
def _embedding_row(seed, dim, f):
    """The initial embedding of feature f in a table of width dim and seed
    `seed`, drawn from (seed, 13, f) once per process and kept read-only:
    a grid's models of one seed and dim share their rows' draws."""
    row = np.random.default_rng([seed, 13, f]).normal(0.0, 1.0 / np.sqrt(dim), size=dim)
    row.flags.writeable = False
    return row


class FeatureEmbeddingTable:
    """feature id -> learnable d-vector, stored as row `row[f]` of the one
    Parameter `weight`. Rows are appended when a feature is first seen and
    never removed or reordered; each is drawn from (seed, feature id), so
    it does not depend on the order features were first seen."""

    def __init__(self, dim, seed):
        self.dim = dim
        self.seed = seed
        self.weight = T.Parameter(np.zeros((0, dim)), "feat_embed")
        self.row = {}

    def ensure(self, feat_ids):
        """Append a row for every id without one. weight.values is rebound
        to a fresh stack, not written in place, so live tapes keep their
        forward arrays and no table shares the memo's rows."""
        draws = []
        for f in feat_ids:
            if f not in self.row:
                f = int(f)
                self.row[f] = len(self.row)
                draws.append(_embedding_row(self.seed, self.dim, f))
        if draws:
            self.weight.values = np.vstack([self.weight.values, *draws])


def init_states(alt, table):
    """Layer-0 feature states, the embedding rows; graph nodes start at
    zero, which layer 0's phase 1 never reads."""
    ids = alt.feat_ids.tolist()
    table.ensure(ids)
    return T.gather_rows(table.weight, [table.row[f] for f in ids])


def _capped(edges, cap, rng):
    """At most cap edges into each destination, drawn by rng in
    destination order; edges itself when no cap binds (rng may then be
    None)."""
    if cap <= 0:
        return edges
    counts = np.diff(edges.indptr)
    if (counts <= cap).all():
        return edges
    keep = [start + np.sort(rng.choice(c, size=cap, replace=False)) if c > cap
            else np.arange(start, start + c)
            for start, c in zip(edges.indptr[:-1], counts) if c]
    return edges.take(np.concatenate(keep))


class ModelBase:
    """What GrafenneModel, VanillaAltModel and DenseGnnModel share: named
    parameters, each one glorot draw of its own shape from a seeded RNG in
    construction order, the SAGE/GAT/GIN backbone and the linear head.
    forward and GRAFENNE's _phase1/2/3 stay in each model's own class
    body, where bench/tracing.py looks them up to time them."""

    table = None  # FeatureEmbeddingTable, where a model has one

    def __init__(self, config, num_classes):
        self.config = config.validate()
        self.num_classes = num_classes
        self.params = {}

    def _add(self, rng, name, shape):
        assert name not in self.params, name
        self.params[name] = T.Parameter(glorot(rng, shape), name)

    def _add_zeros(self, name, size):
        self.params[name] = T.Parameter(np.zeros(size), name)

    def _add_mlp(self, rng, prefix, d_in, d_out):
        self._add(rng, f"{prefix}/A0", (d_in, d_out))
        self._add_zeros(f"{prefix}/b0", d_out)
        self._add(rng, f"{prefix}/A1", (d_out, d_out))
        self._add_zeros(f"{prefix}/b1", d_out)

    def _mlp_params(self, prefix):
        p = self.params
        return [p[f"{prefix}/A0"], p[f"{prefix}/b0"], p[f"{prefix}/A1"], p[f"{prefix}/b1"]]

    def _add_head(self, rng, num_classes):
        if num_classes is not None:
            self._add(rng, "head/W", (self.config.dim, num_classes))
            self._add_zeros("head/b", num_classes)

    def _add_backbone(self, rng, prefix, d_in):
        """Parameters of one SAGE/GAT/GIN layer d_in -> dim."""
        d = self.config.dim
        backend = self.config.phase2
        if backend == "sage":
            self._add(rng, f"{prefix}/W13", (2 * d_in, d))
        elif backend == "gat":
            self._add(rng, f"{prefix}/W14", (d_in, d))
            self._add(rng, f"{prefix}/w15", (d,))
            self._add(rng, f"{prefix}/W16", (d_in, d))
        else:  # gin
            self._add_mlp(rng, f"{prefix}/mlp", d_in, d)
            self.params[f"{prefix}/epsilon"] = T.Parameter(
                np.array(GIN_EPSILON), f"{prefix}/epsilon")

    def _backbone(self, prefix, h, edges):
        """One SAGE/GAT/GIN layer over the Edges layout `edges`."""
        p = self.params
        backend = self.config.phase2
        if backend == "sage":
            return sage_layer(h, edges, p[f"{prefix}/W13"])
        if backend == "gat":  # attention over in-neighbours plus a self-loop
            return T.attention(h, edges.derived(_self_looped), p[f"{prefix}/W14"],
                               p[f"{prefix}/w15"], p[f"{prefix}/W16"])
        return gin_layer(h, edges, p[f"{prefix}/epsilon"], self._mlp_params(f"{prefix}/mlp"))

    def trainable_parameters(self):
        """Every parameter; the list is fixed from construction on."""
        table = [self.table.weight] if self.table is not None else []
        return list(self.params.values()) + table

    def logits(self, h):
        if self.num_classes is None:
            raise ValueError("model built without a classification head")
        return T.mlp(h, [self.params["head/W"], self.params["head/b"]])


class GrafenneModel(ModelBase):
    def __init__(self, config, num_classes=None):
        super().__init__(config, num_classes)
        self.table = FeatureEmbeddingTable(config.dim, config.seed)
        rng = np.random.default_rng([config.seed, 11])
        for l in range(config.layers):
            self._add_attention(rng, l, "p1")
            self._add_backbone(rng, f"layer{l}/p2", config.dim)
            if l < config.layers - 1:  # no output reads the last layer's phase 3
                self._add_attention(rng, l, "p3")
        self._add_head(rng, num_classes)

    def _add_attention(self, rng, l, phase):
        d = self.config.dim
        has_self = (l, phase) != (0, "p1")  # no graph state before layer 0
        shapes = ((d, d), (d,), (2 * d,), (d, d), (d, d))
        for name, shape in zip(_ATTEND_PARAMS[phase], shapes):
            if has_self or name != "W5":
                self._add(rng, f"layer{l}/{phase}/{name}", shape)
        self._add_mlp(rng, f"layer{l}/{phase}/mlp", 2 * d if has_self else d, d)

    def forward(self, alt):
        """Run L triple-phase layers; returns (graph states, feature states),
        the feature states being those the last layer read: phase 3 runs in
        layers 0..L-2 only, since no output reads the last layer's. With
        sampling caps set, every call draws the capped edges from a new RNG
        of the model seed, so each call draws the same edges."""
        cfg = self.config
        rng = (np.random.default_rng([cfg.seed, 3571])
               if max(cfg.cap_features, cfg.cap_nodes, cfg.cap_graph) else None)
        hg, hf = None, init_states(alt, self.table)
        for l in range(cfg.layers):
            hg = self._phase2(l, alt, self._phase1(l, alt, hg, hf, rng), rng)
            if l < cfg.layers - 1:
                hf = self._phase3(l, alt, hg, hf, rng)
        return hg, hf

    def _attend(self, l, phase, h_dst, h_src, edges):
        """Attention aggregate of phases 1 and 3: every dst state combines
        its own projection (none when h_dst is None, in layer 0's phase 1)
        with the attention-weighted sum of its src neighbours' messages
        along the weighted Edges layout `edges`."""
        w_src, w_edge, w_att, w_self, w_msg = (
            self.params.get(f"layer{l}/{phase}/{name}") for name in _ATTEND_PARAMS[phase])
        agg = T.attention(h_src, edges, w_src, w_att, w_msg, edges.derived(_sign_split), w_edge)
        combined = agg if h_dst is None else T.concat([T.matmul(h_dst, w_self), agg], axis=1)
        return T.mlp(combined, self._mlp_params(f"layer{l}/{phase}/mlp"))

    def _phase1(self, l, alt, hg, hf, rng):
        edges = _capped(alt.feat_to_node, self.config.cap_features, rng)
        return self._attend(l, "p1", hg, hf, edges)

    def _phase2(self, l, alt, hg, rng):
        edges = _capped(alt.node_to_node, self.config.cap_graph, rng)
        return self._backbone(f"layer{l}/p2", hg, edges)

    def _phase3(self, l, alt, hg_new, hf, rng):
        edges = _capped(alt.node_to_feat, self.config.cap_nodes, rng)
        return self._attend(l, "p3", hf, hg_new, edges)


# what the layers derive from an Edges layout, built once per layout
# through Edges.derived

def _sign_split(edges):
    # the edge channel's mixing weights: w_att . LR(w_e * w_vec) per edge is
    # |w_e| * (w_att . LR(sign(w_e) * w_vec)), two d-vector scores mixed by
    # max(w_e, 0) and max(-w_e, 0), so no (edges, d) tensor; less the
    # destination's first edge, a constant that the softmax cancels
    coef = np.stack([np.maximum(edges.weight, 0.0), np.maximum(-edges.weight, 0.0)], axis=1)
    return coef - coef[edges.indptr[edges.dst]]


def _inverse_degree(edges):
    deg = np.diff(edges.indptr).astype(np.float64)
    return (1.0 / np.maximum(deg, 1.0)).reshape(-1, 1)


def _self_looped(edges):
    loop = np.arange(edges.shape[0], dtype=np.int64)
    return by_destination(edges.shape, (edges.src, edges.dst), (loop, loop))


def sage_layer(h, edges, w):
    """ReLU([h || mean of in-neighbours] @ w)."""
    return T.sage(h, edges, edges.derived(_inverse_degree), w)


def gin_layer(h, edges, epsilon, mlp_params):
    """MLP((1 + epsilon) h + sum of in-neighbours)."""
    neigh = T.spmm(edges, h)  # neighbour sums
    scaled = T.mul(h, T.add(epsilon, 1.0))
    return T.mlp(T.add(scaled, neigh), mlp_params)


class VanillaAltModel(ModelBase):
    """Ablation: plain GraphSAGE over all of G^alt, feature nodes treated
    as ordinary unweighted neighbors, initialization as in the full model."""

    def __init__(self, config, num_classes=None):
        super().__init__(config, num_classes)
        self.table = FeatureEmbeddingTable(config.dim, config.seed)
        rng = np.random.default_rng([config.seed, 17])
        for l in range(config.layers):
            self._add(rng, f"layer{l}/W", (2 * config.dim, config.dim))
        self._add_head(rng, num_classes)

    def forward(self, alt):
        """(graph states, feature states), as GrafenneModel.forward."""
        n, m = alt.n, alt.m
        h = T.Tensor(np.zeros((n, self.config.dim)))  # graph nodes start at zero
        h = T.concat([h, init_states(alt, self.table)], axis=0)
        edges = alt.derived(_joint_layout)
        for l in range(self.config.layers):
            h = sage_layer(h, edges, self.params[f"layer{l}/W"])
        # no output reads the feature states: a plain view, off the tape
        return T.gather_rows(h, alt.derived(_graph_rows)), T.Tensor(h.values[n:n + m])


def _graph_rows(alt):  # the joint layout's graph-node rows
    return np.arange(alt.n)


def _joint_layout(alt):
    """G^alt as one graph over its n graph nodes, then its m feature nodes:
    the graph edges and the feature edges in both directions, unweighted."""
    n, m = alt.n, alt.m
    graph, fe = alt.node_to_node, alt.feat_to_node
    feat = fe.src + n
    return by_destination((n + m, n + m), (graph.src, graph.dst), (fe.dst, feat),
                          (feat, fe.dst))
