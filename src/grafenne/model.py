"""The GRAFENNE model: per layer, (1) feature nodes message their graph
nodes through attention, (2) graph nodes exchange along original edges via
a pluggable backend (SAGE/GAT/GIN), (3) graph nodes message back to
feature nodes. Graph nodes start at zero, feature nodes at learnable
embeddings, so parameter count is independent of node and feature counts.

Phases 1 and 3 are one attention routine (_attend) with the roles of
graph and feature nodes swapped. Attention scores use the split form
    w . LeakyReLU(a || b || c) = w_a . LR(a) + w_b . LR(b) + w_c . LR(c)
(exact, LeakyReLU being elementwise), and the edge-weight channel c = x w
uses LeakyReLU's positive homogeneity,
    LR(x w) = |x| LR(sign(x) w),
so it costs two d-vector scores and one per-edge vector. Every
aggregation, attention-weighted or a plain neighbour sum, is one
tensor.spmm over edges sorted by destination, so no (edges, d) tensor is
ever materialized on the tape.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .graph import by_destination
from .optim import descend

_PHASE2 = ("sage", "gat", "gin")

# parameter names of the attention phases, in the order (dst score, src
# score, edge vector, attention vector, self projection, message)
_ATTEND_PARAMS = {"p1": ("W1", "W2", "w3", "w4", "W5", "W6"),
                  "p3": ("W7", "W8", "w9", "w10", "W11", "W12")}


@dataclass
class GrafenneConfig:
    layers: int = 2
    dim: int = 64
    phase2: str = "sage"
    leaky_slope: float = 0.2
    gin_epsilon: float = 0.0
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
        """Append a row for every id without one. weight.values is rebound,
        not written in place, so live tapes keep their forward arrays."""
        draws = []
        for f in map(int, feat_ids):
            if f not in self.row:
                self.row[f] = len(self.row)
                rng = np.random.default_rng([self.seed, 13, f])
                draws.append(rng.normal(0.0, 1.0 / np.sqrt(self.dim), size=self.dim))
        if draws:
            self.weight.values = np.vstack([self.weight.values, *draws])


def init_states(alt, table, dim):
    """Layer-0 states: zero vectors for graph nodes, embedding rows for
    feature nodes."""
    table.ensure(alt.feat_ids)
    hg = T.Tensor(np.zeros((alt.n, dim)))
    hf = T.gather_rows(table.weight, [table.row[f] for f in alt.feat_ids])
    return hg, hf


def _cap_edge_arrays(seg, arrays, cap, rng, num_segments):
    """Keep at most cap edges per segment; seg must be sorted ascending."""
    if cap <= 0 or len(seg) == 0:
        return (seg, *arrays)
    counts = np.bincount(seg, minlength=num_segments)
    if counts.max() <= cap:
        return (seg, *arrays)
    keep = []
    start = 0
    for c in counts:
        if c > cap:
            keep.append(start + np.sort(rng.choice(c, size=cap, replace=False)))
        elif c:
            keep.append(np.arange(start, start + c))
        start += c
    keep = np.concatenate(keep)
    return (seg[keep], *[a[keep] for a in arrays])


class ModelBase:
    """What GrafenneModel, VanillaAltModel and DenseGnnModel share: named
    parameters drawn in a fixed order from a seeded RNG, the LeakyReLU
    activation, the SAGE/GAT/GIN backbone layer and the linear head.
    forward and GRAFENNE's _phase1/2/3 stay in each model's own class body,
    where bench/tracing.py looks them up to time them."""

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
            self._add(rng, f"{prefix}/W13", (d_in, d))
            self._add(rng, f"{prefix}/W14", (d_in, d))
            self._add(rng, f"{prefix}/w15", (2 * d,))
            self._add(rng, f"{prefix}/W16", (d_in, d))
        else:  # gin
            self._add_mlp(rng, f"{prefix}/mlp", d_in, d)
            self.params[f"{prefix}/epsilon"] = T.Parameter(
                np.array(self.config.gin_epsilon), f"{prefix}/epsilon")

    def _backbone(self, prefix, h, src, dst, n):
        """One SAGE/GAT/GIN layer over the edges src -> dst, dst ascending."""
        p = self.params
        backend = self.config.phase2
        if backend == "sage":
            return sage_layer(h, src, dst, n, p[f"{prefix}/W13"])
        if backend == "gat":
            return gat_layer(h, src, dst, n, p[f"{prefix}/W13"], p[f"{prefix}/W14"],
                             p[f"{prefix}/w15"], p[f"{prefix}/W16"], self._act)
        return gin_layer(h, src, dst, n, p[f"{prefix}/epsilon"],
                         self._mlp_params(f"{prefix}/mlp"), self._act)

    def _act(self, x):
        return T.leaky_relu(x, self.config.leaky_slope)

    def trainable_parameters(self):
        """Every parameter; the list is fixed from construction on."""
        table = [self.table.weight] if self.table is not None else []
        return list(self.params.values()) + table

    def non_embedding_parameter_count(self):
        return sum(p.size for p in self.params.values())

    def logits(self, h):
        if self.num_classes is None:
            raise ValueError("model built without a classification head")
        return T.add(T.matmul(h, self.params["head/W"]), self.params["head/b"])


class GrafenneModel(ModelBase):
    def __init__(self, config, num_classes=None):
        super().__init__(config, num_classes)
        self.table = FeatureEmbeddingTable(config.dim, config.seed)
        rng = np.random.default_rng([config.seed, 11])
        for l in range(config.layers):
            self._add_attention(rng, l, "p1")
            self._add_backbone(rng, f"layer{l}/p2", config.dim)
            self._add_attention(rng, l, "p3")
        self._add_head(rng, num_classes)

    def _add_attention(self, rng, l, phase):
        d = self.config.dim
        shapes = ((d, d), (d, d), (d,), (3 * d,), (d, d), (d, d))
        for name, shape in zip(_ATTEND_PARAMS[phase], shapes):
            self._add(rng, f"layer{l}/{phase}/{name}", shape)
        self._add_mlp(rng, f"layer{l}/{phase}/mlp", 2 * d, d)

    def forward(self, alt, rng=None):
        """Run L triple-phase layers; returns (graph states, feature states).
        With sampling caps set, rng draws the capped edges (by default a
        fixed one per model seed); without caps it is not used."""
        cfg = self.config
        if not max(cfg.cap_features, cfg.cap_nodes, cfg.cap_graph):
            rng = None
        elif rng is None:
            rng = np.random.default_rng([cfg.seed, 3571])
        hg, hf = init_states(alt, self.table, cfg.dim)
        for l in range(cfg.layers):
            hg_new = self._phase1(l, alt, hg, hf, rng)
            hg_new = self._phase2(l, alt, hg_new, rng)
            hf = self._phase3(l, alt, hg_new, hf, rng)
            hg = hg_new
        return hg, hf

    def _edge_channel(self, weights, w_vec, w_att):
        # w_att . LR(w_e * w_vec) per edge, in the positively homogeneous
        # form |w_e| * (w_att . LR(sign(w_e) * w_vec)): two d-vector scores
        # mixed by max(w_e, 0) and max(-w_e, 0), so no (edges, d) tensor
        coef = T.Tensor(np.stack([np.maximum(weights, 0.0), np.maximum(-weights, 0.0)], axis=1))
        signed = T.stack_rows([w_vec, T.mul(w_vec, -1.0)])
        return T.matmul(coef, T.matmul(self._act(signed), w_att))

    def _attend(self, l, phase, h_dst, h_src, dst, src, weight, num_dst):
        """Attention aggregate of phases 1 and 3: every dst state combines
        its own projection with the softmax-weighted sum of its src
        neighbours' messages along the edges (dst, src, weight), dst
        ascending."""
        w_dst, w_src, w_edge, w_att, w_self, w_msg = (
            self.params[f"layer{l}/{phase}/{name}"] for name in _ATTEND_PARAMS[phase])
        d = self.config.dim
        self_part = T.matmul(h_dst, w_self)
        if len(dst) == 0:
            agg = T.Tensor(np.zeros((num_dst, d)))
        else:
            # attention vector split into its three concat segments
            s_dst = T.matmul(self._act(T.matmul(h_dst, w_dst)), T.slice_rows(w_att, 0, d))
            s_src = T.matmul(self._act(T.matmul(h_src, w_src)), T.slice_rows(w_att, d, 2 * d))
            s_edge = self._edge_channel(weight, w_edge, T.slice_rows(w_att, 2 * d, 3 * d))
            score = T.add(T.add(T.gather_rows(s_dst, dst), T.gather_rows(s_src, src)), s_edge)
            alpha = T.segment_softmax(score, dst, num_dst)
            agg = T.spmm(alpha, dst, src, num_dst, T.matmul(h_src, w_msg))
        combined = T.concat([self_part, agg], axis=1)
        return T.mlp(combined, self._mlp_params(f"layer{l}/{phase}/mlp"), self._act)

    def _phase1(self, l, alt, hg, hf, rng):
        edges = (alt.fe_node, alt.fe_feat, alt.fe_weight)
        if rng is not None:
            edges = _cap_edge_arrays(edges[0], edges[1:], self.config.cap_features, rng, alt.n)
        return self._attend(l, "p1", hg, hf, *edges, alt.n)

    def _phase2(self, l, alt, hg, rng):
        src, dst = alt.ge_src, alt.ge_dst
        if rng is not None:
            dst, src = _cap_edge_arrays(dst, (src,), self.config.cap_graph, rng, alt.n)
        return self._backbone(f"layer{l}/p2", hg, src, dst, alt.n)

    def _phase3(self, l, alt, hg_new, hf, rng):
        if alt.m == 0:
            return hf
        edges = (alt.fe3_feat, alt.fe3_node, alt.fe3_weight)
        if rng is not None:
            edges = _cap_edge_arrays(edges[0], edges[1:], self.config.cap_nodes, rng, alt.m)
        return self._attend(l, "p3", hf, hg_new, *edges, alt.m)


def _neighbour_sum(h, src, dst, n):
    """Row v is the sum of h[u] over the edges u -> v; dst ascending."""
    return T.spmm(np.ones(len(src)), dst, src, n, h)


def sage_layer(h, src, dst, n, w):
    """ReLU([h || mean of in-neighbours] @ w); dst ascending."""
    neigh = _neighbour_sum(h, src, dst, n)
    deg = np.bincount(dst, minlength=n).astype(np.float64)
    mean = T.mul(neigh, T.Tensor((1.0 / np.maximum(deg, 1.0)).reshape(-1, 1)))
    return T.relu(T.matmul(T.concat([h, mean], axis=1), w))


def gat_layer(h, src, dst, n, w_dst, w_src, w_att, w_msg, act):
    """Attention over in-neighbours plus a self-loop; dst ascending."""
    d = w_msg.shape[1]
    loop = np.arange(n, dtype=np.int64)
    src2, dst2 = by_destination((src, dst), (loop, loop))
    s_dst = T.matmul(act(T.matmul(h, w_dst)), T.slice_rows(w_att, 0, d))
    s_src = T.matmul(act(T.matmul(h, w_src)), T.slice_rows(w_att, d, 2 * d))
    score = T.add(T.gather_rows(s_dst, dst2), T.gather_rows(s_src, src2))
    alpha = T.segment_softmax(score, dst2, n)
    return T.spmm(alpha, dst2, src2, n, T.matmul(h, w_msg))


def gin_layer(h, src, dst, n, epsilon, mlp_params, act):
    """MLP((1 + epsilon) h + sum of in-neighbours); dst ascending."""
    neigh = _neighbour_sum(h, src, dst, n)
    scaled = T.mul(h, T.add(epsilon, 1.0))
    return T.mlp(T.add(scaled, neigh), mlp_params, act)


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
        n, m = alt.n, alt.m
        hg0, hf0 = init_states(alt, self.table, self.config.dim)
        h = T.concat([hg0, hf0], axis=0) if m else hg0
        feat = alt.fe_feat + n
        src, dst = by_destination((alt.ge_src, alt.ge_dst), (alt.fe_node, feat),
                                  (feat, alt.fe_node))
        for l in range(self.config.layers):
            h = sage_layer(h, src, dst, n + m, self.params[f"layer{l}/W"])
        hg = T.slice_rows(h, 0, n)
        hf = T.slice_rows(h, n, n + m)
        return hg, hf


def recovery_probe(d, trials, seed=0, epochs=400, lr=0.01, hidden=None):
    """Train a phase-1-only stack to regress x_v from the allotropic encoding.

    Feature-node embeddings are fixed one-hot, graph nodes start at zero
    (so the combine reduces to a function of the aggregate alone), and each
    message pairs the feature identity with the edge value:
    m_v(i) = [onehot_i ; x_v[i] * 1_d].  The aggregate is learnable as a
    per-message MLP followed by a sum and a combine MLP, which is where
    the reconstruction x_v[i] = m[i] * m[d+i] has to be picked up.
    Returns (trained MSE, untrained MSE)."""
    rng = np.random.default_rng([seed, 29])
    x = rng.normal(size=(trials, d))
    if hidden is None:
        hidden = max(32, 16 * d)

    # row (v, i) of the message matrix is [onehot_i ; x_v[i] * 1_d]
    msgs = np.concatenate(
        [np.tile(np.eye(d), (trials, 1)), np.repeat(x.reshape(-1, 1), d, axis=1)], axis=1
    )
    seg = np.repeat(np.arange(trials), d)

    prng = np.random.default_rng([seed, 31])
    phi = [
        T.Parameter(glorot(prng, (2 * d, hidden)), "probe/msg/A0"),
        T.Parameter(np.zeros(hidden), "probe/msg/b0"),
        T.Parameter(glorot(prng, (hidden, d)), "probe/msg/A1"),
        T.Parameter(np.zeros(d), "probe/msg/b1"),
    ]
    rho = [
        T.Parameter(glorot(prng, (d, hidden)), "probe/comb/A0"),
        T.Parameter(np.zeros(hidden), "probe/comb/b0"),
        T.Parameter(glorot(prng, (hidden, d)), "probe/comb/A1"),
        T.Parameter(np.zeros(d), "probe/comb/b1"),
    ]
    m_in = T.Tensor(msgs)
    target = T.Tensor(x)

    def mse():
        per_msg = T.mlp(m_in, phi)
        agg = T.segment_sum(per_msg, seg, trials)
        out = T.mlp(agg, rho)
        diff = T.sub(out, target)
        return T.mean_all(T.mul(diff, diff))

    untrained = mse().item()
    for _ in descend(phi + rho, mse, epochs, lr):
        pass
    return mse().item(), untrained


CHECKPOINT_VERSION = 1


def save_checkpoint(model, path):
    meta = {
        "version": CHECKPOINT_VERSION,
        "kind": type(model).__name__,
        "config": asdict(model.config),
        "num_classes": model.num_classes,
    }
    table = model.table
    arrays = {f"p/{name}": p.values for name, p in model.params.items()}
    arrays.update({f"t/{f}": table.weight.values[r] for f, r in table.row.items()})
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def _read_array(blob, key, shape):
    value = blob[key]
    if value.shape != shape:
        raise ValueError(f"checkpoint array {key!r} has shape {value.shape}, "
                         f"the model expects {shape}")
    return value


def load_checkpoint(path):
    with np.load(path) as blob:
        meta = json.loads(bytes(blob["__meta__"]).decode())
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        cls = {"GrafenneModel": GrafenneModel, "VanillaAltModel": VanillaAltModel}[meta["kind"]]
        model = cls(GrafenneConfig(**meta["config"]), meta["num_classes"])
        table = model.table
        rows = {}
        for key in blob.files:
            if key.startswith("p/"):
                name = key[2:]
                if name not in model.params:
                    raise ValueError(f"checkpoint parameter {name!r} unknown to model")
                model.params[name].values = _read_array(blob, key, model.params[name].shape)
            elif key.startswith("t/"):
                rows[int(key[2:])] = _read_array(blob, key, (table.dim,))
        table.ensure(rows)  # a fresh table appends rows in the saved order
        table.weight.values = np.array(list(rows.values())).reshape(-1, table.dim)
    return model
