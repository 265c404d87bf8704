"""Direct per-node reference implementation of the three phases.

Written in the plain concatenated form with python loops over sorted
neighbors — a deliberately different code path from the vectorized model
(which uses the split attention-score identity). Used as the
hand-evaluation oracle.

The paper's score w . LeakyReLU(h_v W_dst || h_u W_src || ...) has a
destination term that the softmax over v's edges cancels, so the model
builds no W_dst and no destination segment of w. The reference keeps the
concatenated form and supplies that block itself, seeded and non-zero
(with_destination_block), so every comparison with the model confirms that
the term cancels; zeros would only make it vanish.

Graph nodes start at zero, so the self part h_v W5 of layer 0's phase 1 is
zero too, and the model builds neither W5 nor the rows of that phase's
mlp/A0 that read it. The reference keeps graph nodes at zero and the paper's
combine mlp([h_v W5 || agg]), and supplies both blocks itself, seeded and
non-zero (with_self_block), so every comparison confirms that they cancel.
"""

import numpy as np

from grafenne.tensor import LEAKY_SLOPE


def leaky(x, slope=LEAKY_SLOPE):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, x, slope * x)


def _softmax(scores):
    scores = np.asarray(scores, dtype=np.float64)
    e = np.exp(scores - scores.max())
    return e / e.sum()


def _mlp(x, a0, b0, a1, b1, slope):
    return leaky(x @ a0 + b0, slope) @ a1 + b1


def naive_phase1(pv, g, hg, hf, slope):
    """pv: name->np array for one layer's phase-1 parameters."""
    out = {}
    for v in sorted(hg):
        hv = hg[v]
        pairs = sorted(g.node_feats(v).items())
        if pairs:
            msgs = [leaky(np.concatenate([hv @ pv["W1"], hf[f] @ pv["W2"], w * pv["w3"]]), slope)
                    for f, w in pairs]
            alpha = _softmax([m @ pv["w4"] for m in msgs])
            assert abs(alpha.sum() - 1.0) < 1e-12 and (alpha >= 0).all()
            agg = sum(a * (hf[f] @ pv["W6"]) for a, (f, _) in zip(alpha, pairs))
        else:
            agg = np.zeros_like(hv)
        out[v] = _mlp(np.concatenate([hv @ pv["W5"], agg]),
                      pv["mlp/A0"], pv["mlp/b0"], pv["mlp/A1"], pv["mlp/b1"], slope)
    return out


def naive_phase2_sage(pv, nbrs, hg, slope):
    out = {}
    for v in sorted(hg):
        ns = nbrs.get(v, ())
        mean = np.mean([hg[u] for u in ns], axis=0) if ns else np.zeros_like(hg[v])
        pre = np.concatenate([hg[v], mean]) @ pv["W13"]
        out[v] = np.maximum(pre, 0.0)
    return out


def naive_phase2_gat(pv, nbrs, hg, slope):
    out = {}
    for v in sorted(hg):
        everyone = sorted(set(nbrs.get(v, ())) | {v})
        msgs = [leaky(np.concatenate([hg[v] @ pv["W13"], hg[u] @ pv["W14"]]), slope)
                for u in everyone]
        alpha = _softmax([m @ pv["w15"] for m in msgs])
        out[v] = sum(a * (hg[u] @ pv["W16"]) for a, u in zip(alpha, everyone))
    return out


def naive_phase2_gin(pv, nbrs, hg, slope):
    out = {}
    for v in sorted(hg):
        total = sum((hg[u] for u in nbrs.get(v, ())), np.zeros_like(hg[v]))
        pre = (1.0 + pv["epsilon"]) * hg[v] + total
        out[v] = _mlp(pre, pv["mlp/A0"], pv["mlp/b0"], pv["mlp/A1"], pv["mlp/b1"], slope)
    return out


def naive_phase3(pv, g, hg_new, hf, slope):
    incident = {f: [] for f in hf}
    for v in sorted(g.nodes):
        for f, w in sorted(g.node_feats(v).items()):
            incident[f].append((v, w))
    out = {}
    for f in sorted(hf):
        hu = hf[f]
        pairs = incident[f]
        if pairs:
            msgs = [leaky(np.concatenate([hu @ pv["W7"], hg_new[v] @ pv["W8"], w * pv["w9"]]), slope)
                    for v, w in pairs]
            alpha = _softmax([m @ pv["w10"] for m in msgs])
            assert abs(alpha.sum() - 1.0) < 1e-12 and (alpha >= 0).all()
            agg = sum(a * (hg_new[v] @ pv["W12"]) for a, (v, _) in zip(alpha, pairs))
        else:
            agg = np.zeros_like(hu)
        out[f] = _mlp(np.concatenate([hu @ pv["W11"], agg]),
                      pv["mlp/A0"], pv["mlp/b0"], pv["mlp/A1"], pv["mlp/b1"], slope)
    return out


def adjacency(g):
    """node -> sorted tuple of graph neighbors."""
    nbr = {v: [] for v in g.nodes}
    for u, v in g.edges:
        nbr[u].append(v)
        nbr[v].append(u)
    return {v: tuple(sorted(ns)) for v, ns in nbr.items()}


def with_destination_block(pv, w_src, w_dst, w_att, seed):
    """pv plus a destination block: a seeded non-zero matrix named w_dst,
    shaped like the source matrix pv[w_src], and its segment prepended to
    the attention vector pv[w_att]."""
    rng = np.random.default_rng([seed, 7919])
    shape = pv[w_src].shape
    return {**pv, w_dst: rng.normal(size=shape),
            w_att: np.concatenate([rng.normal(size=shape[1]), pv[w_att]])}


def with_self_block(pv, seed):
    """pv plus a self block: a seeded non-zero W5, and its rows prepended
    to the combine's mlp/A0."""
    rng = np.random.default_rng([seed, 7927])
    d = pv["mlp/A0"].shape[1]
    return {**pv, "W5": rng.normal(size=(d, d)),
            "mlp/A0": np.vstack([rng.normal(size=(d, d)), pv["mlp/A0"]])}


# (source matrix, destination matrix, attention vector) of each phase
_DST_BLOCK = {"p1": ("W2", "W1", "w4"), "p3": ("W8", "W7", "w10"), "p2": ("W14", "W13", "w15")}


def _layer_params(model, l, phase):
    pre = f"layer{l}/{phase}/"
    pv = {name[len(pre):]: p.values for name, p in model.params.items()
          if name.startswith(pre)}
    if phase != "p2" or model.config.phase2 == "gat":
        pv = with_destination_block(pv, *_DST_BLOCK[phase], seed=[l, int(phase[1])])
    if (l, phase) == (0, "p1"):
        pv = with_self_block(pv, seed=[l, 1])
    return pv


def naive_forward(model, g):
    """Reference forward pass; returns (hg map, hf map), hf being the
    feature states the last layer read, as the model has no phase 3 in
    its last layer."""
    cfg = model.config
    slope = LEAKY_SLOPE
    feat_ids = g.feature_ids()
    model.table.ensure(feat_ids)
    hg = {v: np.zeros(cfg.dim) for v in g.nodes}
    table = model.table
    hf = {f: table.weight.values[table.row[f]].copy() for f in feat_ids}
    nbrs = adjacency(g)
    for l in range(cfg.layers):
        hg1 = naive_phase1(_layer_params(model, l, "p1"), g, hg, hf, slope)
        p2 = _layer_params(model, l, "p2")
        if cfg.phase2 == "sage":
            hg2 = naive_phase2_sage(p2, nbrs, hg1, slope)
        elif cfg.phase2 == "gat":
            hg2 = naive_phase2_gat(p2, nbrs, hg1, slope)
        else:
            hg2 = naive_phase2_gin(p2, nbrs, hg1, slope)
        if l < cfg.layers - 1:
            hf = naive_phase3(_layer_params(model, l, "p3"), g, hg2, hf, slope)
        hg = hg2
    return hg, hf


def naive_vanilla_forward(model, g):
    """Plain GraphSAGE over V^alt with the model's init, by hand."""
    cfg = model.config
    feat_ids = g.feature_ids()
    model.table.ensure(feat_ids)
    h = {("g", v): np.zeros(cfg.dim) for v in g.nodes}
    table = model.table
    h.update({("f", f): table.weight.values[table.row[f]].copy() for f in feat_ids})
    nbrs = {k: set() for k in h}
    for u, v in g.edges:
        nbrs[("g", u)].add(("g", v))
        nbrs[("g", v)].add(("g", u))
    for v in g.nodes:
        for f in g.node_feats(v):
            nbrs[("g", v)].add(("f", f))
            nbrs[("f", f)].add(("g", v))
    for l in range(cfg.layers):
        w = model.params[f"layer{l}/W"].values
        nxt = {}
        for k in h:
            ns = sorted(nbrs[k])
            mean = np.mean([h[u] for u in ns], axis=0) if ns else np.zeros(cfg.dim)
            nxt[k] = np.maximum(np.concatenate([h[k], mean]) @ w, 0.0)
        h = nxt
    hg = {v: h[("g", v)] for v in g.nodes}
    hf = {f: h[("f", f)] for f in feat_ids}
    return hg, hf
