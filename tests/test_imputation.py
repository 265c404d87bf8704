import numpy as np
import pytest

from grafenne.graph import HeteroGraph, to_allotropic
from grafenne.imputation import (DenseFeatures, DenseGnnModel, dense_inputs,
                                 feature_propagation, impute_neighborhood_mean,
                                 impute_special_label, resparsify)
from grafenne.model import LEAKY_SLOPE, GrafenneConfig, GrafenneModel
from naive_ref import adjacency, leaky, with_destination_block, _mlp, _softmax
from test_graph import entry_count, random_graph


def expand_brute(g, feat_ids):
    out = np.zeros((g.num_nodes, len(feat_ids)))
    mask = np.zeros_like(out, dtype=bool)
    for i, v in enumerate(g.nodes):
        for j, f in enumerate(feat_ids):
            if f in g.node_feats(v):
                out[i, j] = g.node_feats(v)[f]
                mask[i, j] = True
    return out, mask


def test_special_label_no_missing():
    g = HeteroGraph([0, 1], [(0, 1)], {0: {0: 1.0, 1: 2.0}, 1: {0: 3.0, 1: 4.0}}, {})
    d = impute_special_label(g)
    ref, mask = expand_brute(g, d.feat_ids)
    assert np.array_equal(d.values, ref)
    assert mask.all()


def test_special_label_all_missing():
    g = HeteroGraph([0, 1, 2], [(0, 1)], {0: {0: 1.0}, 1: {1: 2.0}}, {})
    d = impute_special_label(g)
    assert d.values.shape == (3, 2)
    assert (d.values[2] == 0.0).all() and not d.mask[2].any()  # node 2 holds nothing
    empty = impute_special_label(HeteroGraph([0, 1, 2], [(0, 1)], {}, {}))
    assert empty.values.shape == (3, 0) and empty.feat_ids == ()


def test_special_label_mixed_oracle():
    g = HeteroGraph([0, 1, 2], [(0, 1), (1, 2)],
                    {0: {0: 1.5}, 1: {1: -2.0}, 2: {0: 0.5, 1: 3.0}}, {})
    d = impute_special_label(g)
    ref, mask = expand_brute(g, d.feat_ids)
    assert np.array_equal(d.values, ref)
    assert np.array_equal(d.mask, mask)


def test_nm_neighbor_mean():
    # node 0 misses feature 0; neighbors hold 2.0 and 4.0
    g = HeteroGraph([0, 1, 2], [(0, 1), (0, 2)],
                    {0: {1: 1.0}, 1: {0: 2.0}, 2: {0: 4.0}}, {})
    d = impute_neighborhood_mean(g)
    assert d.values[d.node_ids.index(0), d.feat_ids.index(0)] == pytest.approx(3.0)


def test_nm_isolated_fallback():
    g = HeteroGraph([0, 1, 2, 3], [(1, 2)],
                    {1: {0: 2.0}, 2: {0: 6.0}, 3: {1: 5.0}}, {})
    d = impute_neighborhood_mean(g)
    # isolated node 0: global mean of feature 0 is 4.0
    assert d.values[d.node_ids.index(0), d.feat_ids.index(0)] == pytest.approx(4.0)
    # feature 1 is observed only on node 3, which has no neighbors either
    assert d.values[d.node_ids.index(0), d.feat_ids.index(1)] == 5.0


def test_nm_random_oracle():
    rng = np.random.default_rng(11)
    g = random_graph(rng, n_max=20)
    d = impute_neighborhood_mean(g)
    nbrs = adjacency(g)
    for i, v in enumerate(g.nodes):
        for j, f in enumerate(d.feat_ids):
            if f in g.node_feats(v):
                assert d.values[i, j] == g.node_feats(v)[f]
                continue
            vals = [g.node_feats(u)[f] for u in nbrs[v] if f in g.node_feats(u)]
            if not vals:
                vals = [g.node_feats(u)[f] for u in g.nodes if f in g.node_feats(u)]
            want = float(np.mean(vals)) if vals else 0.0
            assert d.values[i, j] == pytest.approx(want, rel=1e-12)


def test_fp_fully_observed_unchanged():
    g = HeteroGraph([0, 1], [(0, 1)], {0: {0: 1.0, 1: 2.0}, 1: {0: 3.0, 1: -1.0}}, {})
    d = feature_propagation(g, iterations=5)
    ref, _ = expand_brute(g, d.feat_ids)
    assert np.array_equal(d.values, ref)


def test_fp_two_node_path():
    g = HeteroGraph([0, 1], [(0, 1)], {0: {0: 2.5}}, {})
    d = feature_propagation(g, iterations=40)
    assert d.values[1, 0] == pytest.approx(2.5, abs=1e-9)


def test_fp_convergence():
    rng = np.random.default_rng(7)
    n = 10
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
    feats = {v: {f: float(rng.normal()) for f in range(3) if rng.random() < 0.6}
             for v in range(n)}
    g = HeteroGraph(range(n), edges, feats, {})
    a = feature_propagation(g, 40).values
    b = feature_propagation(g, 400).values
    assert np.abs(a - b).max() < 1e-6


def test_fp_convexity_regular():
    # on a regular graph the diffusion interpolates within the observed range
    ring = [(i, (i + 1) % 8) for i in range(8)]
    g = HeteroGraph(range(8), ring, {0: {0: 2.0}, 3: {0: 5.0}, 5: {0: 3.5}}, {})
    d = feature_propagation(g, 400)
    assert (d.values[:, 0] >= 2.0 - 1e-9).all()
    assert (d.values[:, 0] <= 5.0 + 1e-9).all()


def test_fp_equals_the_masked_clamp_loop():
    """feature_propagation clamps through flat indices gathered once; the
    values equal the loop that re-gathers observed[mask] every iteration."""
    import scipy.sparse as sp

    from grafenne.imputation import _adjacency_matrix, _expand

    rng = np.random.default_rng(11)
    for _ in range(6):
        g = random_graph(rng, n_max=25)
        vals, mask, _, _ = _expand(g)
        a = _adjacency_matrix(g)
        deg = np.asarray(a.sum(axis=1)).ravel()
        inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg), where=deg > 0)
        a_hat = sp.diags(inv_sqrt) @ a @ sp.diags(inv_sqrt)
        observed = np.where(mask, vals, 0.0)
        x = observed.copy()
        for _ in range(15):
            x = a_hat @ x
            x[mask] = observed[mask]
        assert np.array_equal(feature_propagation(g, 15).values, x)


def test_fp_iterations_validation():
    g = HeteroGraph([0], [], {0: {0: 1.0}}, {})
    with pytest.raises(ValueError):
        feature_propagation(g, iterations=0)


def test_imputers_preserve_observed():
    rng = np.random.default_rng(23)
    for _ in range(5):
        g = random_graph(rng, n_max=15)
        ref, mask = expand_brute(g, g.feature_ids())
        for d in (impute_special_label(g), impute_neighborhood_mean(g),
                  feature_propagation(g, 20)):
            assert np.array_equal(d.values[mask], ref[mask])
            assert np.array_equal(d.mask, mask)


def test_dense_sage_hand():
    g = HeteroGraph([0, 1], [(0, 1)], {0: {0: 1.0, 1: -5.0}, 1: {0: 3.0, 1: 4.0}}, {})
    d = impute_special_label(g)
    cfg = GrafenneConfig(layers=1, dim=2, phase2="sage", seed=0)
    model = DenseGnnModel(cfg, in_dim=2)
    model.params["layer0/W13"].values = np.vstack([np.eye(2), np.eye(2)])
    h = model.forward(*dense_inputs(g, d)).values
    # relu(x_v + x_u) per node
    assert np.allclose(h[0], [4.0, 0.0])
    assert np.allclose(h[1], [4.0, 0.0])


def test_dense_zero_weights_zero_logits():
    g = HeteroGraph([0, 1, 2], [(0, 1)], {0: {0: 1.0}}, {0: 0, 1: 1})
    d = impute_special_label(g)
    cfg = GrafenneConfig(layers=2, dim=4, phase2="sage", seed=1)
    model = DenseGnnModel(cfg, in_dim=1, num_classes=2)
    for p in model.params.values():
        p.values = np.zeros_like(p.values)
    out = model.logits(model.forward(*dense_inputs(g, d)))
    assert (out.values == 0.0).all()


@pytest.mark.parametrize("backend", ["sage", "gat", "gin"])
def test_dense_twins(backend):
    # nodes 0 and 1: same features, same neighborhood {2}
    g = HeteroGraph([0, 1, 2], [(0, 2), (1, 2)],
                    {0: {0: 1.0, 1: 2.0}, 1: {0: 1.0, 1: 2.0}, 2: {0: -1.0}}, {})
    d = impute_special_label(g)
    model = DenseGnnModel(GrafenneConfig(layers=2, dim=5, phase2=backend, seed=3),
                          in_dim=len(d.feat_ids))
    h = model.forward(*dense_inputs(g, d)).values
    assert np.allclose(h[0], h[1], atol=1e-12)


def naive_dense_layer(model, l, h, nbrs, slope):
    p = {k.split("/", 1)[1]: t.values for k, t in model.params.items()
         if k.startswith(f"layer{l}/")}
    backend = model.config.phase2
    if backend == "gat":  # an arbitrary destination block: it cancels
        p = with_destination_block(p, "W14", "W13", "w15", seed=l)
    d = model.config.dim
    out = {}
    for v in sorted(nbrs):
        hv = h[v]
        ns = nbrs[v]
        if backend == "sage":
            mean = np.mean([h[u] for u in ns], axis=0) if ns else np.zeros_like(hv)
            out[v] = np.maximum(np.concatenate([hv, mean]) @ p["W13"], 0.0)
        elif backend == "gat":
            cand = sorted(set(ns) | {v})
            sc = [float(leaky(np.concatenate([hv @ p["W13"], h[u] @ p["W14"]]), slope)
                        @ p["w15"]) for u in cand]
            al = _softmax(sc)
            out[v] = sum(a * (h[u] @ p["W16"]) for a, u in zip(al, cand))
        else:
            s = (1.0 + p["epsilon"]) * hv + sum((h[u] for u in ns), np.zeros_like(hv))
            out[v] = _mlp(s, p["mlp/A0"], p["mlp/b0"], p["mlp/A1"], p["mlp/b1"], slope)
    return out


@pytest.mark.parametrize("backend", ["sage", "gat", "gin"])
def test_dense_backends_vs_naive(backend):
    rng = np.random.default_rng(31)
    n = 12
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    feats = {v: {f: float(rng.normal()) for f in range(4) if rng.random() < 0.7}
             for v in range(n)}
    g = HeteroGraph(range(n), edges, feats, {})
    dense = impute_special_label(g)
    cfg = GrafenneConfig(layers=2, dim=3, phase2=backend, seed=5)
    model = DenseGnnModel(cfg, in_dim=len(dense.feat_ids))
    got = model.forward(*dense_inputs(g, dense)).values

    nbrs = {v: list(ns) for v, ns in adjacency(g).items()}
    h = {v: dense.values[i] for i, v in enumerate(g.nodes)}
    for l in range(cfg.layers):
        h = naive_dense_layer(model, l, h, nbrs, LEAKY_SLOPE)
    ref = np.stack([h[v] for v in g.nodes])
    assert np.abs(got - ref).max() < 1e-9


def test_dense_param_count_grows_with_features():
    cfg = GrafenneConfig(layers=2, dim=8, phase2="sage", seed=0)
    small = DenseGnnModel(cfg, in_dim=10)
    big = DenseGnnModel(cfg, in_dim=100)
    assert (sum(p.values.size for p in big.params.values())
            > sum(p.values.size for p in small.params.values()))
    # the allotropic model's trainable core is feature-count invariant
    ga = GrafenneModel(GrafenneConfig(layers=2, dim=8, phase2="sage", seed=0))
    gb = GrafenneModel(GrafenneConfig(layers=2, dim=8, phase2="sage", seed=0))
    ga.table.ensure(range(10))
    gb.table.ensure(range(100))
    assert (sum(p.values.size for p in ga.params.values())
            == sum(p.values.size for p in gb.params.values()))


def test_dense_forward_dim_mismatch():
    g = HeteroGraph([0, 1], [(0, 1)], {0: {0: 1.0, 1: 2.0}, 1: {0: 3.0}}, {})
    d = impute_special_label(g)
    cfg = GrafenneConfig(layers=1, dim=2, phase2="sage", seed=0)
    model = DenseGnnModel(cfg, in_dim=7)
    with pytest.raises(ValueError, match="first-layer weights"):
        model.forward(*dense_inputs(g, d))


def test_impute_then_grafenne_nm_fully_observed():
    g = HeteroGraph([0, 1], [(0, 1)], {0: {0: 1.0, 1: 2.0}, 1: {0: 3.0, 1: 4.0}}, {0: 0, 1: 1})
    out = resparsify(g, impute_neighborhood_mean(g))
    assert out.feats == g.feats
    assert out.edges == g.edges and out.labels == g.labels


def test_impute_then_grafenne_fp_alt_edges():
    rng = np.random.default_rng(43)
    g = random_graph(rng, n_max=12)
    out = resparsify(g, feature_propagation(g))
    alt = to_allotropic(out)
    assert len(alt.feat_to_node) == entry_count(out)
    # observed entries survive re-sparsification (values come from the graph, nonzero)
    for v, fmap in g.feats.items():
        for f, x in fmap.items():
            assert out.feats[v][f] == x


@pytest.mark.parametrize("method", ["nm", "fp"])
def test_impute_then_grafenne_matches_the_entry_loop(method):
    from grafenne.imputation import RESPARSIFY_EPS
    base = random_graph(np.random.default_rng(7), n_max=25)
    # two isolated nodes and a feature that only they hold, observed as 1
    # and -1: its column mean is 0, so NM and FP both leave exact zeros
    a, b, f = max(base.nodes) + 1, max(base.nodes) + 2, max(base.feature_ids()) + 1
    g = base.replace(nodes=base.nodes + (a, b), feats={**base.feats, a: {f: 1.0}, b: {f: -1.0}})
    dense = impute_neighborhood_mean(g) if method == "nm" else feature_propagation(g, 40)
    want = {}
    for i, v in enumerate(dense.node_ids):
        row = {f: float(dense.values[i, j]) for j, f in enumerate(dense.feat_ids)
               if abs(dense.values[i, j]) >= RESPARSIFY_EPS}
        if row:
            want[v] = row
    got = resparsify(g, dense).feats
    assert ([(v, list(fmap.items())) for v, fmap in got.items()]
            == [(v, list(fmap.items())) for v, fmap in g.replace(feats=want).feats.items()])
    assert any(abs(x) < RESPARSIFY_EPS for x in dense.values.ravel())  # some entries drop


@pytest.mark.parametrize("method", ["nm+sage", "fp+sage"])
def test_an_imputed_dense_cell_builds_the_graph_layout_once(monkeypatch, method):
    """The imputer and the dense model read one edge layout per graph."""
    from grafenne import imputation
    from grafenne.tasks import method_model

    calls = []
    build = imputation.directed_edges
    monkeypatch.setattr(imputation, "directed_edges",
                        lambda *args: calls.append(args) or build(*args))
    g = random_graph(np.random.default_rng(8), n_max=20)
    _, forward = method_model(method, g, "link_prediction", dim=3, layers=2)
    forward()
    forward()
    assert len(calls) == 1
