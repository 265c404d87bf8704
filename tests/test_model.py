import gc

import numpy as np
import pytest

from grafenne import tensor as T
from grafenne.graph import HeteroGraph, to_allotropic
from grafenne.model import (FeatureEmbeddingTable, GrafenneConfig, GrafenneModel,
                            VanillaAltModel, init_states, load_checkpoint,
                            recovery_probe, save_checkpoint)
from naive_ref import (adjacency, leaky, naive_forward, naive_vanilla_forward, _mlp)
from test_graph import random_graph, toy


def small_cfg(**kw):
    base = dict(layers=2, dim=3, phase2="sage", seed=42)
    base.update(kw)
    return GrafenneConfig(**base)


def tiny_graph():
    # one graph node with two features
    return HeteroGraph([0], [], {0: {0: 0.7, 1: -0.3}}, {})


def test_config_validation():
    with pytest.raises(ValueError, match="layers"):
        GrafenneConfig(layers=0).validate()
    with pytest.raises(ValueError, match="phase2"):
        GrafenneConfig(phase2="mlp").validate()


def test_init_states():
    g = tiny_graph()
    alt = to_allotropic(g)
    table = FeatureEmbeddingTable(dim=3, seed=1)
    hg, hf = init_states(alt, table, 3)
    assert not hg.values.any() and hg.shape == (1, 3)
    assert np.array_equal(hf.values[0], table.rows[0].values)
    assert np.array_equal(hf.values[1], table.rows[1].values)
    # a second graph sharing feature ids reuses identical rows
    g2 = HeteroGraph([0, 1], [(0, 1)], {1: {1: 2.0}}, {})
    _, hf2 = init_states(to_allotropic(g2), table, 3)
    assert np.array_equal(hf2.values[0], hf.values[1])


def test_embedding_rows_insertion_order_independent():
    a = FeatureEmbeddingTable(dim=4, seed=9)
    a.ensure([3, 1, 7])
    b = FeatureEmbeddingTable(dim=4, seed=9)
    b.ensure([7])
    b.ensure([1, 3])
    for f in (1, 3, 7):
        assert np.array_equal(a.rows[f].values, b.rows[f].values)


def test_phase1_hand_tiny_instance():
    # 1 graph node, 2 feature nodes, d=2: spell out the concatenated form
    cfg = small_cfg(layers=1, dim=2)
    g = tiny_graph()
    model = GrafenneModel(cfg)
    hg_t, _ = model.forward(to_allotropic(g))
    p = {k.split("p1/")[1]: v.values for k, v in model.params.items() if "/p1/" in k}
    model.table.ensure([0, 1])
    h0, h1 = model.table.rows[0].values, model.table.rows[1].values
    hv = np.zeros(2)
    m0 = leaky(np.concatenate([hv @ p["W1"], h0 @ p["W2"], 0.7 * p["w3"]]))
    m1 = leaky(np.concatenate([hv @ p["W1"], h1 @ p["W2"], -0.3 * p["w3"]]))
    s = np.array([m0 @ p["w4"], m1 @ p["w4"]])
    e = np.exp(s - s.max())
    a0, a1 = e / e.sum()
    agg = a0 * (h0 @ p["W6"]) + a1 * (h1 @ p["W6"])
    h_after_p1 = _mlp(np.concatenate([hv @ p["W5"], agg]),
                      p["mlp/A0"], p["mlp/b0"], p["mlp/A1"], p["mlp/b1"], 0.2)
    # phase 2 on an edgeless graph: relu(concat(h, 0) @ W13)
    w13 = model.params["layer0/p2/W13"].values
    expect = np.maximum(np.concatenate([h_after_p1, np.zeros(2)]) @ w13, 0.0)
    assert np.allclose(hg_t.values[0], expect, atol=1e-9)


def test_phase2_sage_hand_three_node_path():
    cfg = small_cfg(layers=1, dim=2)
    g = HeteroGraph([0, 1, 2], [(0, 1), (1, 2)],
                    {0: {0: 1.0}, 1: {1: 2.0}, 2: {0: 3.0, 1: 1.0}}, {})
    model = GrafenneModel(cfg)
    hg_t, _ = model.forward(to_allotropic(g))
    hg_ref, _ = naive_forward(model, g)
    for v in g.nodes:
        assert np.allclose(hg_t.values[v], hg_ref[v], atol=1e-9)
    # spell out node 1 (neighbors 0 and 2) from the phase-1 states
    hg1 = {v: _hand_phase1_state(model, g, v) for v in g.nodes}
    mean = (hg1[0] + hg1[2]) / 2.0
    w13 = model.params["layer0/p2/W13"].values
    expect = np.maximum(np.concatenate([hg1[1], mean]) @ w13, 0.0)
    assert np.allclose(hg_t.values[1], expect, atol=1e-9)


def _hand_phase1_state(model, g, v):
    p = {k.split("p1/")[1]: t.values for k, t in model.params.items() if "layer0/p1/" in k}
    hv = np.zeros(model.config.dim)
    pairs = sorted(g.node_feats(v).items())
    msgs = [leaky(np.concatenate([hv @ p["W1"], model.table.rows[f].values @ p["W2"],
                                  w * p["w3"]]))
            for f, w in pairs]
    s = np.array([m @ p["w4"] for m in msgs])
    e = np.exp(s - s.max())
    alpha = e / e.sum()
    agg = sum(a * (model.table.rows[f].values @ p["W6"])
              for a, (f, _) in zip(alpha, pairs))
    return _mlp(np.concatenate([hv @ p["W5"], agg]),
                p["mlp/A0"], p["mlp/b0"], p["mlp/A1"], p["mlp/b1"], 0.2)


@pytest.mark.parametrize("backend", ["sage", "gat", "gin"])
def test_forward_matches_naive_reference(backend):
    rng = np.random.default_rng(100)
    for trial in range(4):
        g = random_graph(rng, n_max=8)
        cfg = small_cfg(phase2=backend, gin_epsilon=0.3, seed=trial)
        model = GrafenneModel(cfg)
        hg, hf = model.forward(to_allotropic(g))
        assert np.isfinite(hg.values).all() and np.isfinite(hf.values).all()
        hg_ref, hf_ref = naive_forward(model, g)
        for i, v in enumerate(g.nodes):
            assert np.allclose(hg.values[i], hg_ref[v], atol=1e-9), (backend, trial, v)
        for i, f in enumerate(g.feature_ids()):
            assert np.allclose(hf.values[i], hf_ref[f], atol=1e-9), (backend, trial, f)


def test_uniform_attention_when_messages_identical():
    # two features with equal value and equal embeddings: alpha = 1/2 each
    cfg = small_cfg(layers=1, dim=2)
    g = HeteroGraph([0], [], {0: {0: 0.5, 1: 0.5}}, {})
    model = GrafenneModel(cfg)
    model.table.ensure([0, 1])
    model.table.rows[1].values = model.table.rows[0].values.copy()
    hg, _ = model.forward(to_allotropic(g))
    g_single = HeteroGraph([0], [], {0: {0: 0.5}}, {})
    hg_single, _ = model.forward(to_allotropic(g_single))
    assert np.allclose(hg.values[0], hg_single.values[0], atol=1e-12)


def test_edge_channel_matches_direct_form():
    # |w| LR(sign(w) v) against LR(w v) with negative, zero and positive
    # edge weights and exactly-zero components, where the subgradient of
    # LeakyReLU takes the positive branch
    model = GrafenneModel(small_cfg(dim=5))
    weights = np.array([1.5, -0.7, 0.0, 2.0, -3.0, 0.0, 0.25])
    w3 = np.array([0.4, 0.0, -1.2, 0.0, 0.9])
    w_att = np.array([0.3, -1.1, 0.6, 2.0, -0.4])
    upstream = np.random.default_rng(8).normal(size=len(weights))

    def run(channel):
        w3_t = T.Tensor(w3.copy(), requires_grad=True)
        w_att_t = T.Tensor(w_att.copy(), requires_grad=True)
        out = channel(w3_t, w_att_t)
        T.backward(T.sum_all(T.mul(out, upstream)))
        return out.values, w3_t.grad, w_att_t.grad

    def direct(w3_t, w_att_t):
        col = T.Tensor(weights.reshape(-1, 1))
        return T.matmul(T.leaky_relu(T.mul(col, w3_t), 0.2), w_att_t)

    got = run(lambda w3_t, w_att_t: model._edge_channel(weights, w3_t, w_att_t))
    want = run(direct)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-12


@pytest.mark.parametrize("backend", ["sage", "gat", "gin"])
def test_dropped_tape_is_freed_by_reference_counting(backend):
    model = GrafenneModel(small_cfg(phase2=backend), num_classes=2)
    alt = to_allotropic(toy())
    gc.collect()
    gc.disable()
    try:
        before = [o for o in gc.get_objects() if isinstance(o, T.Tensor)]
        known = {id(o) for o in before}
        hg, hf = model.forward(alt)
        loss = T.add(T.cross_entropy(model.logits(hg), [0, 1, 0]), T.sum_all(T.mul(hf, hf)))
        T.backward(loss)
        del hg, hf, loss
        alive = [o for o in gc.get_objects() if isinstance(o, T.Tensor)
                 and not isinstance(o, T.Parameter) and id(o) not in known]
    finally:
        gc.enable()
    assert alive == []


def test_gin_clone_symmetry():
    cfg = small_cfg(layers=1, dim=3, phase2="gin", gin_epsilon=0.0)
    g = HeteroGraph([0, 1], [(0, 1)], {}, {})
    model = GrafenneModel(cfg)
    h = np.random.default_rng(3).normal(size=3)
    hg = T.Tensor(np.stack([h, h]))
    out = model._phase2(0, to_allotropic(g), hg, None)
    p = {k.split("p2/")[1]: t.values for k, t in model.params.items() if "/p2/" in k}
    expect = _mlp(2.0 * h, p["mlp/A0"], p["mlp/b0"], p["mlp/A1"], p["mlp/b1"], 0.2)
    assert np.allclose(out.values[0], expect, atol=1e-12)
    assert np.allclose(out.values[1], expect, atol=1e-12)


def test_isolated_node_and_empty_feature_map():
    # node 2 has no edges and no features: every empty-neighborhood rule fires
    g = HeteroGraph([0, 1, 2], [(0, 1)], {0: {0: 1.0}}, {})
    for backend in ("sage", "gat", "gin"):
        model = GrafenneModel(small_cfg(phase2=backend))
        hg, hf = model.forward(to_allotropic(g))
        assert np.isfinite(hg.values).all() and np.isfinite(hf.values).all()
        hg_ref, _ = naive_forward(model, g)
        assert np.allclose(hg.values[2], hg_ref[2], atol=1e-9)


def test_no_features_graph():
    g = HeteroGraph([0, 1], [(0, 1)], {}, {})
    model = GrafenneModel(small_cfg())
    hg, hf = model.forward(to_allotropic(g))
    assert hg.shape == (2, 3) and hf.shape == (0, 3)


def test_permutation_invariance():
    feats_a = {0: {2: 1.0, 5: 0.4}, 3: {5: 2.0}, 1: {2: 0.1, 7: 0.9}}
    feats_b = {1: {7: 0.9, 2: 0.1}, 0: {5: 0.4, 2: 1.0}, 3: {5: 2.0}}
    ga = HeteroGraph([0, 1, 2, 3], [(0, 1), (1, 3), (2, 3)], feats_a, {})
    gb = HeteroGraph([3, 2, 1, 0], [(3, 2), (1, 0), (3, 1)], feats_b, {})
    model = GrafenneModel(small_cfg())
    ha, _ = model.forward(to_allotropic(ga))
    hb, _ = model.forward(to_allotropic(gb))
    assert np.abs(ha.values - hb.values).max() < 1e-9


def test_inductivity_parameter_counts():
    cfg = small_cfg()
    small = GrafenneModel(cfg, num_classes=4)
    big = GrafenneModel(cfg, num_classes=4)
    g_small = random_graph(np.random.default_rng(0), n_max=5)
    g_big = random_graph(np.random.default_rng(1), n_max=40)
    small.forward(to_allotropic(g_small))
    big.forward(to_allotropic(g_big))
    assert small.non_embedding_parameter_count() == big.non_embedding_parameter_count()
    # table grows by exactly dim per new feature
    before = len(small.table)
    small.table.ensure([999])
    assert len(small.table) == before + 1
    assert small.table.rows[999].size == cfg.dim


def test_unseen_nodes_and_features_forward():
    from grafenne.stream import StreamDelta, apply_delta

    g = random_graph(np.random.default_rng(5), n_max=10)
    model = GrafenneModel(small_cfg(), num_classes=2)
    model.forward(to_allotropic(g))
    count = model.non_embedding_parameter_count()
    new_nodes = tuple((max(g.nodes) + 1 + i, None) for i in range(5))
    new_feats = tuple((v, 1000 + (i % 3), 0.5) for i, (v, _) in enumerate(new_nodes))
    delta = StreamDelta(t=2, add_nodes=new_nodes,
                        add_edges=((new_nodes[0][0], g.nodes[0]),),
                        add_feats=new_feats)
    g2, _ = apply_delta(g, delta)
    hg, hf = model.forward(to_allotropic(g2))
    assert np.isfinite(hg.values).all() and np.isfinite(hf.values).all()
    assert model.non_embedding_parameter_count() == count


def test_phase_state_separation():
    g = tiny_graph()
    alt = to_allotropic(g)
    model = GrafenneModel(small_cfg(layers=1))
    hg0, hf0 = init_states(alt, model.table, model.config.dim)
    before = hf0.values.copy()
    hg1 = model._phase1(0, alt, hg0, hf0, None)
    assert np.array_equal(hf0.values, before)  # phase 1 leaves feature states alone
    hg2 = model._phase2(0, alt, hg1, None)
    assert np.array_equal(hf0.values, before)
    g_before = hg2.values.copy()
    model._phase3(0, alt, hg2, hf0, None)
    assert np.array_equal(hg2.values, g_before)  # phase 3 leaves graph states alone


def test_capped_forward_finite_and_seeded():
    g = random_graph(np.random.default_rng(8), n_max=20)
    cfg = small_cfg(cap_features=2, cap_nodes=2, cap_graph=2)
    model = GrafenneModel(cfg)
    alt = to_allotropic(g)
    a, _ = model.forward(alt, rng=np.random.default_rng(1))
    b, _ = model.forward(alt, rng=np.random.default_rng(1))
    c, _ = model.forward(alt, rng=np.random.default_rng(2))
    assert np.array_equal(a.values, b.values)
    assert np.isfinite(c.values).all()
    # eval path without an explicit rng is deterministic too
    d1, _ = model.forward(alt)
    d2, _ = model.forward(alt)
    assert np.array_equal(d1.values, d2.values)


def test_vanilla_matches_naive():
    rng = np.random.default_rng(77)
    g = random_graph(rng, n_max=8)
    model = VanillaAltModel(small_cfg(), num_classes=None)
    hg, hf = model.forward(to_allotropic(g))
    hg_ref, hf_ref = naive_vanilla_forward(model, g)
    for i, v in enumerate(g.nodes):
        assert np.allclose(hg.values[i], hg_ref[v], atol=1e-9)
    for i, f in enumerate(g.feature_ids()):
        assert np.allclose(hf.values[i], hf_ref[f], atol=1e-9)


def test_vanilla_no_feature_nodes_is_plain_sage_stack():
    g = HeteroGraph([0, 1, 2], [(0, 1), (1, 2)], {}, {})
    model = VanillaAltModel(small_cfg())
    hg, _ = model.forward(to_allotropic(g))
    h = {v: np.zeros(3) for v in g.nodes}
    nbrs = adjacency(g)
    for l in range(2):
        w = model.params[f"layer{l}/W"].values
        h = {v: np.maximum(np.concatenate(
            [h[v], np.mean([h[u] for u in nbrs[v]], axis=0)]) @ w, 0.0) for v in g.nodes}
    for v in g.nodes:
        assert np.allclose(hg.values[v], h[v], atol=1e-12)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    for backend in ("sage", "gat", "gin"):
        model = GrafenneModel(small_cfg(phase2=backend, gin_epsilon=0.1), num_classes=5)
        g = random_graph(np.random.default_rng(3), n_max=10)
        alt = to_allotropic(g)
        hg, _ = model.forward(alt)
        path = tmp_path / f"{backend}.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert set(loaded.params) == set(model.params)
        for name, p in model.params.items():
            assert loaded.params[name].values.tobytes() == p.values.tobytes()
        for f, row in model.table.rows.items():
            assert loaded.table.rows[f].values.tobytes() == row.values.tobytes()
        hg2, _ = loaded.forward(alt)
        assert hg2.values.tobytes() == hg.values.tobytes()


def test_recovery_probe_d1():
    mse, untrained = recovery_probe(d=1, trials=32, seed=0, epochs=300, lr=0.02)
    assert mse < 1e-4
    assert untrained > mse
