import gc
import json
import warnings

import numpy as np
import pytest

from grafenne import model as model_module
from grafenne import tensor as T
from grafenne.continual import StreamConfig, compute_importance, run_stream
from grafenne.graph import Edges, HeteroGraph, make_split, to_allotropic
from grafenne.imputation import DenseGnnModel, dense_inputs, impute_special_label
from grafenne.model import (FeatureEmbeddingTable, GrafenneConfig, GrafenneModel,
                            VanillaAltModel, init_states, recovery_probe)
from grafenne.stream import generate_stream
from grafenne.synth import make_community_graph
from grafenne.tasks import allotropic_forward, method_model
from checkpoint import load_checkpoint, save_checkpoint
from naive_ref import (adjacency, leaky, naive_forward, naive_vanilla_forward, _mlp,
                       with_destination_block, with_self_block)
from test_graph import random_graph, toy


def small_cfg(**kw):
    base = dict(layers=2, dim=3, phase2="sage", seed=42)
    base.update(kw)
    return GrafenneConfig(**base)


def with_epsilon(model, value):
    """model with every GIN epsilon set to value."""
    for name, p in model.params.items():
        if name.endswith("/epsilon"):
            p.values = np.array(value)
    return model


def embedding(table, f):
    return table.weight.values[table.row[f]]


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
    hf = init_states(alt, table)
    assert hf.shape == (2, 3)
    assert np.array_equal(hf.values[0], embedding(table, 0))
    assert np.array_equal(hf.values[1], embedding(table, 1))
    # a second graph sharing feature ids reuses identical rows
    g2 = HeteroGraph([0, 1], [(0, 1)], {1: {1: 2.0}}, {})
    hf2 = init_states(to_allotropic(g2), table)
    assert np.array_equal(hf2.values[0], hf.values[1])


def test_embedding_rows_insertion_order_independent():
    a = FeatureEmbeddingTable(dim=4, seed=9)
    a.ensure([3, 1, 7])
    b = FeatureEmbeddingTable(dim=4, seed=9)
    b.ensure([7])
    b.ensure([1, 3])
    for f in (1, 3, 7):
        assert np.array_equal(embedding(a, f), embedding(b, f))


def test_table_growth_appends_rows_drawn_from_seed_and_id():
    table = FeatureEmbeddingTable(dim=4, seed=9)
    table.ensure([3, 1])
    old = table.weight.values
    old_bytes = old.tobytes()
    table.ensure([1, 8, 8, 5])
    # appended in first-seen order; the old block is rebound, not written
    assert table.row == {3: 0, 1: 1, 8: 2, 5: 3}
    assert table.weight.shape == (4, 4)
    assert old.tobytes() == old_bytes
    assert table.weight.values[:2].tobytes() == old_bytes
    for f in (3, 1, 8, 5):
        draw = np.random.default_rng([9, 13, f]).normal(0.0, 1.0 / np.sqrt(4), size=4)
        assert embedding(table, f).tobytes() == draw.tobytes()


def test_parameter_list_fixed_while_the_table_grows():
    model = GrafenneModel(GrafenneConfig(layers=2, dim=64, seed=0), num_classes=7)
    params = model.trainable_parameters()
    assert len(params) == 31
    assert "layer0/p1/W5" not in model.params and "layer1/p1/W5" in model.params
    assert model.params["layer0/p1/mlp/A0"].shape == (64, 64)
    assert not any(p.name.startswith("layer1/p3/") for p in params)
    g = random_graph(np.random.default_rng(4), n_max=12)
    model.forward(to_allotropic(g))
    model.forward(to_allotropic(tiny_graph()))
    after = model.trainable_parameters()
    assert len(after) == len(params) and all(a is b for a, b in zip(after, params))
    assert model.table.weight is params[-1]
    assert set(model.table.row) == set(g.feature_ids()) | {0, 1}


def test_phase1_hand_tiny_instance():
    # 1 graph node, 2 feature nodes, d=2: spell out the concatenated form
    cfg = small_cfg(layers=1, dim=2)
    g = tiny_graph()
    model = GrafenneModel(cfg)
    hg_t, _ = model.forward(to_allotropic(g))
    p = {k.split("p1/")[1]: v.values for k, v in model.params.items() if "/p1/" in k}
    p = with_destination_block(p, "W2", "W1", "w4", seed=1)  # an arbitrary W1: it cancels
    p = with_self_block(p, seed=1)  # an arbitrary W5 and A0 top block: hv is zero
    h0, h1 = embedding(model.table, 0), embedding(model.table, 1)
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
    p = with_destination_block(p, "W2", "W1", "w4", seed=2)  # an arbitrary W1: it cancels
    p = with_self_block(p, seed=2)  # an arbitrary W5 and A0 top block: hv is zero
    hv = np.zeros(model.config.dim)
    pairs = sorted(g.node_feats(v).items())
    msgs = [leaky(np.concatenate([hv @ p["W1"], embedding(model.table, f) @ p["W2"],
                                  w * p["w3"]]))
            for f, w in pairs]
    s = np.array([m @ p["w4"] for m in msgs])
    e = np.exp(s - s.max())
    alpha = e / e.sum()
    agg = sum(a * (embedding(model.table, f) @ p["W6"])
              for a, (f, _) in zip(alpha, pairs))
    return _mlp(np.concatenate([hv @ p["W5"], agg]),
                p["mlp/A0"], p["mlp/b0"], p["mlp/A1"], p["mlp/b1"], 0.2)


@pytest.mark.parametrize("backend", ["sage", "gat", "gin"])
def test_forward_matches_naive_reference(backend):
    rng = np.random.default_rng(100)
    for trial in range(4):
        g = random_graph(rng, n_max=8)
        model = with_epsilon(GrafenneModel(small_cfg(phase2=backend, seed=trial)), 0.3)
        hg, hf = model.forward(to_allotropic(g))
        assert np.isfinite(hg.values).all() and np.isfinite(hf.values).all()
        hg_ref, hf_ref = naive_forward(model, g)
        for i, v in enumerate(g.nodes):
            assert np.allclose(hg.values[i], hg_ref[v], atol=1e-9), (backend, trial, v)
        for i, f in enumerate(g.feature_ids()):
            assert np.allclose(hf.values[i], hf_ref[f], atol=1e-9), (backend, trial, f)


@pytest.mark.parametrize("backend", ["sage", "gat", "gin"])
@pytest.mark.parametrize("capped", [False, True])
def test_a_featureless_graph_takes_the_one_attention_path(backend, capped):
    """No feature entries: phases 1 and 3 attend over empty layouts, the
    graph states match the naive reference, and every phase-3 parameter
    and every phase-1 parameter that scores or carries a feature message
    gets an all-zero gradient. The caps are set on every layout; the
    graph cap equals the largest in-degree, so no edge is dropped."""
    rng = np.random.default_rng(12)
    g = random_graph(rng, n_max=10).replace(feats={})
    alt = to_allotropic(g)
    assert (alt.m, len(alt.feat_to_node)) == (0, 0)
    top = max(int(np.diff(alt.node_to_node.indptr).max()), 1)
    caps = dict(cap_features=1, cap_nodes=1, cap_graph=top) if capped else {}
    model = with_epsilon(GrafenneModel(small_cfg(layers=3, phase2=backend, **caps), 3), 0.3)
    for name, p in model.params.items():  # zero biases would make every state zero
        if name.endswith(("/b0", "/b1")):
            p.values = rng.normal(size=p.values.shape)
    hg, hf = model.forward(alt)
    assert np.abs(hg.values).max() > 0.1
    assert hf.shape == (0, 3)
    hg_ref, _ = naive_forward(model, g)
    for i, v in enumerate(g.nodes):
        assert np.allclose(hg.values[i], hg_ref[v], atol=1e-9), (backend, v)
    T.backward(T.cross_entropy(model.logits(hg), np.zeros(g.num_nodes, dtype=np.int64)))
    silent = [p for name, p in model.params.items()
              if "/p3/" in name or name.split("/")[-1] in ("W2", "w3", "w4", "W6")]
    assert len(silent) == 2 * 9 + 3 * 4  # p3 in layers 0 and 1; p1 in all three
    for p in silent:
        assert np.array_equal(p.grad, np.zeros_like(p.values)), p.name
    assert model.params["head/b"].grad.any()  # the sweep reached the model


def test_uniform_attention_when_messages_identical():
    # two features with equal value and equal embeddings: alpha = 1/2 each
    cfg = small_cfg(layers=1, dim=2)
    g = HeteroGraph([0], [], {0: {0: 0.5, 1: 0.5}}, {})
    model = GrafenneModel(cfg)
    model.table.ensure([0, 1])
    block = model.table.weight.values.copy()
    block[model.table.row[1]] = block[model.table.row[0]]
    model.table.weight.values = block
    hg, _ = model.forward(to_allotropic(g))
    g_single = HeteroGraph([0], [], {0: {0: 0.5}}, {})
    hg_single, _ = model.forward(to_allotropic(g_single))
    assert np.allclose(hg.values[0], hg_single.values[0], atol=1e-12)


def test_edge_channel_matches_direct_form():
    # tensor.attention over the model's sign-split coefficients against an
    # attention scored with LR(w v) less its value on the first edge into
    # the same destination, with negative, zero and positive edge weights
    # and exactly-zero components, where the subgradient of LeakyReLU takes
    # the positive branch; destinations 0, 2 and 3 hold several edges, 1 none
    d = 5
    weights = np.array([1.5, -0.7, 0.0, 2.0, -3.0, 0.0, 0.25])
    dst = np.array([0, 0, 0, 2, 2, 3, 3])
    w3 = np.array([0.4, 0.0, -1.2, 0.0, 0.9])
    a_edge = np.array([0.3, -1.1, 0.6, 2.0, -0.4])
    rng = np.random.default_rng(8)
    h, w_src, w_msg = rng.normal(size=(7, 3)), rng.normal(size=(3, d)), rng.normal(size=(3, d))
    w_att = np.concatenate([rng.normal(size=d), a_edge])
    upstream = rng.normal(size=(4, d))
    edges = Edges(np.arange(7), dst, (4, 7), weight=weights)

    def run(attend):
        leaves = [T.Tensor(a.copy(), requires_grad=True) for a in (h, w_src, w_att, w_msg, w3)]
        out = attend(*leaves)
        T.backward(T.sum_all(T.mul(out, upstream)))
        return [out.values] + [leaf.grad for leaf in leaves]

    def direct(h_t, w_src_t, w_att_t, w_msg_t, w3_t):
        s_src = T.matmul(T.leaky_relu(T.matmul(h_t, w_src_t), 0.2), T.slice_rows(w_att_t, 0, d))
        col = T.Tensor(weights.reshape(-1, 1))
        channel = T.matmul(T.leaky_relu(T.mul(col, w3_t), 0.2), T.slice_rows(w_att_t, d, 2 * d))
        channel = T.sub(channel, T.gather_rows(channel, edges.indptr[dst]))
        score = T.add(T.gather_rows(s_src, edges.src), channel)
        return T.spmm(T.segment_softmax(score, dst, 4), edges, T.matmul(h_t, w_msg_t))

    coef = edges.derived(model_module._sign_split)
    got = run(lambda h_t, w_src_t, w_att_t, w_msg_t, w3_t:
              T.attention(h_t, edges, w_src_t, w_att_t, w_msg_t, 0.2, coef, w3_t))
    want = run(direct)
    assert np.any(want[-1] != 0.0) and np.any(want[3][d:] != 0.0)  # the channel trains
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-12


@pytest.mark.parametrize("phase2", ["sage", "gat", "gin"])
def test_binary_features_give_the_edge_channel_exactly_zero_gradients(phase2):
    """With every feature value 1, as in the static workload and the c11
    stream, each edge channel is constant within its softmax segment: w3,
    w9 and the edge segments of w4 and w10 get exactly zero gradients, not
    rounding noise that Adam would turn into moves."""
    g = _varied_graph()
    g = g.replace(feats=(g.feat_node, g.feat_id, np.ones(len(g.feat_value))))
    d = 4
    model = GrafenneModel(small_cfg(phase2=phase2, dim=d, layers=2), g.num_classes)
    h = model.forward(to_allotropic(g))[0]
    T.backward(T.cross_entropy(model.logits(h), [g.labels[v] for v in g.nodes]))
    p, channel = model.params, {}
    for l, phase, (w_edge, w_att) in ((0, "p1", ("w3", "w4")), (1, "p1", ("w3", "w4")),
                                      (0, "p3", ("w9", "w10"))):
        assert np.any(p[f"layer{l}/{phase}/{w_att}"].grad[:d])  # the source segment trains
        channel[f"layer{l}/{phase}/{w_edge}"] = p[f"layer{l}/{phase}/{w_edge}"].grad
        channel[f"layer{l}/{phase}/{w_att}[d:]"] = p[f"layer{l}/{phase}/{w_att}"].grad[d:]
    assert {k: np.abs(v).max() for k, v in channel.items()} == dict.fromkeys(channel, 0.0)


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
    cfg = small_cfg(layers=1, dim=3, phase2="gin")
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
    assert sum(p.size for p in small.params.values()) == sum(p.size for p in big.params.values())
    # table grows by exactly one row of dim entries per new feature
    rows = small.table.weight.shape[0]
    small.table.ensure([999])
    assert small.table.weight.shape == (rows + 1, cfg.dim)
    assert small.table.row[999] == rows


def test_unseen_nodes_and_features_forward():
    from grafenne.stream import StreamDelta, apply_delta

    g = random_graph(np.random.default_rng(5), n_max=10)
    model = GrafenneModel(small_cfg(), num_classes=2)
    model.forward(to_allotropic(g))
    count = sum(p.size for p in model.params.values())
    new_nodes = tuple((max(g.nodes) + 1 + i, None) for i in range(5))
    new_feats = tuple((v, 1000 + (i % 3), 0.5) for i, (v, _) in enumerate(new_nodes))
    delta = StreamDelta(t=2, add_nodes=new_nodes,
                        add_edges=((new_nodes[0][0], g.nodes[0]),),
                        add_feats=new_feats)
    g2, _ = apply_delta(g, delta)
    hg, hf = model.forward(to_allotropic(g2))
    assert np.isfinite(hg.values).all() and np.isfinite(hf.values).all()
    assert sum(p.size for p in model.params.values()) == count


def test_phase_state_separation():
    g = tiny_graph()
    alt = to_allotropic(g)
    model = GrafenneModel(small_cfg(layers=2))
    hf0 = init_states(alt, model.table)
    before = hf0.values.copy()
    hg1 = model._phase1(0, alt, None, hf0, None)  # no graph state before layer 0
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


def _edges_built(monkeypatch):
    """The shape of every Edges layout constructed from now on."""
    built = []
    orig = Edges.__init__

    def counted(self, src, dst, shape, weight=None):
        built.append(shape)
        orig(self, src, dst, shape, weight)

    monkeypatch.setattr(Edges, "__init__", counted)
    return built


@pytest.mark.parametrize("phase2, caps, per_layer", [
    ("sage", (0, 0, 0), 0), ("gin", (0, 0, 0), 0), ("gat", (0, 0, 0), 1),
    ("sage", (1, 1, 1), 3), ("gin", (1, 1, 1), 3), ("gat", (1, 1, 1), 4),
    ("gin", (1, 0, 0), 1), ("sage", (99, 99, 99), 0)])
def test_forward_builds_edges_only_for_self_loops_and_binding_caps(monkeypatch, phase2, caps,
                                                                   per_layer):
    """Each layer's forward needs per_layer layouts: one per binding cap,
    and GAT's self-looped layout, less the last layer's phase 3, which
    does not run. The self-looped layout is built once per graph when the
    graph cap does not bind (the first forward over the graph builds it),
    and anew with every capped layout when it does."""
    g = random_graph(np.random.default_rng(8), n_max=20)
    alt = to_allotropic(g)
    for edges in (alt.feat_to_node, alt.node_to_feat, alt.node_to_node):
        assert 1 < np.diff(edges.indptr).max() < 99  # a cap of 1 binds, one of 99 never
    cfg = small_cfg(layers=3, phase2=phase2, cap_features=caps[0], cap_nodes=caps[1],
                    cap_graph=caps[2])
    model = GrafenneModel(cfg)
    once = int(phase2 == "gat" and caps[2] != 1)
    no_phase3 = int(caps[1] == 1)  # the last layer's capped node_to_feat
    built = _edges_built(monkeypatch)
    model.forward(alt)
    assert len(built) == 3 * (per_layer - once) + once - no_phase3
    if phase2 == "gat" and not any(caps):
        assert built == [(alt.n, alt.n)]
    built.clear()
    model.forward(alt)
    assert len(built) == 3 * (per_layer - once) - no_phase3
    built.clear()
    vanilla = VanillaAltModel(cfg)
    vanilla.forward(alt)
    assert built == [(alt.n + alt.m, alt.n + alt.m)]
    vanilla.forward(alt)
    assert len(built) == 1


def _csr_built(monkeypatch):
    """The shape of every scipy.sparse.csr_matrix constructed from now on."""
    built = []
    orig = T.sp.csr_matrix

    def counted(*args, shape=None, **kwargs):
        built.append(shape)
        return orig(*args, shape=shape, **kwargs)

    monkeypatch.setattr(T.sp, "csr_matrix", counted)
    return built


def _square_loss(hg, hf):
    return T.add(T.sum_all(T.mul(hg, hg)), T.sum_all(T.mul(hf, hf)))


def _train_passes(model, alt, passes):
    for _ in range(passes):
        T.backward(_square_loss(*model.forward(alt)))


@pytest.mark.parametrize("kind", ["sage", "gat", "gin", "vanilla", "dense"])
def test_sparse_matrices_are_built_once_per_layout(monkeypatch, kind):
    g = random_graph(np.random.default_rng(8), n_max=20)
    alt = to_allotropic(g)
    built = _csr_built(monkeypatch)
    if kind == "dense":
        _, forward = method_model("gat", g, "link_prediction", dim=3, layers=2)
        for _ in range(3):
            h = forward()
            T.backward(T.sum_all(T.mul(h, h)))
        assert built == [(alt.n, alt.n)]  # GAT's self-looped layout
    elif kind == "vanilla":
        _train_passes(VanillaAltModel(small_cfg()), alt, 3)
        assert built == [(alt.n + alt.m,) * 2]
    else:
        _train_passes(GrafenneModel(small_cfg(phase2=kind)), alt, 3)
        # phase 1, phase 2 (GAT's over its self-looped layout), phase 3
        assert sorted(built) == sorted([(alt.n, alt.m), (alt.n, alt.n), (alt.m, alt.n)])


@pytest.mark.parametrize("phase2", ["sage", "gat", "gin"])
def test_backward_after_another_forward_on_the_same_graph_is_unchanged(phase2):
    """Forward A, forward B with other parameters over the same graph, then
    backward A: A's gradients are those of a forward and backward alone on
    a fresh graph, though A's and B's attentions share the graph's sparse
    matrices."""
    g = random_graph(np.random.default_rng(8), n_max=20)
    grads = []
    for interleave in (False, True):
        alt = to_allotropic(g)
        model = GrafenneModel(small_cfg(phase2=phase2, seed=42))
        hg, hf = model.forward(alt)
        if interleave:
            GrafenneModel(small_cfg(phase2=phase2, seed=7)).forward(alt)
        T.backward(_square_loss(hg, hf))
        grads.append([p.grad for p in model.trainable_parameters()])
    for alone, interleaved in zip(*grads):
        assert np.array_equal(alone, interleaved)


def _phase3_calls(monkeypatch):
    """(layer index, output) of every GrafenneModel._phase3 call from now on."""
    calls = []
    orig = GrafenneModel._phase3

    def counted(self, l, *args):
        calls.append((l, orig(self, l, *args)))
        return calls[-1][1]
    monkeypatch.setattr(GrafenneModel, "_phase3", counted)
    return calls


@pytest.mark.parametrize("layers, caps", [(1, 0), (2, 0), (3, 0), (1, 2), (2, 2), (3, 2)])
def test_phase3_runs_in_every_layer_but_the_last(monkeypatch, layers, caps):
    g = random_graph(np.random.default_rng(5), n_max=20)
    alt = to_allotropic(g)
    model = GrafenneModel(small_cfg(layers=layers, cap_features=caps, cap_nodes=caps,
                                    cap_graph=caps))
    assert not any(name.startswith(f"layer{layers - 1}/p3/") for name in model.params)
    read = _phase3_calls(monkeypatch)
    _, hf = model.forward(alt)
    assert [l for l, _ in read] == list(range(layers - 1))  # none at all with one layer
    # the feature states returned are those the last layer read
    want = read[-1][1] if read else init_states(alt, model.table)
    assert np.array_equal(hf.values, want.values)


def test_allotropic_forward_returns_the_graph_states():
    g = random_graph(np.random.default_rng(6), n_max=12)
    for model in (GrafenneModel(small_cfg()), VanillaAltModel(small_cfg())):
        hg, _ = model.forward(to_allotropic(g))
        assert np.array_equal(allotropic_forward(model, g)().values, hg.values)


def test_importance_and_stream_never_run_the_last_phase3(monkeypatch):
    g = make_community_graph(n=40, classes=2, feats_per_class=4, p_in=0.12,
                             p_out=0.01, density=0.9, noise=0.0, seed=3)
    deltas = generate_stream(g, T=2, p_n=0.2, p_f_add=0.05, p_f_del=0.4,
                             p_e_add=0.001, p_e_del=0.001, seed=5)
    calls = _phase3_calls(monkeypatch)
    model = GrafenneModel(small_cfg(layers=2), num_classes=g.num_classes)
    compute_importance(model, g, make_split(g, seed=0).train[:5])
    assert [l for l, _ in calls] == [0]
    calls.clear()
    cfg = StreamConfig(epochs=3, stream_epochs=2, lr=0.01, dim=4, layers=2, seed=0)
    for strategy in ("EWC", "FT"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty importance set warns
            run_stream(g, deltas, strategy, cfg)
    assert calls and {l for l, _ in calls} == {0}


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
        model = with_epsilon(GrafenneModel(small_cfg(phase2=backend), num_classes=5), 0.1)
        g = random_graph(np.random.default_rng(3), n_max=10)
        alt = to_allotropic(g)
        hg, _ = model.forward(alt)
        path = tmp_path / f"{backend}.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert set(loaded.params) == set(model.params)
        for name, p in model.params.items():
            assert loaded.params[name].values.tobytes() == p.values.tobytes()
        assert loaded.table.row == model.table.row
        assert loaded.table.weight.values.tobytes() == model.table.weight.values.tobytes()
        hg2, _ = loaded.forward(alt)
        assert hg2.values.tobytes() == hg.values.tobytes()


def test_load_checkpoint_rejects_arrays_of_the_wrong_shape(tmp_path):
    model = GrafenneModel(small_cfg(), num_classes=3)
    model.forward(to_allotropic(tiny_graph()))
    save_checkpoint(model, tmp_path / "good.npz")
    with np.load(tmp_path / "good.npz") as blob:
        arrays = dict(blob)
    # a (1,) bias would broadcast into the logits, a width-1 row into the
    # block; a (2d, d) layer-0 phase-1 A0 is a version-3 layout
    d = model.config.dim
    for key, value in (("p/head/b", np.zeros(1)), ("t/1", np.zeros(1)),
                       ("p/layer0/p1/mlp/A0", np.zeros((2 * d, d)))):
        np.savez(tmp_path / "bad.npz", **{**arrays, key: value})
        with pytest.raises(ValueError, match=f"'{key}' has shape"):
            load_checkpoint(tmp_path / "bad.npz")


def _saved_arrays(tmp_path):
    model = GrafenneModel(small_cfg(), num_classes=3)
    save_checkpoint(model, tmp_path / "good.npz")
    with np.load(tmp_path / "good.npz") as blob:
        return dict(blob)


def test_load_checkpoint_rejects_another_version(tmp_path):
    arrays = _saved_arrays(tmp_path)
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    meta = np.frombuffer(json.dumps({**meta, "version": 3}).encode(), dtype=np.uint8)
    np.savez(tmp_path / "v3.npz", **{**arrays, "__meta__": meta})
    with pytest.raises(ValueError, match="unsupported checkpoint version 3"):
        load_checkpoint(tmp_path / "v3.npz")


def test_load_checkpoint_rejects_a_parameter_the_model_does_not_build(tmp_path):
    # W5, layer 0's phase-1 self projection in a version-3 file
    arrays = {**_saved_arrays(tmp_path), "p/layer0/p1/W5": np.zeros((3, 3))}
    np.savez(tmp_path / "w5.npz", **arrays)
    with pytest.raises(ValueError, match="'layer0/p1/W5' unknown to model"):
        load_checkpoint(tmp_path / "w5.npz")


def _varied_graph():
    """12 nodes, 5 features: values differ within each node's entries and
    within each feature's entries, so no edge channel is constant within a
    softmax segment."""
    rng = np.random.default_rng(23)
    n = 12
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    feats = {v: {int(f): float(rng.uniform(0.2, 2.0)) * rng.choice([-1.0, 1.0])
                 for f in rng.choice(5, size=3, replace=False)} for v in range(n)}
    return HeteroGraph(range(n), edges, feats, {v: v % 3 for v in range(n)})


@pytest.mark.parametrize("kind", ["sage", "gat", "gin", "vanilla",
                                  "dense+sage", "dense+gat", "dense+gin"])
def test_no_parameter_is_dead(kind):
    """One cross-entropy backward, over 1 to 3 layers, reaches every
    parameter. With a GAT or GIN backbone it reaches every row of each
    weight (every entry of a vector) too, so no block that reads an input
    zero by construction, as a self part of layer 0's phase 1 would, can
    hide. SAGE and the vanilla model keep the per-parameter check: at
    dim 4, a ReLU unit that is zero on every node leaves the row of the
    next weight that reads it without a gradient (head/W row 1 in 3-layer
    SAGE), which comes from the data, not from the model's structure."""
    g = _varied_graph()
    per_row = kind.split("+")[-1] in ("gat", "gin")
    dead = []
    for layers in (1, 2, 3):
        cfg = small_cfg(phase2=kind.split("+")[-1] if kind != "vanilla" else "sage", dim=4,
                        layers=layers)
        if kind.startswith("dense"):
            dense = impute_special_label(g)
            model = DenseGnnModel(cfg, len(dense.feat_ids), g.num_classes)
            h = model.forward(*dense_inputs(g, dense))
        else:
            model = (VanillaAltModel if kind == "vanilla" else GrafenneModel)(cfg, g.num_classes)
            h = model.forward(to_allotropic(g))[0]
        T.backward(T.cross_entropy(model.logits(h), [g.labels[v] for v in g.nodes]))
        grads = {p.name: np.zeros(p.shape) if p.grad is None else np.abs(p.grad)
                 for p in model.trainable_parameters()}
        largest = max(a.max() for a in grads.values())
        for name, a in grads.items():
            rows = a.reshape(len(a), -1).max(axis=1) if per_row and a.ndim else [a.max()]
            dead += [(layers, name, i) for i, s in enumerate(rows) if not s > 1e-8 * largest]
    assert dead == []


_ZERO_INIT = ("/b0", "/b1", "head/b", "/epsilon")


@pytest.mark.parametrize("kind", ["sage", "gat", "gin", "vanilla",
                                  "dense+sage", "dense+gat", "dense+gin"])
def test_every_glorot_draw_is_a_kept_parameter(monkeypatch, kind):
    """Each glorot draw is one parameter's initial values, in construction
    order, and every parameter but the zero-initialised biases and GIN
    epsilons is one: nothing is drawn and thrown away."""
    draws = []
    glorot = model_module.glorot

    def recorded(rng, shape):
        draws.append(glorot(rng, shape))
        return draws[-1]

    monkeypatch.setattr(model_module, "glorot", recorded)
    for layers in (1, 2, 3):
        draws.clear()
        cfg = small_cfg(phase2=kind.split("+")[-1] if kind != "vanilla" else "sage", dim=4,
                        layers=layers)
        if kind.startswith("dense"):
            model = DenseGnnModel(cfg, 6, 3)
        else:
            model = (VanillaAltModel if kind == "vanilla" else GrafenneModel)(cfg, 3)
        kept = [p.values for name, p in model.params.items() if not name.endswith(_ZERO_INIT)]
        assert len(draws) == len(kept), layers
        assert all(np.array_equal(a, b) for a, b in zip(draws, kept)), layers
        assert not any(p.values.any() for name, p in model.params.items()
                       if name.endswith(_ZERO_INIT))


def test_recovery_probe_d1():
    mse, untrained = recovery_probe(d=1, trials=32, seed=0, epochs=300, lr=0.02)
    assert mse < 1e-4
    assert untrained > mse
