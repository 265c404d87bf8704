import dataclasses
import warnings

import numpy as np
import pytest

import grafenne.tensor as T
from grafenne.continual import (EwcState, ReplayBuffer, StreamConfig, StreamRecord,
                                compute_importance, continual_loss, run_stream,
                                sample_U, stream_rows, write_stream_csv, _entries_changed,
                                _train_plain)
from grafenne.graph import make_split, to_allotropic
from grafenne.model import GrafenneConfig, GrafenneModel
from grafenne.optim import zero_grad
from grafenne.stream import StreamDelta, apply_delta, generate_stream
from grafenne.synth import make_community_graph
from grafenne.tasks import allotropic_forward


class ToyModel:
    def __init__(self, *values):
        self.params = [T.Parameter(np.asarray(v, dtype=np.float64), f"w{i}")
                       for i, v in enumerate(values)]

    def trainable_parameters(self):
        return self.params


def drift_graph(n=40, seed=3):
    return make_community_graph(n=n, classes=2, feats_per_class=4, p_in=0.12,
                                p_out=0.01, density=0.9, noise=0.0, seed=seed)


def small_stream(g, t=2, seed=5):
    return generate_stream(g, T=t, p_n=0.2, p_f_add=0.05, p_f_del=0.4,
                           p_e_add=0.001, p_e_del=0.001, seed=seed)


def quick_cfg(**kw):
    base = dict(epochs=25, stream_epochs=8, lr=0.01, dim=8, layers=1, seed=0)
    base.update(kw)
    return StreamConfig(**base)


# ------------------------------------------------------------- sample_U


def test_sample_u_cases():
    pool = [5, 3, 9, 1]
    assert sample_U(pool, 0, seed=0) == ()
    assert sample_U(pool, 4, seed=0) == (1, 3, 5, 9)
    assert sample_U(pool, 2, seed=1) == sample_U(pool, 2, seed=1)
    with pytest.raises(ValueError, match="pool"):
        sample_U(pool, 5, seed=0)


# ------------------------------------------------------- compute_importance


def importance_model(layers=1, phase2="sage", seed=2):
    return GrafenneModel(GrafenneConfig(layers=layers, dim=4, phase2=phase2, seed=seed), 2)


def test_importance_single_param_analytic():
    # the head bias's gradient for node v is softmax(logits_v) - onehot(y_v)
    g = drift_graph(n=12)
    model = importance_model()
    nodes = [0, 3, 5, 8, 11]
    logits = model.logits(allotropic_forward(model, g)()).values
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    dbias = z / z.sum(axis=1, keepdims=True) - np.eye(2)[[g.labels[v] for v in g.nodes]]
    omega = compute_importance(model, g, nodes)
    want = np.mean(np.square(dbias[[g.nodes.index(v) for v in nodes]]), axis=0)
    np.testing.assert_allclose(omega["head/b"], want, rtol=1e-12, atol=0)


def test_importance_unused_param_zero():
    # no task loss reads the embedding row of a feature the graph lacks
    g = drift_graph(n=12)
    model = importance_model()
    model.table.ensure([999])
    omega = compute_importance(model, g, [0, 1, 2])
    assert 999 not in g.feature_ids()
    assert not omega["feat_embed"][model.table.row[999]].any()
    assert omega["feat_embed"].any() and omega["head/W"].any()


def test_importance_ignores_a_stale_grad_the_logits_do_not_reach():
    g = drift_graph(n=12)
    model = importance_model()
    model.table.ensure([999])
    for p in model.trainable_parameters():
        p.grad = np.ones_like(p.values)  # left over from an earlier backward
    omega = compute_importance(model, g, [0, 1, 2])
    assert not omega["feat_embed"][model.table.row[999]].any()
    # without features, phase 1 has no edge to score: the logits do not
    # reach its attention weights, whose stale grads the sweeps never reset
    for p in model.trainable_parameters():
        p.grad = np.ones_like(p.values)
    omega = compute_importance(model, g.replace(feats={}), [0, 1, 2])
    assert not omega["layer0/p1/W2"].any()


def test_importance_empty_set_warns():
    g = drift_graph(n=12)
    model = importance_model()
    with pytest.warns(UserWarning, match="empty"):
        omega = compute_importance(model, g, [])
    assert omega.keys() == {p.name for p in model.trainable_parameters()}
    assert all(not w.any() for w in omega.values())


def test_importance_recomputation_oracle():
    g = drift_graph(n=12)
    model = GrafenneModel(GrafenneConfig(layers=1, dim=4, phase2="sage", seed=2), 2)
    nodes = [0, 3, 5, 8, 11]
    fwd = allotropic_forward(model, g)
    fwd()  # populate the embedding table
    omega = compute_importance(model, g, nodes)

    # independent recomputation: fresh forward per node
    params = model.trainable_parameters()
    want = {p.name: np.zeros_like(p.values) for p in params}
    row_of = {v: i for i, v in enumerate(g.nodes)}
    for v in nodes:
        zero_grad(params)
        h = model.forward(to_allotropic(g))[0]
        loss = T.cross_entropy(T.gather_rows(model.logits(h), np.array([row_of[v]])),
                               np.array([g.labels[v]]))
        T.backward(loss)
        for p in params:
            if p.grad is not None:  # a missing grad counts as zero
                want[p.name] += np.square(p.grad)
    for k in want:
        want[k] /= len(nodes)
        denom = np.maximum(np.abs(want[k]), 1e-12)
        assert (np.abs(omega[k] - want[k]) / denom).max() < 1e-8


def test_importance_seeded_sweep_equals_per_node_cross_entropy():
    g = drift_graph(n=14)
    nodes = [1, 4, 6, 9, 13]
    seeded = compute_importance(importance_model(2, "gat", 5), g, nodes)

    # oracle: one explicit cross-entropy per node over one shared forward,
    # each swept from its scalar loss
    model = importance_model(2, "gat", 5)
    params = model.trainable_parameters()
    logits = model.logits(allotropic_forward(model, g)())
    explicit = {p.name: np.zeros_like(p.values) for p in params}
    for v in nodes:
        loss = T.cross_entropy(T.gather_rows(logits, np.array([g.nodes.index(v)])),
                               np.array([g.labels[v]]))
        for node in T._topo_order(loss):
            node.grad = None
        zero_grad(params)
        T.backward(loss)
        for p in params:
            if p.grad is not None:  # a missing grad counts as zero
                explicit[p.name] += np.square(p.grad)
    for k in explicit:
        explicit[k] *= 1.0 / len(nodes)

    assert seeded.keys() == explicit.keys()
    for k in seeded:
        assert np.array_equal(seeded[k], explicit[k]), k


def test_importance_of_an_embedding_row_absent_from_the_graph_is_zero():
    g = drift_graph(n=12)
    model = importance_model()
    allotropic_forward(model, g)()  # creates every feature's embedding row
    gone = max(g.feature_ids())
    g_now = g.replace(feats={v: {f: x for f, x in fmap.items() if f != gone}
                             for v, fmap in g.feats.items()})
    omega = compute_importance(model, g_now, [0, 3, 5])
    rows = omega["feat_embed"]
    assert rows.shape == model.table.weight.shape
    assert not rows[model.table.row[gone]].any()
    assert any(rows[model.table.row[f]].any() for f in g_now.feature_ids())


def test_train_plain_raises_on_a_nan_loss():
    toy = ToyModel(np.array([1.0, np.nan]))
    w = toy.params[0]
    with pytest.raises(FloatingPointError, match="training loss is nan at epoch 1 of 3"):
        _train_plain(toy, lambda: w, lambda h: T.sum_all(T.mul(h, h)), 3, 0.1)


def test_train_plain_raises_on_a_non_finite_parameter():
    # w1 is outside the loss, so the loss stays finite while w1 is NaN
    toy = ToyModel(np.array([1.0]), np.array([np.nan]))
    w = toy.params[0]
    with pytest.raises(FloatingPointError, match="parameter w1 is not finite after training"):
        _train_plain(toy, lambda: w, lambda h: T.sum_all(T.mul(h, h)), 3, 0.1)


def test_importance_bitwise_repeatable():
    g = drift_graph(n=10)
    model = GrafenneModel(GrafenneConfig(layers=1, dim=4, phase2="sage", seed=4), 2)
    a = compute_importance(model, g, [0, 1, 2])
    b = compute_importance(model, g, [0, 1, 2])
    assert a.keys() == b.keys()
    for k in a:
        assert a[k].tobytes() == b[k].tobytes()


# ---------------------------------------------------------- continual_loss


def _penalty_case():
    """(graph, model, node states, the model's parameter vector) after one
    forward, which gives every feature of the graph its embedding row."""
    g = drift_graph(n=14)
    model = GrafenneModel(GrafenneConfig(layers=1, dim=4, phase2="sage", seed=1), 2)
    h = allotropic_forward(model, g)()
    theta = np.concatenate([p.values.ravel() for p in model.trainable_parameters()])
    return g, model, h, theta


def test_continual_loss_scalar_penalty():
    g, model, h, theta = _penalty_case()
    anchor, weight = theta.copy(), np.zeros_like(theta)
    anchor[3] -= 0.5
    weight[3] = 1.0
    ewc = EwcState(lam=2.0, anchor=anchor, weight=weight)
    full = continual_loss(model, [0, 1], ewc, graph=g)(h).item()
    task = continual_loss(model, [0, 1], dataclasses.replace(ewc, lam=0.0), graph=g)(h).item()
    assert full - task == pytest.approx(0.25, abs=1e-12)  # 2/2 * 1 * 0.5^2


def test_continual_loss_theta_equal_is_task_only():
    g = drift_graph(n=14)
    model = GrafenneModel(GrafenneConfig(layers=1, dim=4, phase2="sage", seed=1), 2)
    fwd = allotropic_forward(model, g)
    fwd()
    anchor = np.concatenate([p.values.ravel() for p in model.trainable_parameters()])
    ewc = EwcState(lam=50.0, anchor=anchor, weight=np.ones_like(anchor))
    affected = [0, 1, 2]
    h = fwd()
    full = continual_loss(model, affected, ewc, graph=g)(h).item()
    plain = continual_loss(model, affected, dataclasses.replace(ewc, lam=0.0), graph=g)(h)
    assert full == pytest.approx(plain.item(), abs=1e-12)


def test_continual_loss_lambda_zero_equals_task():
    g = drift_graph(n=14)
    model = GrafenneModel(GrafenneConfig(layers=1, dim=4, phase2="sage", seed=1), 2)
    fwd = allotropic_forward(model, g)
    fwd()
    anchor = np.concatenate([p.values.ravel() for p in model.trainable_parameters()]) + 0.3
    affected = [0, 2]
    with_pen = continual_loss(model, affected, EwcState(lam=0.0, anchor=anchor,
                                                        weight=np.ones_like(anchor)),
                              graph=g)(fwd())
    row_of = {v: i for i, v in enumerate(g.nodes)}
    rows = np.array([row_of[v] for v in affected])
    ys = np.array([g.labels[v] for v in affected])
    h = fwd()
    task = T.mul(T.cross_entropy(T.gather_rows(model.logits(h), rows), ys),
                 float(len(affected)))
    assert with_pen.item() == pytest.approx(task.item(), abs=1e-12)


def test_continual_loss_shape_drift_errors():
    g, model, h, theta = _penalty_case()
    ewc = EwcState(lam=1.0, anchor=np.zeros(len(theta) + 1), weight=np.zeros(len(theta) + 1))
    with pytest.raises(ValueError, match=f"an anchor and a weight of {len(theta)} entries"):
        continual_loss(model, [0, 1], ewc, graph=g)(h)


def test_continual_loss_rejects_params_born_after_the_anchor():
    g, model, h, theta = _penalty_case()
    ewc = EwcState(lam=2.0, anchor=theta, weight=np.ones_like(theta))
    # a feature first seen after the anchor was taken grows the embedding table
    model.table.ensure([max(model.table.row) + 1])
    with pytest.raises(ValueError, match=f"an anchor and a weight of {len(theta) + 4} entries"):
        continual_loss(model, [0, 1], ewc, graph=g)(h)


# -------------------------------------------------------------- buffers


def test_replay_buffer_reservoir():
    buf = ReplayBuffer(capacity=5, seed=0)
    for v in range(100):
        buf.add(v, v % 2)
    assert len(buf.entries()) == 5
    assert buf.seen == 100
    nodes = [v for v, _ in buf.entries()]
    assert all(0 <= v < 100 for v in nodes)
    empty = ReplayBuffer(capacity=0, seed=0)
    for v in range(10):
        empty.add(v, 0)
    assert len(empty.entries()) == 0


def test_ewc_state_storage_is_flat():
    # one anchor vector plus one weight vector, regardless of how often they turn over
    names = {f.name for f in dataclasses.fields(EwcState)}
    assert names == {"lam", "anchor", "weight"}
    st = EwcState()
    for t in range(5):
        st.anchor = np.full(3, t, dtype=float)
        st.weight = np.full(3, t, dtype=float)
    assert st.anchor.shape == st.weight.shape == (3,)


# ------------------------------------------------------------ run_stream


def _final_params(model):
    return {p.name: p.values.copy() for p in model.trainable_parameters()}


def test_ewc_lambda_zero_matches_ft():
    g = drift_graph()
    deltas = small_stream(g)
    recs_ft, m_ft = run_stream(g, deltas, "FT", quick_cfg())
    recs_ewc, m_ewc = run_stream(g, deltas, "EWC", quick_cfg(lam=0.0))
    assert [r.accuracy for r in recs_ft] == [r.accuracy for r in recs_ewc]
    pf, pe = _final_params(m_ft), _final_params(m_ewc)
    assert pf.keys() == pe.keys()
    for k in pf:
        assert np.array_equal(pf[k], pe[k]), k


def test_er_capacity_zero_matches_ft():
    g = drift_graph()
    deltas = small_stream(g)
    _, m_ft = run_stream(g, deltas, "FT", quick_cfg())
    _, m_er = run_stream(g, deltas, "ER", quick_cfg(er_capacity=0))
    pf, pe = _final_params(m_ft), _final_params(m_er)
    for k in pf:
        assert np.array_equal(pf[k], pe[k]), k


@pytest.mark.parametrize("strategy", ["FT", "EWC", "ER", "ORACLE"])
def test_empty_deltas_flat_trace(strategy):
    g = drift_graph(n=24)
    deltas = [StreamDelta(t=2), StreamDelta(t=3)]
    recs, _ = run_stream(g, deltas, strategy, quick_cfg())
    accs = [r.accuracy for r in recs]
    assert accs[0] == accs[1] == accs[2]
    assert recs[1].params_changed == 0 and recs[2].params_changed == 0


def test_oracle_is_scratch_training():
    g = drift_graph(n=24)
    deltas = small_stream(g, t=1)
    cfg = quick_cfg()
    recs, model = run_stream(g, deltas, "ORACLE", cfg)
    # replicate: from-scratch model trained on G_2 with the same seed/budget
    g2, _ = apply_delta(g, deltas[0])
    twin = GrafenneModel(GrafenneConfig(layers=cfg.layers, dim=cfg.dim,
                                        phase2=cfg.phase2, seed=cfg.seed), g.num_classes)
    split = make_split(g, cfg.split_fractions, seed=cfg.seed)
    from grafenne.continual import _sum_loss, _train_plain
    pool = sorted(split.train)
    fwd = allotropic_forward(twin, g2)
    task = _sum_loss(twin, g2, pool)
    _train_plain(twin, fwd, lambda h: T.mul(task(h), 1.0 / len(pool)), cfg.epochs, cfg.lr)
    pa, pb = _final_params(model), _final_params(twin)
    assert pa.keys() == pb.keys()
    for k in pa:
        assert np.array_equal(pa[k], pb[k]), k


def test_new_feature_joins_model_mid_stream():
    g = drift_graph(n=20)
    # a delta handing two train nodes a feature id the table has never seen
    split = make_split(g, (0.6, 0.2, 0.2), seed=0)
    v0, v1 = sorted(split.train)[:2]
    new_feat = max(g.feature_ids()) + 7
    deltas = [StreamDelta(t=2, add_feats=((v0, new_feat, 1.0), (v1, new_feat, 1.0)))]
    recs, model = run_stream(g, deltas, "EWC", quick_cfg())
    assert len(recs) == 2
    assert recs[1].params_changed > 0
    assert new_feat in model.table.row
    assert model.table.weight.shape == (len(model.table.row), quick_cfg().dim)


def _per_row_changed(values, rows, model):
    """Changed entries by the per-row rule: parameters by name, embedding
    rows by feature id, a row of a feature absent from `rows` counting whole."""
    changed = sum(int((values[name] != p.values).sum()) for name, p in model.params.items())
    for f, r in model.table.row.items():
        row = model.table.weight.values[r]
        changed += row.size if f not in rows else int((rows[f] != row).sum())
    return changed


def test_entries_changed_matches_the_per_row_rule():
    g = drift_graph(n=12)
    cfg = GrafenneConfig(layers=1, dim=4, phase2="sage", seed=2)
    model = GrafenneModel(cfg, 2)
    allotropic_forward(model, g)()
    values = {p.name: p.values.copy() for p in model.trainable_parameters()}
    row = dict(model.table.row)
    before = (values, row)
    rows = {f: values["feat_embed"][r] for f, r in row.items()}
    assert _entries_changed(before, model) == 0
    # move one entry of a weight, one of a row and all of another, then grow
    model.params["head/b"].values = model.params["head/b"].values + [1.0, 0.0]
    block = model.table.weight.values.copy()
    block[0, 1] += 1.0
    block[2] -= 1.0
    model.table.weight.values = block
    ids = sorted(row)
    model.table.ensure([ids[-1] + 5, ids[-1] + 3])
    assert _entries_changed(before, model) == _per_row_changed(values, rows, model) == 1 + 1 + 4 + 8
    # ORACLE compares a fresh model: fewer rows, laid out in another order
    fresh = GrafenneModel(cfg, 2)
    fresh.table.ensure([ids[-1] + 3] + ids[:0:-1])
    assert _entries_changed(before, fresh) == _per_row_changed(values, rows, fresh)
    total = sum(p.values.size for p in fresh.trainable_parameters())
    assert _entries_changed(({}, {}), fresh) == total


def test_run_stream_unknown_strategy():
    g = drift_graph(n=20)
    with pytest.raises(ValueError, match="unknown strategy"):
        run_stream(g, [], "GEM", quick_cfg())


def test_stream_csv_roundtrip(tmp_path):
    recs = [StreamRecord("FT", 1, 0.875, 1.23, 42),
            StreamRecord("FT", 2, 0.75, 0.5, 7)]
    rows = stream_rows(recs)
    assert rows[0] == ("FT", "1", "0.875", "0", "42")
    path = tmp_path / "s.csv"
    write_stream_csv(path, rows)
    write_stream_csv(tmp_path / "s2.csv", stream_rows(recs))
    assert path.read_bytes() == (tmp_path / "s2.csv").read_bytes()
    wall = stream_rows(recs, timing="wall")
    assert wall[0][3] == "1.23"


def test_ewc_stream_from_a_featureless_graph_that_gains_features():
    # t=2 drops an edge of the featureless graph, so EWC anchors a model
    # with no embedding rows; t=3 gives six nodes their drifting-graph entries
    g = drift_graph(n=30)
    entries = tuple((v, f, w) for v, fm in g.feats.items() if v < 6 for f, w in fm.items())
    deltas = [StreamDelta(t=2, del_edges=(g.edges[0],)), StreamDelta(t=3, add_feats=entries)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # both timestamps anchor on unaffected nodes
        records, model = run_stream(g.replace(feats={}), deltas, "EWC", quick_cfg(layers=2))
    assert [r.t for r in records] == [1, 2, 3]
    assert all(0.0 <= r.accuracy <= 1.0 for r in records)
    assert set(model.table.row) == {f for _, f, _ in entries}
    # rows of features new at t=3 count whole, on top of the retrained weights
    assert records[2].params_changed > len(model.table.row) * model.table.dim
