import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata  # the oracle only: the package does not import scipy.stats

import grafenne.tasks as tasks
import grafenne.tensor as T
from grafenne.graph import GraphError, HeteroGraph, apply_missing_mask, make_split
from grafenne.optim import check_finite_loss, check_finite_params, descend
from grafenne.synth import make_community_graph
from grafenne.tasks import (METHODS, LinkSplit, RunResult, TrainConfig, accuracy,
                            auc_roc, link_score, make_link_split,
                            method_model, negative_sample, result_rows,
                            run_experiment, train, write_results_csv)


def sep_graph(seed=3):
    return make_community_graph(n=60, classes=2, feats_per_class=4, p_in=0.15,
                                p_out=0.01, density=0.9, noise=0.0, seed=seed)


# ---------------------------------------------------------------- heads


def test_link_score_cases():
    # one row of node states per pair, as the link task gathers them
    a = T.Tensor(np.array([[1.0, 0.0]]))
    b = T.Tensor(np.array([[0.0, 1.0]]))
    assert link_score(a, b).item() == 0.0
    # a zero logit is probability one half: its cross entropy is log 2 for either target
    assert T.bce_with_logits(link_score(a, b), [1.0]).item() == pytest.approx(np.log(2.0))
    assert T.bce_with_logits(link_score(a, b), [0.0]).item() == pytest.approx(np.log(2.0))
    u = T.Tensor(np.array([[1.0, 0.0]]))
    assert link_score(u, u).item() == pytest.approx(1.0)
    x = T.Tensor(np.array([[0.3, -0.7, 2.0]]))
    y = T.Tensor(np.array([[1.5, 0.4, -0.2]]))
    assert link_score(x, y).item() == pytest.approx(link_score(y, x).item())
    hu = T.Tensor(np.array([[1.0, 2.0], [0.0, 1.0]]))
    hv = T.Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]))
    assert np.allclose(link_score(hu, hv).values, [11.0, 6.0])


# ---------------------------------------------------------------- sampling


def test_negative_sample_unique_nonedge():
    g = HeteroGraph([0, 1, 2], [(0, 1), (1, 2)], {}, {})
    assert negative_sample(g, k_per_pos=0.5, seed=4) == ((0, 2),)


def test_negative_sample_complete_graph():
    g = HeteroGraph([0, 1, 2], [(0, 1), (0, 2), (1, 2)], {}, {})
    with pytest.raises(GraphError, match="complete"):
        negative_sample(g, 1, seed=0)


def test_negative_sample_oversize():
    g = HeteroGraph([0, 1, 2], [(0, 1), (1, 2)], {}, {})
    with pytest.raises(GraphError, match="only"):
        negative_sample(g, k_per_pos=5, seed=0)


def test_negative_sample_uniform():
    # 6 nodes, 6 edges -> 9 non-edges; draw 3 per seed
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    g = HeteroGraph(range(6), edges, {}, {})
    non_edges = [(u, v) for u in range(6) for v in range(u + 1, 6)
                 if (u, v) not in set(g.edges)]
    counts = {e: 0 for e in non_edges}
    draws = 400
    for s in range(draws):
        for e in negative_sample(g, k_per_pos=0.5, seed=s):
            counts[e] += 1
    p = 3 / len(non_edges)
    sigma = np.sqrt(draws * p * (1 - p))
    expect = draws * p
    for e, c in counts.items():
        assert abs(c - expect) < 4 * sigma + 1, (e, c)


def test_negative_sample_deterministic_and_disjoint():
    g = sep_graph()
    a = negative_sample(g, 1, seed=9)
    b = negative_sample(g, 1, seed=9)
    assert a == b
    assert len(a) == g.num_edges
    assert not set(a) & set(g.edges)
    assert len(set(a)) == len(a)


# ---------------------------------------------------------------- metrics


def test_accuracy_cases():
    assert accuracy([1, 0, 2], [1, 0, 2]) == 1.0
    assert accuracy([1, 1, 1], [0, 0, 0]) == 0.0
    assert accuracy([1] * 7 + [0] * 3, [1] * 10) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        accuracy([1, 2], [1])


def test_auc_basic():
    assert auc_roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auc_roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    with pytest.raises(ValueError):
        auc_roc([0.1, 0.2], [1, 1])


def trapezoid_auc(scores, targets):
    scores = np.asarray(scores, dtype=float)
    targets = np.asarray(targets)
    pos = (targets == 1).sum()
    neg = (targets == 0).sum()
    pts = [(0.0, 0.0)]
    for t in np.unique(scores)[::-1]:
        pred = scores >= t
        pts.append((float((pred & (targets == 0)).sum()) / neg,
                    float((pred & (targets == 1)).sum()) / pos))
    xs, ys = zip(*pts)
    return float(np.trapezoid(ys, xs))


def test_auc_trapezoid_oracle():
    scores = [0.9, 0.8, 0.8, 0.6, 0.5, 0.3]
    targets = [1, 1, 0, 1, 0, 0]
    assert auc_roc(scores, targets) == pytest.approx(trapezoid_auc(scores, targets), abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(4, 30))
        s = rng.choice([0.1, 0.25, 0.5, 0.7, 0.9], size=n)  # force ties
        t = rng.integers(0, 2, size=n)
        if t.min() == t.max():
            continue
        assert auc_roc(s, t) == pytest.approx(trapezoid_auc(s, t), abs=1e-12)


def rankdata_auc(scores, targets):
    """auc_roc's formula over scipy.stats.rankdata's average ranks."""
    ranks = rankdata(np.asarray(scores, dtype=np.float64))
    pos = np.asarray(targets) == 1
    n1, n0 = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


# few distinct values force ties; -0.0 ties with 0.0, and each infinity with itself
_SCORE = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, 0.5, -1.25]),
                   st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SCORE, st.integers(0, 1)), min_size=2, max_size=60))
def test_auc_ranks_equal_scipy_rankdata_average_ranks(pairs):
    scores, targets = map(list, zip(*pairs))
    targets[:2] = [1, 0]  # both classes present
    assert auc_roc(scores, targets) == rankdata_auc(scores, targets)


def test_auc_of_a_nan_score_is_nan():
    assert math.isnan(auc_roc([0.3, math.nan, 0.1, 0.1], [1, 0, 1, 0]))
    assert math.isnan(rankdata_auc([0.3, math.nan, 0.1, 0.1], [1, 0, 1, 0]))


# ---------------------------------------------------------------- splits


def test_make_link_split_properties():
    g = sep_graph()
    sp = make_link_split(g, seed=0)
    pos = [sp.train_pos, sp.val_pos, sp.test_pos]
    neg = [sp.train_neg, sp.val_neg, sp.test_neg]
    all_pos = set().union(*map(set, pos))
    all_neg = set().union(*map(set, neg))
    assert all_pos == set(g.edges)
    assert sum(map(len, pos)) == g.num_edges  # disjoint partition
    assert not all_neg & set(g.edges)
    assert sum(map(len, neg)) == len(all_neg)
    assert len(all_neg) == g.num_edges
    assert [len(x) for x in neg] == [len(x) for x in pos]
    assert set(sp.graph.edges) == set(sp.train_pos)
    assert sp.graph.nodes == g.nodes


def test_make_link_split_checks_its_fractions():
    g = sep_graph()
    with pytest.raises(ValueError, match="> 1"):
        make_link_split(g, (0.9, 0.2, 0.2), seed=0)
    with pytest.raises(ValueError, match="bad fractions"):
        make_link_split(g, (0.6, -0.2, 0.6), seed=0)


# ---------------------------------------------------------------- training


def test_train_separable_reaches_perfect_accuracy():
    cfg = TrainConfig(epochs=200, lr=0.01, seeds=(0,), patience=200)
    res = run_experiment(sep_graph(), "grafenne", p=0.0, cfg=cfg, dim=16, layers=2)
    assert res.values[0] == 1.0


def test_train_lr_zero_is_identity():
    g = sep_graph()
    cfg = TrainConfig(epochs=5, lr=0.0, seeds=(0,))
    model, fwd = method_model("grafenne", g, "node_classification", dim=8, layers=1, seed=0)
    fwd()
    before = {p.name: p.values.copy() for p in model.trainable_parameters()}
    res = train(model, g, make_split(g, seed=0), cfg, forward=fwd)
    after = model.trainable_parameters()
    assert {p.name for p in after} == set(before)
    assert all(np.array_equal(before[p.name], p.values) for p in after)
    # metric equals evaluating the untrained model
    split = make_split(g, seed=0)
    h = fwd()
    row_of = {v: i for i, v in enumerate(g.nodes)}
    rows = np.array([row_of[v] for v in split.test])
    preds = model.logits(h).values[rows].argmax(axis=1)
    want = accuracy(preds, np.array([g.labels[v] for v in split.test]))
    assert res.values[0] == want


def test_train_monotone_best_tracking():
    g = sep_graph()
    split = make_split(g, seed=1)
    cfg = TrainConfig(epochs=40, lr=0.02, seeds=(1,), patience=40)
    model, fwd = method_model("grafenne", g, "node_classification", dim=8, layers=1, seed=1)
    res = train(model, g, split, cfg, forward=fwd, record_history=True)
    assert res.history, "expected a validation history"
    # restored parameters reproduce the best observed validation loss
    row_of = {v: i for i, v in enumerate(g.nodes)}
    rows = np.array([row_of[v] for v in split.val])
    ys = np.array([g.labels[v] for v in split.val])
    val_now = T.cross_entropy(T.gather_rows(model.logits(fwd()), rows), ys).item()
    assert val_now == pytest.approx(min(res.history), abs=1e-12)


def _fit_two_forwards(model, cfg, forward, train_loss_fn, val_loss_fn, record_history):
    """The loop before validation states were reused: a training and a
    validation forward in every epoch, then a test forward of the restored
    parameters."""
    best_loss, best_snap, best_epoch = float("inf"), None, -1
    history = [] if record_history else None
    params = model.trainable_parameters()
    for epoch in descend(params, lambda: train_loss_fn(forward()), cfg.epochs, cfg.lr):
        val_loss = val_loss_fn(forward()).item()
        check_finite_loss("validation", val_loss, epoch, cfg.epochs)
        if record_history:
            history.append(val_loss)
        if best_snap is None or val_loss < best_loss:
            best_loss, best_snap, best_epoch = val_loss, tasks._snapshot(params), epoch
        if epoch - best_epoch >= cfg.patience:
            break
    check_finite_params(params)
    tasks._restore(params, best_snap)
    return history, 0.0, forward().values


def _counted_train(method, task, cfg, caps=(0, 0, 0)):
    """(result, trained model, forward calls) of one train call."""
    g = apply_missing_mask(sep_graph(), 0.3, seed=2)
    if task == "link_prediction":
        split = make_link_split(g, seed=0)
        graph = split.graph
    else:
        split, graph = make_split(g, seed=0), g
    model, fwd = method_model(method, graph, task, dim=6, layers=2, seed=0, caps=caps)
    calls = []

    def counting():
        calls.append(1)
        return fwd()
    res = train(model, g, split, cfg, forward=counting, record_history=True)
    return res, model, len(calls)


@pytest.mark.parametrize("method, task, caps, epochs, lr, patience", [
    ("grafenne", "node_classification", (3, 5, 2), 6, 0.01, 6),
    ("grafenne_gat", "node_classification", (0, 0, 0), 6, 0.01, 6),
    ("gat", "node_classification", (0, 0, 0), 6, 0.01, 6),
    ("grafenne", "link_prediction", (0, 0, 0), 6, 0.01, 6),
    ("grafenne", "node_classification", (0, 0, 0), 40, 0.5, 2),  # stops early
])
def test_train_runs_one_forward_per_epoch_with_the_two_forward_results(
        monkeypatch, method, task, caps, epochs, lr, patience):
    cfg = TrainConfig(task=task, epochs=epochs, lr=lr, seeds=(0,), patience=patience)
    res, model, forwards = _counted_train(method, task, cfg, caps)
    # one training forward and one per epoch for validation, which the next
    # epoch trains on and whose best one the test metric reads
    ran = len(res.history)
    assert forwards == ran + 1
    if patience < epochs:
        assert ran < epochs, "the early-stop case did not stop early"
    else:
        assert ran == epochs
    monkeypatch.setattr(tasks, "_fit", _fit_two_forwards)
    want, want_model, want_forwards = _counted_train(method, task, cfg, caps)
    assert want_forwards == 2 * ran + 1
    assert res.history == want.history and res.values == want.values
    got = {p.name: p.values for p in model.trainable_parameters()}
    for p in want_model.trainable_parameters():
        assert np.array_equal(got[p.name], p.values), p.name


def test_train_empty_split_errors():
    g = sep_graph()
    cfg = TrainConfig(epochs=2, seeds=(0,))
    model, fwd = method_model("grafenne", g, "node_classification", dim=4, layers=1, seed=0)
    bad = make_split(g, seed=0)
    bad = type(bad)(train=bad.train, val=(), test=bad.test)
    with pytest.raises(ValueError, match="empty val split"):
        train(model, g, bad, cfg, forward=fwd)


def test_train_link_smoke():
    cfg = TrainConfig(task="link_prediction", epochs=150, lr=0.01, seeds=(0,), patience=150)
    res = run_experiment(sep_graph(), "grafenne", p=0.0, cfg=cfg, dim=16, layers=2)
    assert res.metric == "aucroc"
    assert 0.6 < res.values[0] <= 1.0


def test_mask_p0_identity():
    g = sep_graph()
    gm = apply_missing_mask(g, 0.0, seed=7)
    assert gm.feats == g.feats and gm.edges == g.edges


# ---------------------------------------------------------------- reporting


def test_repeated_seed_is_rejected_before_training():
    # run_experiment keys results by seed: a repeat would train twice and keep one value
    cfg = TrainConfig(epochs=1, seeds=(0, 1, 0))
    with pytest.raises(ValueError, match=r"repeated entry in seeds: \(0, 1, 0\)"):
        run_experiment(sep_graph(), "sage", cfg=cfg)


def test_run_experiment_rows_deterministic(tmp_path):
    g = make_community_graph(n=30, classes=2, feats_per_class=3, p_in=0.2,
                             p_out=0.02, density=0.9, noise=0.0, seed=8)
    cfg = TrainConfig(epochs=10, lr=0.01, seeds=(0, 1), patience=10)

    def run_rows():
        res = run_experiment(g, "sage", p=0.5, cfg=cfg, dim=8, layers=1)
        return result_rows("synthetic", "sage", cfg.task, 0.5, res), res

    rows1, res1 = run_rows()
    rows2, res2 = run_rows()
    assert rows1 == rows2
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(f1, rows1)
    write_results_csv(f2, rows2)
    assert f1.read_bytes() == f2.read_bytes()
    seeds_col = [r[4] for r in rows1]
    assert seeds_col == ["0", "1", "mean", "std"]
    assert float(rows1[2][6]) == pytest.approx(res1.mean)
    assert all(r[7] == "0" for r in rows1)  # timing defaults to deterministic zero


def test_run_result_display_rule():
    # the std row reports the population std as computed, tiny values included
    r = RunResult("accuracy", {0: 0.801, 1: 0.802})
    std_row = result_rows("d", "sage", "node_classification", 0.0, r)[-1]
    assert std_row[4] == "std" and float(std_row[6]) == pytest.approx(0.0005) == r.std


def test_method_model_unknown(monkeypatch):
    """Only METHODS names build, and any other is rejected before an imputer runs."""
    def no_imputation(*args):
        raise AssertionError("imputed for an unknown method")

    monkeypatch.setattr(tasks, "impute_neighborhood_mean", no_imputation)
    monkeypatch.setattr(tasks, "feature_propagation", no_imputation)
    g = sep_graph()
    for method in ("pagnn", "nm+gat", "nm+gin", "fp+gat", "fp+gin", "fp+vanilla_alt"):
        with pytest.raises(ValueError, match=f"unknown method '{re.escape(method)}'"):
            method_model(method, g, "node_classification")


@pytest.mark.parametrize("method", METHODS)
def test_all_methods_smoke(method):
    g = make_community_graph(n=24, classes=2, feats_per_class=3, p_in=0.25,
                             p_out=0.03, density=0.9, noise=0.0, seed=6)
    cfg = TrainConfig(epochs=3, lr=0.01, seeds=(0,), patience=3)
    res = run_experiment(g, method, p=0.0, cfg=cfg, dim=6, layers=2)
    v = res.values[0]
    assert 0.0 <= v <= 1.0 and np.isfinite(v)


def test_train_raises_on_a_nan_loss():
    g = sep_graph()
    split = make_split(g, seed=0)
    model, fwd = method_model("grafenne", g, "node_classification", dim=4, layers=1, seed=0)
    head = model.params["head/W"]
    head.values = np.full_like(head.values, np.nan)
    with pytest.raises(FloatingPointError, match="training loss is nan at epoch 1 of 5"):
        train(model, g, split, TrainConfig(epochs=5, lr=0.01, seeds=(0,)), forward=fwd)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_raises_on_a_nan_parameter_no_loss_reads():
    # no loss reads the embedding row of a feature the graph lacks: every
    # loss stays finite here and only the weights show the NaN
    g = sep_graph()
    split = make_split(g, seed=0)
    model, fwd = method_model("grafenne", g, "node_classification", dim=4, layers=2, seed=0)
    assert 999 not in g.feature_ids()
    model.table.ensure([999])
    assert model.table.row == {999: 0}  # g's rows are drawn at the first forward
    model.table.weight.values = np.full_like(model.table.weight.values, np.nan)
    with pytest.raises(FloatingPointError, match="parameter feat_embed is not finite"):
        train(model, g, split, TrainConfig(epochs=5, lr=0.01, seeds=(0,)), forward=fwd)
