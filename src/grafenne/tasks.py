"""Task heads, losses, metrics, and the train/eval protocol.

Node classification and link prediction share one full-batch loop with
best-validation-loss model selection; run_experiment drives the method
dispatch over seeds and emits the results CSV. Each method's forward returns
the node states the head reads, from inputs built once per graph.
"""

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from . import tensor as T
from .graph import (GraphError, apply_missing_mask, make_split, partition, remove_edges,
                    to_allotropic)
from .imputation import (DenseGnnModel, dense_inputs, feature_propagation,
                         impute_neighborhood_mean, impute_special_label, resparsify)
from .model import GrafenneConfig, GrafenneModel, VanillaAltModel
from .optim import check_finite_loss, check_finite_params, descend

TASKS = ("node_classification", "link_prediction")
METHODS = ("grafenne", "grafenne_gat", "grafenne_gin", "sage", "gat", "gin",
           "nm+sage", "fp+sage", "nm+grafenne", "fp+grafenne", "vanilla_alt")


@dataclass
class TrainConfig:
    task: str = "node_classification"
    epochs: int = 1000
    lr: float = 1e-4
    seeds: tuple = (0, 1, 2, 3, 4)
    patience: int = 200
    neg_ratio: float = 1.0

    def validate(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"repeated entry in seeds: {tuple(self.seeds)}")
        if self.lr < 0:
            raise ValueError("negative learning rate")
        if self.neg_ratio <= 0:
            raise ValueError("neg_ratio must be positive")


@dataclass
class RunResult:
    """Per-seed metric values plus wall-clock timing."""

    metric: str
    values: dict
    seconds_by_seed: dict = field(default_factory=dict)
    history: list = None

    @property
    def mean(self):
        return float(np.mean(list(self.values.values())))

    @property
    def std(self):
        return float(np.std(list(self.values.values())))

    @property
    def seconds(self):
        return float(sum(self.seconds_by_seed.values()))


def link_score(h_u, h_v):
    """Dot-product decoder; sigmoid of the logit is the edge probability."""
    h_u, h_v = T.as_tensor(h_u), T.as_tensor(h_v)
    prod = T.mul(h_u, h_v)
    width = prod.shape[-1]
    return T.matmul(prod, T.Tensor(np.ones(width)))


def negative_sample(g, k_per_pos=1.0, seed=0):
    """Uniform sample of distinct non-edges, disjoint from the positives.

    Draws round(k_per_pos * |E|) pairs (at least one). Rejection sampling,
    so the draw is uniform over the non-edge set and seed-deterministic.
    """
    n = g.num_nodes
    pos = set(g.edges)
    total = n * (n - 1) // 2
    free = total - len(pos)
    if free == 0:
        raise GraphError("graph is complete: no non-edges to sample")
    want = max(1, int(round(k_per_pos * g.num_edges)))
    if want > free:
        raise GraphError(f"requested {want} negatives but only {free} non-edges exist")
    rng = np.random.default_rng([seed, 101])
    nodes = g.nodes
    out = set()
    while len(out) < want:
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        u, v = nodes[i], nodes[j]
        e = (u, v) if u < v else (v, u)
        if e not in pos and e not in out:
            out.add(e)
    return tuple(sorted(out))


def accuracy(preds, labels):
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError(f"shape mismatch {preds.shape} vs {labels.shape}")
    if preds.size == 0:
        raise ValueError("empty prediction set")
    return float(np.mean(preds == labels))


def auc_roc(scores, targets):
    """Rank-based (Mann-Whitney) AUC; ties contribute 0.5 via average ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    pos = targets == 1
    n1 = int(pos.sum())
    n0 = int((~pos).sum())
    if n1 == 0 or n0 == 0:
        raise ValueError("auc_roc needs both classes present")
    ranks = rankdata(scores)
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


@dataclass(frozen=True)
class LinkSplit:
    train_pos: tuple
    val_pos: tuple
    test_pos: tuple
    train_neg: tuple
    val_neg: tuple
    test_neg: tuple
    graph: object  # training graph: val/test positives removed


def make_link_split(g, fractions=(0.6, 0.2, 0.2), seed=0, neg_ratio=1.0):
    """Edge-level split with fixed disjoint negatives per partition."""
    if g.num_edges < 3:
        raise GraphError("too few edges for a link split")
    rng = np.random.default_rng([seed, 53])
    pos_parts = partition(g.edges, fractions, rng.permutation(g.num_edges))
    negs = negative_sample(g, k_per_pos=neg_ratio, seed=seed)
    neg_parts = partition(negs, fractions, rng.permutation(len(negs)))
    graph = remove_edges(g, pos_parts[1] + pos_parts[2])
    return LinkSplit(pos_parts[0], pos_parts[1], pos_parts[2],
                     neg_parts[0], neg_parts[1], neg_parts[2], graph)


def node_rows(g, nodes):
    """Row of each node in g's ascending node order, the row order of the
    node states every forward returns; a node not in g raises KeyError."""
    row_of = {v: i for i, v in enumerate(g.nodes)}
    return np.array([row_of[v] for v in nodes], dtype=np.int64)


def node_loss(model, rows, labels):
    """loss(h): the mean cross entropy of the head's logits at `rows` of
    the node states h against `labels`."""
    return lambda h: T.cross_entropy(T.gather_rows(model.logits(h), rows), labels)


def node_accuracy(model, h, rows, labels):
    """The share of `rows` of the node states h whose argmax logit is
    their label."""
    return accuracy(model.logits(h).values[rows].argmax(axis=1), labels)


def allotropic_forward(model, g):
    """forward() of a model over g's allotropic form: the graph-node
    states, the only ones the head and the losses read."""
    alt = to_allotropic(g)
    return lambda: model.forward(alt)[0]


def _snapshot(params):
    return {p.name: p.values.copy() for p in params}


def _restore(params, snap):
    for p in params:
        p.values = snap[p.name].copy()


def train(model, g, split, cfg, forward, record_history=False):
    """Full-batch training with best-validation-loss model selection;
    forward() returns the node states the head and the losses read.

    Returns a single-seed RunResult keyed by the model's own seed."""
    cfg.validate()
    if cfg.task == "link_prediction":
        metric, loss_on, test_metric = _link_task(split)
    else:
        metric, loss_on, test_metric = _node_task(model, g, split)
    history, secs, best_h = _fit(model, cfg, forward, loss_on("train"), loss_on("val"),
                                 record_history)
    seed = model.config.seed
    return RunResult(metric, {seed: test_metric(T.Tensor(best_h))}, {seed: secs}, history)


def _fit(model, cfg, forward, train_loss_fn, val_loss_fn, record_history):
    """Train with best-validation-loss selection and one forward per epoch;
    returns (history, seconds, the node states of the restored parameters).

    Epoch e's validation forward sees the parameters epoch e + 1 trains
    from, so its node states, tape included, are that epoch's training
    forward too, and the best epoch's are the restored parameters' states:
    E epochs make E + 1 forwards. That holds while forward() depends on
    the parameters alone; a forward that resampled its edges on every call
    would need its own training and test forwards again."""
    best_loss, best_snap, best_h, best_epoch = math.inf, None, None, -1
    history = [] if record_history else None
    params = model.trainable_parameters()
    t0 = time.perf_counter()
    h = forward()
    # the lambda reads h when descend calls it: the latest validation states
    for epoch in descend(params, lambda: train_loss_fn(h), cfg.epochs, cfg.lr):
        h = None  # the used tape goes before the next forward builds one
        h = forward()
        val_loss = val_loss_fn(h).item()
        check_finite_loss("validation", val_loss, epoch, cfg.epochs)
        if record_history:
            history.append(val_loss)
        if best_snap is None or val_loss < best_loss:
            best_loss, best_snap, best_h, best_epoch = val_loss, _snapshot(params), h.values, epoch
        if epoch - best_epoch >= cfg.patience:
            break
    check_finite_params(params)
    _restore(params, best_snap)
    return history, time.perf_counter() - t0, best_h


def _nonempty_parts(train, val, test):
    for part, name in ((train, "train"), (val, "val"), (test, "test")):
        if not part:
            raise GraphError(f"empty {name} split")
    return {"train": train, "val": val, "test": test}


def _node_task(model, g, split):
    """(metric, the loss on each part, the test metric) of node classification."""
    parts = _nonempty_parts(split.train, split.val, split.test)
    rows = {k: node_rows(g, part) for k, part in parts.items()}
    ys = {k: np.array([g.labels[v] for v in part], dtype=np.int64) for k, part in parts.items()}

    def loss_on(which):
        return node_loss(model, rows[which], ys[which])
    return "accuracy", loss_on, lambda h: node_accuracy(model, h, rows["test"], ys["test"])


def _link_task(split):
    """(metric, the loss on each part, the test metric) of link prediction."""
    _nonempty_parts(split.train_pos, split.val_pos, split.test_pos)

    def pack(pos, neg):
        pairs = list(pos) + list(neg)
        us = node_rows(split.graph, [u for u, _ in pairs])
        vs = node_rows(split.graph, [v for _, v in pairs])
        return us, vs, np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])

    packs = {"train": pack(split.train_pos, split.train_neg),
             "val": pack(split.val_pos, split.val_neg),
             "test": pack(split.test_pos, split.test_neg)}

    def scores(h, which):
        us, vs, _ = packs[which]
        return link_score(T.gather_rows(h, us), T.gather_rows(h, vs))

    def loss_on(which):
        return lambda h: T.bce_with_logits(scores(h, which), packs[which][2])
    return "aucroc", loss_on, lambda h: auc_roc(scores(h, "test").values, packs["test"][2])


def method_model(method, g, task, dim=64, layers=2, seed=0, fp_iterations=40,
                 caps=(0, 0, 0)):
    """Build (model, forward) for one experiment method, a METHODS name,
    on one graph."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; known: {', '.join(METHODS)}")
    num_classes = g.num_classes if task == "node_classification" else None
    base = dict(layers=layers, dim=dim, seed=seed, cap_features=caps[0],
                cap_nodes=caps[1], cap_graph=caps[2])

    def grafenne_on(graph, backend):
        model = GrafenneModel(GrafenneConfig(phase2=backend, **base), num_classes)
        return model, allotropic_forward(model, graph)

    def dense_on(graph, backend, dense):
        model = DenseGnnModel(GrafenneConfig(phase2=backend, **base),
                              len(dense.feat_ids), num_classes)
        edges, x = dense_inputs(graph, dense)
        return model, lambda: model.forward(edges, x)

    if method in ("grafenne", "grafenne_gat", "grafenne_gin"):
        backend = {"grafenne": "sage", "grafenne_gat": "gat", "grafenne_gin": "gin"}[method]
        return grafenne_on(g, backend)
    if method in ("sage", "gat", "gin"):
        return dense_on(g, method, impute_special_label(g))
    if method == "vanilla_alt":
        model = VanillaAltModel(GrafenneConfig(phase2="sage", **base), num_classes)
        return model, allotropic_forward(model, g)
    imp, _, backend = method.partition("+")  # nm or fp, then sage or grafenne
    dense = impute_neighborhood_mean(g) if imp == "nm" else feature_propagation(g, fp_iterations)
    if backend == "grafenne":
        return grafenne_on(resparsify(g, dense), "sage")
    return dense_on(g, backend, dense)


def run_experiment(g, method, p=0.0, cfg=None, dim=64, layers=2, fp_iterations=40,
                   caps=(0, 0, 0)):
    """Mask, split, train, and evaluate over every seed in the config."""
    cfg = cfg if cfg is not None else TrainConfig()
    cfg.validate()
    values, secs = {}, {}
    metric = None
    for seed in cfg.seeds:
        gm = apply_missing_mask(g, p, seed)
        if cfg.task == "node_classification":
            split = make_split(gm, seed=seed)
            model_graph = gm
        else:  # the model sees the graph without the held-out links
            split = make_link_split(gm, seed=seed, neg_ratio=cfg.neg_ratio)
            model_graph = split.graph
        model, fwd = method_model(method, model_graph, cfg.task, dim, layers, seed,
                                  fp_iterations, caps)
        res = train(model, gm, split, cfg, forward=fwd)
        metric = res.metric
        values.update(res.values)
        secs.update(res.seconds_by_seed)
    return RunResult(metric, values, secs)


RESULT_HEADER = ("dataset", "method", "task", "p", "seed", "metric", "value", "seconds")


def _fmt(x):
    return f"{x:.10g}"


def result_rows(dataset, method, task, p, result, timing="none"):
    """One CSV row per seed plus mean/std pseudo-seeds.

    timing="none" (the default) writes 0 seconds so reruns are
    byte-identical; timing="wall" records measured wall-clock time.
    """
    rows = []
    for seed in result.values:
        secs = result.seconds_by_seed.get(seed, 0.0) if timing == "wall" else 0.0
        rows.append((dataset, method, task, _fmt(p), str(seed), result.metric,
                     _fmt(result.values[seed]), _fmt(secs)))
    total = result.seconds if timing == "wall" else 0.0
    rows.append((dataset, method, task, _fmt(p), "mean", result.metric,
                 _fmt(result.mean), _fmt(total)))
    rows.append((dataset, method, task, _fmt(p), "std", result.metric,
                 _fmt(result.std), _fmt(0.0)))
    return rows


def write_results_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RESULT_HEADER)
        w.writerows(rows)
