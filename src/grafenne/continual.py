"""Streaming-graph training: EWC, fine-tuning, replay, and oracle strategies.

Timestamp 1 trains on the initial snapshot; each later timestamp applies a
delta and adapts on the affected training nodes only (except ORACLE, which
retrains from scratch). Whole-graph test accuracy is reported per timestamp
against the split fixed at t=1. EWC's penalty is one tensor.ewc_penalty
node, and its importance pass sweeps one shared tape once per node. A NaN
or infinite training loss raises FloatingPointError.
"""

import csv
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .graph import make_split
from .model import GrafenneConfig, GrafenneModel
from .optim import check_finite_params, descend, zero_grad
from .stream import apply_delta
from .tasks import _snapshot, accuracy, allotropic_forward, node_rows

STRATEGIES = ("EWC", "FT", "ER", "ORACLE")


@dataclass
class StreamConfig:
    epochs: int = 200          # full-training budget (t=1 and ORACLE)
    stream_epochs: int = 50    # per-timestamp adaptation budget
    lr: float = 0.01
    lam: float = 100000.0
    u_size: int = 25
    er_capacity: int = None    # defaults to u_size
    dim: int = 32
    layers: int = 2
    phase2: str = "sage"
    seed: int = 0
    split_fractions: tuple = (0.6, 0.2, 0.2)

    def validate(self):
        if self.epochs < 1 or self.stream_epochs < 1:
            raise ValueError("epoch budgets must be >= 1")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.u_size < 0:
            raise ValueError("u_size must be nonnegative")
        if self.er_capacity is not None and self.er_capacity < 0:
            raise ValueError("er_capacity must be nonnegative")
        if self.lr < 0:
            raise ValueError("negative learning rate")

    def replay_capacity(self):
        return self.u_size if self.er_capacity is None else self.er_capacity


@dataclass
class EwcState:
    """One parameter snapshot plus one importance vector — nothing grows
    with stream length."""

    lam: float = 100000.0
    snapshot: dict = field(default_factory=dict)
    omega: dict = field(default_factory=dict)


class ReplayBuffer:
    """Reservoir of (node id, snapshot-time label) pairs."""

    def __init__(self, capacity, seed=0):
        self.capacity = int(capacity)
        self.items = []
        self.seen = 0
        self._rng = np.random.default_rng([seed, 409])

    def add(self, node, label):
        self.seen += 1
        if self.capacity == 0:
            return
        if len(self.items) < self.capacity:
            self.items.append((node, label))
        else:
            j = int(self._rng.integers(0, self.seen))
            if j < self.capacity:
                self.items[j] = (node, label)

    def entries(self):
        return tuple(self.items)

    def __len__(self):
        return len(self.items)


def sample_U(train_nodes, size, seed):
    """Uniform subset of training nodes, without replacement."""
    pool = sorted(train_nodes)
    if size > len(pool):
        raise ValueError(f"requested {size} nodes from a pool of {len(pool)}")
    rng = np.random.default_rng([seed, 211])
    idx = rng.choice(len(pool), size=size, replace=False)
    return tuple(sorted(pool[i] for i in idx))


def compute_importance(model, g_t, nodes, forward=None, per_node_loss=None):
    """Mean squared per-node loss gradient, parameter entry by entry.

    By default one forward and one tape order serve every node: each
    node's reverse sweep starts at the logits, seeded with that node's
    cross-entropy gradient (its softmax minus one-hot row). A given
    per_node_loss(v) is instead swept from the scalar loss it builds. The
    result is plain numpy, detached from any tape. Empty node set
    degenerates to zero importance (with a warning) — pure fine-tuning."""
    params = model.trainable_parameters()
    order = sorted(nodes)
    if per_node_loss is None:
        if forward is None:
            forward = allotropic_forward(model, g_t)
        logits = model.logits(forward())
        tape = T._topo_order(logits)
        rows = node_rows(g_t, order)

        def node_sweep(k, v):
            r = rows[k]
            seed = np.zeros_like(logits.values)
            seed[r] = T.softmax_minus_onehot(logits.values[r:r + 1], [g_t.labels[v]])[0]
            return logits, seed, tape
    else:
        def node_sweep(k, v):
            loss = per_node_loss(v)
            T._check_loss(loss)
            return loss, np.ones_like(loss.values), T._topo_order(loss)
    omega = {p.name: np.zeros_like(p.values) for p in params}
    if not order:
        warnings.warn("importance over an empty node set is zero (fine-tuning)")
        return omega
    for k, v in enumerate(order):
        root, seed, tape = node_sweep(k, v)
        # the shared tape keeps grads between sweeps; reset the whole
        # reachable slice, not just parameters
        for node in tape:
            node.grad = None
        zero_grad(params)
        T.sweep(root, seed, tape)
        for p in params:
            omega[p.name] += np.square(p.grad)
    inv = 1.0 / len(order)
    for k in omega:
        omega[k] *= inv
    return omega


def _sum_loss(model, h, g, nodes, labels=None):
    """Task loss summed (not averaged) over the given nodes."""
    rows = node_rows(g, nodes)
    ys = np.array([g.labels[v] for v in nodes] if labels is None else labels,
                  dtype=np.int64)
    ce = T.cross_entropy(T.gather_rows(model.logits(h), rows), ys)
    return T.mul(ce, float(len(nodes)))


def continual_loss(model, affected_train_nodes, ewc, h=None, graph=None):
    """Sum of per-node task losses on the affected nodes, read from the
    node states h of the current graph, plus lam / 2 times the quadratic
    importance-weighted penalty against the stored snapshot, one
    tensor.ewc_penalty node over every parameter that has both."""
    affected = sorted(affected_train_nodes)
    if affected:
        if h is None or graph is None:
            raise ValueError("continual_loss needs the node states and the current graph")
        task = _sum_loss(model, h, graph, affected)
    else:
        task = T.Tensor(np.asarray(0.0))
    params, anchors, weights = [], [], []
    for p in model.trainable_parameters():
        snap = ewc.snapshot.get(p.name)
        if snap is None:
            continue  # parameter born after the snapshot: no prior to preserve
        if snap.shape != p.values.shape:
            raise ValueError(f"parameter {p.name} changed shape "
                             f"{snap.shape} -> {p.values.shape} across timestamps")
        om = ewc.omega.get(p.name)
        if om is None:
            continue
        params.append(p)
        anchors.append(snap)
        weights.append(om)
    if not params:
        return task
    return T.add(task, T.mul(T.ewc_penalty(params, anchors, weights), ewc.lam / 2.0))


@dataclass(frozen=True)
class StreamRecord:
    strategy: str
    t: int
    accuracy: float
    seconds: float
    params_changed: int


def _train_plain(model, forward, loss_fn, epochs, lr):
    params = model.trainable_parameters()
    for _ in descend(params, lambda: loss_fn(forward()), epochs, lr):
        pass
    check_finite_params(params)


def _evaluate(model, g, test_nodes, forward):
    alive = sorted(v for v in test_nodes if v in g.labels)
    if not alive:
        raise ValueError("test set is empty at this timestamp")
    preds = model.logits(forward()).values[node_rows(g, alive)].argmax(axis=1)
    return accuracy(preds, np.array([g.labels[v] for v in alive]))


def _entries_changed(before, model):
    """Parameter entries that differ from `before`, a pair (values by
    name, feature id -> embedding row). Rows are matched by feature id,
    since ORACLE's fresh model lays its rows out anew; rows of features
    new since `before` count whole."""
    values, old_row = before
    table = model.table
    changed = 0
    for name, p in model.params.items():
        old = values.get(name)
        changed += p.values.size if old is None else int((old != p.values).sum())
    shared = [(r, old_row[f]) for f, r in table.row.items() if f in old_row]
    if shared:
        now, then = np.array(shared).T
        changed += int((table.weight.values[now] != values[table.weight.name][then]).sum())
    return changed + (len(table.row) - len(shared)) * table.dim


def run_stream(g_1, deltas, strategy, cfg=None):
    """Train through a stream of deltas with one strategy.

    Returns (records, final model); one StreamRecord per timestamp,
    including t=1's initial full training."""
    strategy = strategy.upper()
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; known: {', '.join(STRATEGIES)}")
    cfg = cfg if cfg is not None else StreamConfig()
    cfg.validate()
    split = make_split(g_1, cfg.split_fractions, seed=cfg.seed)
    train_pool = set(split.train)
    test_pool = set(split.test)
    model_cfg = GrafenneConfig(layers=cfg.layers, dim=cfg.dim, phase2=cfg.phase2,
                               seed=cfg.seed)

    def fresh_model():
        return GrafenneModel(model_cfg, g_1.num_classes)

    def full_train(model, g, fwd):
        pool = sorted(train_pool)
        _train_plain(model, fwd,
                     lambda h: T.mul(_sum_loss(model, h, g, pool), 1.0 / len(pool)),
                     cfg.epochs, cfg.lr)

    records = []
    g = g_1
    model = fresh_model()
    t0 = time.perf_counter()
    # one allotropic forward per snapshot serves training, importance and evaluation
    fwd = allotropic_forward(model, g)
    full_train(model, g, fwd)
    secs = time.perf_counter() - t0
    records.append(StreamRecord(strategy, 1, _evaluate(model, g, test_pool, fwd), secs,
                                _entries_changed(({}, {}), model)))

    ewc = EwcState(lam=cfg.lam)
    buffer = ReplayBuffer(cfg.replay_capacity(), seed=cfg.seed)
    if strategy == "ER":
        for v in sorted(train_pool):
            buffer.add(v, g.labels[v])

    for delta in deltas:
        g, affected = apply_delta(g, delta)
        for v, label in delta.add_nodes:
            if label is not None:
                train_pool.add(v)
        for v in delta.del_nodes:
            train_pool.discard(v)
            test_pool.discard(v)
        affected_train = sorted(v for v in affected
                                if v in train_pool and v in g.labels)
        before = (_snapshot(model.trainable_parameters()), dict(model.table.row))
        t0 = time.perf_counter()
        retrain = strategy == "ORACLE" and not delta.is_empty()
        if retrain:
            model = fresh_model()
        fwd = allotropic_forward(model, g)
        if retrain:
            full_train(model, g, fwd)
        elif strategy != "ORACLE" and affected_train:
            if strategy == "EWC":
                u = sample_U(train_pool, min(cfg.u_size, len(train_pool)),
                             seed=cfg.seed * 100003 + delta.t)
                unaffected = tuple(v for v in u if v not in set(affected_train))
                ewc.omega = compute_importance(model, g, unaffected, forward=fwd)
                ewc.snapshot = _snapshot(model.trainable_parameters())
                loss_fn = lambda h: continual_loss(model, affected_train, ewc, h=h, graph=g)
            elif strategy == "FT":
                loss_fn = lambda h: _sum_loss(model, h, g, affected_train)
            else:  # ER: the affected nodes plus the replayed ones, then buffer the former
                replay = [(v, y) for v, y in buffer.entries() if v in g.labels]
                nodes = affected_train + [v for v, _ in replay]
                labels = [g.labels[v] for v in affected_train] + [y for _, y in replay]
                for v in affected_train:
                    buffer.add(v, g.labels[v])
                loss_fn = lambda h: _sum_loss(model, h, g, nodes, labels)
            _train_plain(model, fwd, loss_fn, cfg.stream_epochs, cfg.lr)
        secs = time.perf_counter() - t0
        records.append(StreamRecord(strategy, delta.t,
                                    _evaluate(model, g, test_pool, fwd), secs,
                                    _entries_changed(before, model)))
    return records, model


STREAM_HEADER = ("strategy", "t", "accuracy", "seconds", "params_changed")


def stream_rows(records, timing="none"):
    rows = []
    for r in records:
        secs = r.seconds if timing == "wall" else 0.0
        rows.append((r.strategy, str(r.t), f"{r.accuracy:.10g}", f"{secs:.10g}",
                     str(r.params_changed)))
    return rows


def write_stream_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(STREAM_HEADER)
        w.writerows(rows)
