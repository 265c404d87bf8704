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
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .graph import GraphError, make_split
from .model import GrafenneConfig, GrafenneModel
from .optim import check_finite_params, descend, grad_vector, split_vector, zero_grad
from .stream import apply_delta
from .tasks import _snapshot, allotropic_forward, node_accuracy, node_loss, node_rows

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
        self.model_config()

    def model_config(self):
        return GrafenneConfig(layers=self.layers, dim=self.dim, phase2=self.phase2,
                              seed=self.seed).validate()

    def replay_capacity(self):
        return self.u_size if self.er_capacity is None else self.er_capacity


@dataclass
class EwcState:
    """EWC's anchor and importance weight, each one vector over the
    concatenated entries of model.trainable_parameters(), the layout Adam
    and tensor.ewc_penalty share: nothing grows with stream length."""

    lam: float = 100000.0
    anchor: np.ndarray = None
    weight: np.ndarray = None


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


def sample_U(train_nodes, size, seed):
    """Uniform subset of training nodes, without replacement."""
    pool = sorted(train_nodes)
    if size > len(pool):
        raise ValueError(f"requested {size} nodes from a pool of {len(pool)}")
    rng = np.random.default_rng([seed, 211])
    idx = rng.choice(len(pool), size=size, replace=False)
    return tuple(sorted(pool[i] for i in idx))


def compute_importance(model, g_t, nodes, forward=None):
    """Mean squared per-node loss gradient by parameter name, entry by entry.

    One forward and one tape order serve every node: each node's reverse
    sweep starts at the logits, seeded with that node's cross-entropy
    gradient (its softmax minus one-hot row); its squared gradients add up
    as one vector over all entries. The result is plain numpy, views of
    that vector. Empty node set degenerates to zero importance (with a
    warning) — pure fine-tuning."""
    params = model.trainable_parameters()
    order = sorted(nodes)
    if forward is None:
        forward = allotropic_forward(model, g_t)
    logits = model.logits(forward())
    tape = T._topo_order(logits)
    rows = node_rows(g_t, order)
    omega = np.zeros(sum(p.values.size for p in params))
    if not order:
        warnings.warn("importance over an empty node set is zero (fine-tuning)")
    zero_grad(params)  # so a parameter the logits do not reach adds nothing
    for r, v in zip(rows, order):
        seed = np.zeros_like(logits.values)
        seed[r] = T.softmax_minus_onehot(logits.values[r:r + 1], [g_t.labels[v]])[0]
        # the shared tape keeps grads between sweeps; reset the whole
        # reachable slice, parameters included
        for node in tape:
            node.grad = None
        T.sweep(logits, seed, tape)
        omega += np.square(grad_vector(params))
    omega *= 1.0 / max(len(order), 1)
    return dict(zip((p.name for p in params), split_vector(omega, params)))


def _sum_loss(model, g, nodes, labels=None):
    """loss(h): the task loss summed (not averaged) over the given nodes of
    g, read from g's node states h. Rows and labels are looked up once."""
    rows = node_rows(g, nodes)
    ys = np.array([g.labels[v] for v in nodes] if labels is None else labels,
                  dtype=np.int64)
    mean, count = node_loss(model, rows, ys), float(len(nodes))
    return lambda h: T.mul(mean(h), count)


def continual_loss(model, affected_train_nodes, ewc, graph):
    """loss(h): the sum of per-node task losses on the affected nodes, read
    from the node states h of the current graph, plus lam / 2 times the
    quadratic importance-weighted penalty against ewc's anchor, one
    tensor.ewc_penalty node over the model's trainable parameters, which
    raises unless the anchor and weight have one entry per parameter entry.
    Nodes and labels are looked up once, here, for every epoch of a timestamp."""
    task = _sum_loss(model, graph, sorted(affected_train_nodes))
    params, half = model.trainable_parameters(), ewc.lam / 2.0
    anchor, weight = ewc.anchor, ewc.weight
    return lambda h: T.add(task(h), T.mul(T.ewc_penalty(params, anchor, weight), half))


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
        raise GraphError("test set is empty at this timestamp")
    return node_accuracy(model, forward(), node_rows(g, alive),
                         np.array([g.labels[v] for v in alive]))


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
    if not split.train:
        raise GraphError("empty train split")
    train_pool = set(split.train)
    test_pool = set(split.test)
    model_cfg = cfg.model_config()

    def fresh_model():
        return GrafenneModel(model_cfg, g_1.num_classes)

    def full_train(model, g, fwd):
        pool = sorted(train_pool)
        task = _sum_loss(model, g, pool)
        _train_plain(model, fwd, lambda h: T.mul(task(h), 1.0 / len(pool)), cfg.epochs, cfg.lr)

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
                affected_set = set(affected_train)
                unaffected = tuple(v for v in u if v not in affected_set)
                omega = compute_importance(model, g, unaffected, forward=fwd)
                ewc.weight = np.concatenate([w.ravel() for w in omega.values()])
                ewc.anchor = np.concatenate([p.values.ravel()
                                             for p in model.trainable_parameters()])
                loss_fn = continual_loss(model, affected_train, ewc, graph=g)
            elif strategy == "FT":
                loss_fn = _sum_loss(model, g, affected_train)
            else:  # ER: the affected nodes plus the replayed ones, then buffer the former
                replay = [(v, y) for v, y in buffer.entries() if v in g.labels]
                nodes = affected_train + [v for v, _ in replay]
                labels = [g.labels[v] for v in affected_train] + [y for _, y in replay]
                for v in affected_train:
                    buffer.add(v, g.labels[v])
                loss_fn = _sum_loss(model, g, nodes, labels)
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
