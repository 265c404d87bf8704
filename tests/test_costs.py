"""Cost ledger: tape nodes per forward and per training epoch at fixed
small shapes, and no cyclic garbage after whole runs.

A pinned count may only go down, or go up with a stated reason.
"""

import gc

import numpy as np
import pytest

from grafenne import tensor as T
from grafenne.continual import EwcState, STRATEGIES, StreamConfig, continual_loss, run_stream
from grafenne.graph import make_split
from grafenne.model import recovery_probe
from grafenne.stream import generate_stream
from grafenne.synth import make_community_graph
from grafenne.tasks import TrainConfig, method_model, train


def _graph():
    return make_community_graph(n=40, classes=3, feats_per_class=4, p_in=0.15, p_out=0.02,
                                density=0.5, seed=2)


def _tape_nodes(monkeypatch, build):
    """The tape nodes, nodes with a backward, that build() creates."""
    count = [0]
    attach = T._attach

    def counting_attach(out, parents, backward_fn):
        result = attach(out, parents, backward_fn)
        count[0] += out._backward is not None
        return result

    monkeypatch.setattr(T, "_attach", counting_attach)
    build()
    monkeypatch.setattr(T, "_attach", attach)
    return count[0]


# dim 8, 2 layers: 1 embedding gather, per layer a phase-1 attention and MLP
# (layer 1's with its self matmul and concat), a phase-2 backbone and, in
# layer 0, a phase-3 attention, self matmul, concat and MLP, then the head
FORWARD_NODES = {
    "grafenne": 14,
    "grafenne_gat": 14,
    "grafenne_gin": 22,   # GIN's spmm, epsilon add, mul and add per layer
    "vanilla_alt": 6,     # gather, concat, 2 sage, the graph-state slice, head
    "sage": 3,
    "gat": 3,
    "gin": 10,            # layer 0's spmm reads constant inputs: no node
}


@pytest.mark.parametrize("method", sorted(FORWARD_NODES))
def test_tape_nodes_per_forward_and_logits(method, monkeypatch):
    g = _graph()
    model, forward = method_model(method, g, "node_classification", dim=8, layers=2)
    forward()  # build every lazily derived layout first
    assert _tape_nodes(monkeypatch, lambda: model.logits(forward())) == FORWARD_NODES[method]


def test_tape_nodes_per_ewc_training_epoch(monkeypatch):
    # c11's model: SAGE, dim 8, 2 layers; the epoch's loss is the summed
    # cross entropy (gather, cross_entropy, mul) plus lam / 2 times one
    # ewc_penalty node (mul, add) over the forward and logits
    g = _graph()
    model, forward = method_model("grafenne", g, "node_classification", dim=8, layers=2)
    forward()  # the embedding rows exist before the snapshot, as in a stream
    params = model.trainable_parameters()
    ewc = EwcState(snapshot={p.name: p.values.copy() for p in params},
                   omega={p.name: np.ones_like(p.values) for p in params})
    loss_fn = continual_loss(model, g.nodes[:10], ewc, graph=g)

    def epoch():
        T.backward(loss_fn(forward()))

    assert _tape_nodes(monkeypatch, epoch) == 20


def _cyclic_garbage(run):
    """What gc.collect() finds after run(), run with the collector off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_train_leaves_no_cyclic_garbage():
    g = _graph()
    split = make_split(g, (0.6, 0.2, 0.2), seed=0)
    model, forward = method_model("grafenne", g, "node_classification", dim=8, layers=2)
    cfg = TrainConfig(epochs=3, lr=0.01, seeds=(0,), patience=3)
    assert _cyclic_garbage(lambda: train(model, g, split, cfg, forward)) == 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_stream_leaves_no_cyclic_garbage(strategy):
    g = _graph()
    deltas = generate_stream(g, T=2, p_n=0.05, p_f_add=0.05, p_f_del=0.3, p_e_add=0.005,
                             p_e_del=0.005, seed=3)
    cfg = StreamConfig(epochs=3, stream_epochs=2, dim=8, u_size=5)
    assert _cyclic_garbage(lambda: run_stream(g, deltas, strategy, cfg)) == 0


def test_recovery_probe_leaves_no_cyclic_garbage():
    assert _cyclic_garbage(lambda: recovery_probe(3, trials=4, epochs=3)) == 0
