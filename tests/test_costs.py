"""Cost ledger: tape nodes per forward and per training epoch at fixed
small shapes, reverse sweeps per importance pass and tape orders per
epoch, array concatenations per Adam step, no cyclic garbage after whole
runs, no edge tuples on the set-up and training path, one draw per
embedding row, no tape alive past its epoch, no strided gather source in
a backward and the traced memory peak of one training call.

A pinned count may only go down, or go up with a stated reason.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from grafenne import model as model_mod
from grafenne import tensor as T
from grafenne.continual import (STRATEGIES, StreamConfig, _sum_loss, _train_plain,
                                compute_importance, continual_loss, run_stream)
from grafenne.graph import HeteroGraph, apply_missing_mask, make_split, to_allotropic
from grafenne.model import GrafenneConfig, GrafenneModel
from grafenne.optim import adam_step
from grafenne.stream import generate_stream
from grafenne.synth import make_community_graph
from grafenne.tasks import TrainConfig, method_model, train
from probe import recovery_probe


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
    anchor = np.concatenate([p.values.ravel() for p in params])
    loss_fn = continual_loss(model, g.nodes[:10], g, 100000.0, anchor, np.ones_like(anchor))

    def epoch():
        T.backward(loss_fn(forward()))

    assert _tape_nodes(monkeypatch, epoch) == 20


def _calls(monkeypatch, name):
    """A list that gets one entry per call of tensor.<name> from now on."""
    calls, orig = [], getattr(T, name)

    def counted(*args):
        calls.append(None)
        return orig(*args)
    monkeypatch.setattr(T, name, counted)
    return calls


def test_one_reverse_sweep_per_importance_node(monkeypatch):
    g = _graph()
    model, _ = method_model("grafenne", g, "node_classification", dim=8, layers=2)
    nodes = g.nodes[:7]
    sweeps, orders = _calls(monkeypatch, "sweep"), _calls(monkeypatch, "_topo_order")
    compute_importance(model, g, nodes)
    assert (len(sweeps), len(orders)) == (len(nodes), 1)


def test_one_tape_order_per_training_epoch(monkeypatch):
    g = _graph()
    split = make_split(g, (0.6, 0.2, 0.2), seed=0)
    model, forward = method_model("grafenne", g, "node_classification", dim=8, layers=2)
    cfg = TrainConfig(epochs=5, lr=0.01, seeds=(0,), patience=5)
    orders = _calls(monkeypatch, "_topo_order")
    result = train(model, g, split, cfg, forward, record_history=True)
    assert len(result.history) == 5 and len(orders) == 5


# one for the values and one for the gradients (grad_vector); the moments
# are kept as vectors and the new values are views of one
ADAM_STEP_CONCATENATIONS = 2


def test_array_concatenations_per_adam_step(monkeypatch):
    g = _graph()
    model, forward = method_model("grafenne", g, "node_classification", dim=8, layers=2)
    params = model.trainable_parameters()
    T.backward(T.sum_all(model.logits(forward())))
    state = adam_step(params, 0.01)  # the first step allocates the moments
    calls, concatenate = [], np.concatenate

    def counted(*args, **kwargs):
        calls.append(None)
        return concatenate(*args, **kwargs)

    monkeypatch.setattr(np, "concatenate", counted)
    adam_step(params, 0.01, state)
    assert len(calls) == ADAM_STEP_CONCATENATIONS


def _no_tuples(self):
    raise AssertionError("edges read as tuples")


def test_static_set_up_and_training_read_edges_as_arrays(monkeypatch):
    """The static benchmark's set-up (mask, drop a feature block, split,
    build the model, transform the inference graph) and a training epoch
    never build the edge tuples."""
    g = _graph()
    monkeypatch.setattr(HeteroGraph, "edges", property(_no_tuples))
    g_inf = apply_missing_mask(g, 0.5, 1)
    g_train = g_inf.replace(feats={v: {f: w for f, w in fmap.items() if f < 10}
                                   for v, fmap in g_inf.feats.items()})
    split = make_split(g_train, seed=1)
    model, forward = method_model("grafenne", g_train, "node_classification", dim=8, layers=2)
    alt = to_allotropic(g_inf)
    train(model, g_train, split, TrainConfig(epochs=1, lr=0.01, seeds=(0,), patience=1), forward)
    model.logits(model.forward(alt)[0])


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


def test_models_of_one_seed_and_dim_draw_each_embedding_row_once():
    g = _graph()
    alt = to_allotropic(g)
    model_mod._embedding_row.cache_clear()
    a, b = (GrafenneModel(GrafenneConfig(dim=8, seed=5), g.num_classes) for _ in range(2))
    a.forward(alt)
    b.forward(alt)
    info = model_mod._embedding_row.cache_info()
    assert (info.misses, info.hits) == (alt.m, alt.m)
    for f in alt.feat_ids.tolist():
        assert not model_mod._embedding_row(5, 8, f).flags.writeable
    wa, wb = a.table.weight.values, b.table.weight.values
    assert wa.flags.writeable and wb.flags.writeable
    assert not np.shares_memory(wa, wb)
    assert np.array_equal(wa, wb)


def _fails_if_an_output_outlives_its_epoch(forward):
    """forward, wrapped to fail when it is called while an output of an
    earlier call is alive; the list it returns gets one entry per call."""
    outputs = []

    def checked():
        alive = [k for k, ref in enumerate(outputs) if ref() is not None]
        assert not alive, f"forward {len(outputs)} starts with outputs {alive} alive"
        h = forward()
        outputs.append(weakref.ref(h))
        return h
    return checked, outputs


def test_no_forward_output_outlives_its_epoch_in_train():
    g = _graph()
    split = make_split(g, (0.6, 0.2, 0.2), seed=0)
    model, forward = method_model("grafenne", g, "node_classification", dim=8, layers=2)
    checked, outputs = _fails_if_an_output_outlives_its_epoch(forward)
    cfg = TrainConfig(epochs=4, lr=0.01, seeds=(0,), patience=4)
    # with the collector off, a dead tape goes by reference counting alone
    assert _cyclic_garbage(lambda: train(model, g, split, cfg, checked)) == 0
    assert len(outputs) == 5


def test_no_forward_output_outlives_its_epoch_in_plain_descent():
    g = _graph()
    model, forward = method_model("grafenne", g, "node_classification", dim=8, layers=2)
    checked, outputs = _fails_if_an_output_outlives_its_epoch(forward)
    loss_fn = _sum_loss(model, g, g.nodes[:10])
    assert _cyclic_garbage(lambda: _train_plain(model, checked, loss_fn, 4, 0.01)) == 0
    assert len(outputs) == 4


def test_every_gather_source_of_a_backward_is_contiguous(monkeypatch):
    # np.take copies a strided source whole on every call: the combine's
    # concat hands each attention a column slice of its gradient, which the
    # SDDMM would otherwise copy once per block
    g = _graph()
    model, forward = method_model("grafenne", g, "node_classification", dim=16, layers=2)
    loss = _sum_loss(model, g, g.nodes[:10])(forward())
    sources, take = [], np.take

    def spied(a, *args, **kwargs):
        sources.append(np.asarray(a).flags.c_contiguous)
        return take(a, *args, **kwargs)

    monkeypatch.setattr(np, "take", spied)
    T.backward(loss)
    assert sources and all(sources), sources


# tracemalloc peak of the train call below, in bytes, pinned with a 3%
# tolerance: no forward runs beside an earlier epoch's tape
TRAIN_PEAK_BYTES = 1_227_000


def test_train_traced_memory_peak():
    g = make_community_graph(n=200, classes=3, feats_per_class=4, p_in=0.03, p_out=0.004,
                             density=0.5, seed=2)
    split = make_split(g, (0.6, 0.2, 0.2), seed=0)
    model, forward = method_model("grafenne", g, "node_classification", dim=16, layers=2)
    forward()  # the derived layouts and the embedding rows exist before tracing
    cfg = TrainConfig(epochs=3, lr=0.01, seeds=(0,), patience=3)
    tracemalloc.start()
    try:
        train(model, g, split, cfg, forward)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= TRAIN_PEAK_BYTES * 1.03, peak
