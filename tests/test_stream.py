import hashlib

import numpy as np
import pytest

from grafenne.graph import GraphError, HeteroGraph, to_allotropic
from grafenne.stream import StreamDelta, apply_delta, generate_stream
from grafenne.synth import make_community_graph
from test_graph import random_graph, toy

# the graph and drift stream of the c11 continual gate
C11_GRAPH = dict(n=500, classes=4, feats_per_class=6, p_in=0.02, p_out=0.004,
                 density=0.45, noise=0.15, seed=1)
C11_STREAM = dict(T=9, p_n=0.03, p_f_add=0.05, p_f_del=0.4, p_e_add=0.0005,
                  p_e_del=0.0005, seed=7)


def digest(deltas):
    return hashlib.sha256(repr(deltas).encode()).hexdigest()


def test_empty_delta_identity():
    g = toy()
    out, affected = apply_delta(g, StreamDelta(t=2))
    assert affected == frozenset()
    assert out.nodes == g.nodes and out.edges == g.edges and out.feats == g.feats


def test_delete_node_cascades():
    g = toy()
    out, affected = apply_delta(g, StreamDelta(t=2, del_nodes=(0,)))
    assert 0 not in out.nodes and out.edges == () and 0 not in out.feats
    assert 0 not in out.labels and affected == {0}


def test_delta_integrity_errors():
    g = toy()
    with pytest.raises(GraphError, match="nonexistent edge"):
        apply_delta(g, StreamDelta(t=2, del_edges=((1, 2),)))
    with pytest.raises(GraphError, match="nonexistent feature"):
        apply_delta(g, StreamDelta(t=2, del_feats=((2, 1),)))
    with pytest.raises(GraphError, match="existing node"):
        apply_delta(g, StreamDelta(t=2, add_nodes=((1, None),)))
    with pytest.raises(GraphError, match="existing edge"):
        apply_delta(g, StreamDelta(t=2, add_edges=((1, 0),)))
    with pytest.raises(GraphError, match="existing feature"):
        apply_delta(g, StreamDelta(t=2, add_feats=((0, 1, 2.0),)))


def test_add_node_with_label_and_edge():
    g = toy()
    d = StreamDelta(t=2, add_nodes=((9, 2),), add_edges=((9, 2),), add_feats=((9, 1, 0.5),))
    out, affected = apply_delta(g, d)
    assert 9 in out.nodes and (2, 9) in out.edges and out.node_feats(9) == {1: 0.5}
    assert out.labels[9] == 2 and out.num_classes == 3
    assert affected == {9, 2}


def test_generate_stream_all_zero_probs():
    deltas = generate_stream(toy(), T=4, p_n=0, p_f_add=0, p_f_del=0,
                             p_e_add=0, p_e_del=0, seed=0)
    assert len(deltas) == 4
    assert [d.t for d in deltas] == [2, 3, 4, 5]
    assert all(d.is_empty() for d in deltas)


def test_generate_stream_full_deletion():
    deltas = generate_stream(toy(), T=1, p_n=1, p_f_add=0, p_f_del=1,
                             p_e_add=0, p_e_del=0, seed=0)
    out, _ = apply_delta(toy(), deltas[0])
    assert all(not out.node_feats(v) for v in out.nodes)


def test_generate_stream_paper_config_accepted():
    g = random_graph(np.random.default_rng(1), n_max=30)
    deltas = generate_stream(g, T=9, p_n=0.03, p_f_add=0.05, p_f_del=0.4,
                             p_e_add=0.0005, p_e_del=0.0005, seed=3)
    assert len(deltas) == 9


def test_generate_stream_deterministic():
    g = random_graph(np.random.default_rng(2), n_max=25)
    kw = dict(T=5, p_n=0.3, p_f_add=0.1, p_f_del=0.3, p_e_add=0.02, p_e_del=0.05)
    a = generate_stream(g, seed=7, **kw)
    b = generate_stream(g, seed=7, **kw)
    assert a == b
    assert generate_stream(g, seed=8, **kw) != a
    # non-binary values: every added value is a draw of 1 - uniform[0, 1)
    assert len({w for d in a for *_, w in d.add_feats} - {1.0}) == 5
    assert digest(a) == "e00b6f1747c8f9f5049c1817e0061a7913e4cc0780d6843f8a9ff8e51ea114b0"


def test_c11_stream_is_pinned():
    """c11 and the continual benchmark workload both read this exact stream."""
    deltas = generate_stream(make_community_graph(**C11_GRAPH), **C11_STREAM)
    counts = [(len(d.add_feats), len(d.del_feats), len(d.add_edges), len(d.del_edges))
              for d in deltas]
    assert counts == [(9, 18, 0, 0), (14, 21, 1, 0), (16, 36, 0, 0), (17, 45, 1, 0),
                      (14, 31, 0, 2), (11, 28, 1, 0), (10, 26, 1, 1), (9, 15, 1, 2),
                      (11, 23, 0, 0)]
    assert digest(deltas) == "536be6b7426884727b93127ab51654916ee29307713b86bc146e209886050478"


def test_generate_stream_validates():
    with pytest.raises(ValueError, match="p_f_add"):
        generate_stream(toy(), T=1, p_n=0, p_f_add=1.2, p_f_del=0,
                        p_e_add=0, p_e_del=0, seed=0)
    with pytest.raises(ValueError, match="T="):
        generate_stream(toy(), T=0, p_n=0, p_f_add=0, p_f_del=0,
                        p_e_add=0, p_e_del=0, seed=0)


def test_replay_matches_independent_simulation():
    # replay deltas through apply_delta and recheck counts by hand
    rng = np.random.default_rng(5)
    for trial in range(10):
        g = random_graph(rng, n_max=20)
        deltas = generate_stream(g, T=6, p_n=0.5, p_f_add=0.2, p_f_del=0.4,
                                 p_e_add=0.05, p_e_del=0.1, seed=trial)
        snap = g
        feats = {v: dict(g.node_feats(v)) for v in g.nodes}
        edges = set(g.edges)
        for d in deltas:
            snap, _ = apply_delta(snap, d)
            for u, v in d.del_edges:
                edges.remove((min(u, v), max(u, v)))
            for u, v in d.add_edges:
                edges.add((min(u, v), max(u, v)))
            for v, f in d.del_feats:
                del feats[v][f]
            for v, f, w in d.add_feats:
                feats[v][f] = w
            assert set(snap.edges) == edges
            assert {v: m for v, m in feats.items() if m} == snap.feats


def test_rebuild_equivalence_after_delta():
    rng = np.random.default_rng(9)
    g = random_graph(rng, n_max=50)
    deltas = generate_stream(g, T=3, p_n=0.4, p_f_add=0.3, p_f_del=0.4,
                             p_e_add=0.1, p_e_del=0.2, seed=13)
    snap = g
    for d in deltas:
        snap, _ = apply_delta(snap, d)
    rebuilt = HeteroGraph(snap.nodes, snap.edges, snap.feats, snap.labels,
                          num_classes=snap.num_classes)
    a, b = to_allotropic(snap), to_allotropic(rebuilt)
    assert np.array_equal(a.feat_to_node.dst, b.feat_to_node.dst)
    assert np.array_equal(a.feat_to_node.weight, b.feat_to_node.weight)
    assert np.array_equal(a.node_to_node.src, b.node_to_node.src)
    assert np.array_equal(a.graph_edge_array, b.graph_edge_array)


def _apply_edges_per_node(g, delta):
    """The edge set apply_delta should produce, with the incident edges of
    each deleted node dropped one node at a time."""
    edges = set(g.edges) - {(min(u, v), max(u, v)) for u, v in delta.del_edges}
    for v in delta.del_nodes:
        edges = {e for e in edges if v not in e}
    return edges | {(min(u, v), max(u, v)) for u, v in delta.add_edges}


def test_apply_delta_node_deletion_matches_per_node_rule():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(60):
        g = random_graph(rng, n_max=25)
        nodes = list(g.nodes)
        gone = [int(v) for v in rng.choice(nodes, size=int(rng.integers(1, len(nodes) + 1)),
                                           replace=False)]
        alive = [v for v in nodes if v not in gone]
        kept = [e for e in g.edges if e[0] not in gone and e[1] not in gone]
        del_edges = tuple(e for e in g.edges if e in kept and rng.random() < 0.2)
        new = max(nodes) + 1
        add_nodes = ((new, 1), (new + 1, None))
        pairs = [(u, v) for u in alive + [new, new + 1] for v in alive + [new, new + 1] if u < v]
        add_edges = tuple(e for e in pairs
                          if (e not in set(g.edges) or e in del_edges) and rng.random() < 0.1)
        delta = StreamDelta(t=3, del_nodes=tuple(gone), add_nodes=add_nodes,
                            add_edges=add_edges, del_edges=del_edges)
        out, affected = apply_delta(g, delta)
        assert set(out.edges) == _apply_edges_per_node(g, delta)
        assert set(out.nodes) == set(alive) | {new, new + 1}
        assert not set(gone) & (set(out.feats) | set(out.labels))
        assert affected == delta.affected_nodes()
        checked += len(gone)
    assert checked > 60
    g = random_graph(np.random.default_rng(5), n_max=10)
    v = g.nodes[0]
    with pytest.raises(GraphError, match=f"t=4: deleting nonexistent node {v}"):
        apply_delta(g, StreamDelta(t=4, del_nodes=(v, v)))
    with pytest.raises(GraphError, match=rf"t=4: bad edge addition \({v},{g.nodes[1]}\)"):
        apply_delta(g, StreamDelta(t=4, del_nodes=(v,), add_edges=((v, g.nodes[1]),)))
