import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafenne.graph import (DataError, Edges, GraphError, HeteroGraph,
                            apply_missing_mask, load_graph, make_split,
                            project_back, remove_edges, to_allotropic)
from grafenne.stream import StreamDelta, apply_delta
from naive_ref import adjacency


def toy():
    # A:{f1:1,f2:2}, B:{f2:3}, C:{} with edge (A,B); ids 0,1,2 / feats 1,2
    return HeteroGraph(nodes=[0, 1, 2], edges=[(0, 1)],
                       feats={0: {1: 1.0, 2: 2.0}, 1: {2: 3.0}},
                       labels={0: 0, 1: 1, 2: 0})


def translate_features(g, scale, shift):
    """g with every stored feature value x replaced by scale * x + shift."""
    return g.replace(feats=(g.feat_node, g.feat_id, scale * g.feat_value + shift))


def random_graph(rng, n_max=50):
    n = int(rng.integers(2, n_max + 1))
    nodes = list(range(n))
    possible = [(u, v) for u in nodes for v in nodes if u < v]
    rng.shuffle(possible)
    edges = possible[: int(rng.integers(0, min(len(possible), 3 * n)))]
    n_feats = int(rng.integers(0, 12))
    feats = {}
    for v in nodes:
        fmap = {int(f): float(rng.uniform(0.1, 2.0))
                for f in rng.choice(n_feats, size=int(rng.integers(0, n_feats + 1)), replace=False)} \
            if n_feats else {}
        if fmap:
            feats[v] = fmap
    labels = {v: int(rng.integers(0, 3)) for v in nodes if rng.random() < 0.8}
    return HeteroGraph(nodes, edges, feats, labels)


def entry_count(g):
    """Stored (node, feature) entries: the feature edges of G^alt."""
    return sum(len(f) for f in g.feats.values())


def test_construction_canonicalizes_edges():
    g = HeteroGraph([0, 1], [(1, 0), (0, 1)], {}, {})
    assert g.edges == ((0, 1),)


def test_construction_rejects_bad_edges():
    with pytest.raises(GraphError, match="self-loop"):
        HeteroGraph([0], [(0, 0)], {}, {})
    with pytest.raises(GraphError, match="missing node"):
        HeteroGraph([0, 1], [(0, 2)], {}, {})


def test_edges_from_a_list_a_set_an_array_and_unsorted_repeats_are_equal():
    nodes = [9, 2, 5, 7]
    canonical = [(2, 5), (2, 9), (5, 7), (7, 9)]
    inputs = [canonical, set(canonical), np.array(canonical),
              [(9, 7), (5, 2), (2, 9), (7, 5), (2, 5), (9, 2)],
              np.array([[7, 9], [7, 5], [5, 2], [9, 2], [9, 7]])]
    for edges in inputs:
        g = HeteroGraph(nodes, edges, {}, {})
        assert g.edges == tuple(canonical)
        assert g.edge_array.dtype == np.int64 and g.edge_array.shape == (4, 2)
        assert not g.edge_array.flags.writeable
    assert HeteroGraph([0, 1], np.zeros((0, 2), dtype=np.int64), {}, {}).edges == ()
    assert HeteroGraph([0, 1], set(), {}, {}).edge_array.shape == (0, 2)


def test_edge_and_label_errors_name_the_first_offender_in_input_order():
    with pytest.raises(GraphError, match=r"^self-loop on node 1$"):
        HeteroGraph([0, 1, 2], [(0, 1), (1, 1), (2, 5)], {}, {})
    with pytest.raises(GraphError, match=r"^edge \(2,5\) references a missing node$"):
        HeteroGraph([0, 1, 2], np.array([[0, 1], [2, 5], [1, 1]]), {}, {})
    with pytest.raises(GraphError, match=r"^edge \(7,0\) references a missing node$"):
        HeteroGraph([0, 1], [(7, 0)], {}, {})
    with pytest.raises(GraphError, match=r"^label for missing node 7$"):
        HeteroGraph([0, 1], [], {}, {0: 0, 7: 1, 1: -1})
    with pytest.raises(GraphError, match=r"^negative class id -1 for node 1$"):
        HeteroGraph([0, 1], [], {}, {0: 0, 1: -1, 7: 1})
    with pytest.raises(GraphError, match=r"\(u, v\) pairs"):
        HeteroGraph([0, 1, 2], np.array([[0, 1, 2]]), {}, {})


def test_remove_edges_by_array_search():
    g = HeteroGraph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], {}, {})
    assert remove_edges(g, [(2, 1), (4, 0), (1, 2)]).edges == ((0, 1), (2, 3), (3, 4))
    with pytest.raises(GraphError, match=r"removing nonexistent edges: \[\(0, 2\), \(3, 3\)\]"):
        remove_edges(g, [(3, 3), (1, 2), (2, 0), (0, 2)])
    with pytest.raises(GraphError, match=r"removing nonexistent edges: \[\(4, 9\)\]"):
        remove_edges(g, [(9, 4)])


def test_zero_feature_values_dropped():
    g = HeteroGraph([0], [], {0: {1: 0.0, 2: 5.0}}, {})
    assert g.node_feats(0) == {2: 5.0}
    assert g.feature_ids() == (2,)


def test_to_allotropic_toy_counts():
    alt = to_allotropic(toy())
    assert alt.n + alt.m == 3 + 2
    fe = alt.feat_to_node
    assert len(alt.graph_edge_array) + len(fe) == 1 + 3
    triples = {(int(alt.node_ids[v]), int(alt.feat_ids[f]), w)
               for v, f, w in zip(fe.dst, fe.src, fe.weight)}
    assert triples == {(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)}
    assert alt.graph_edge_array.tolist() == [[0, 1]]
    # node C (id 2) has no feature edges
    assert not (alt.node_ids[fe.dst] == 2).any()


def test_to_allotropic_no_features():
    g = HeteroGraph([0, 1], [(0, 1)], {}, {})
    alt = to_allotropic(g)
    assert alt.m == 0 and alt.n == 2
    assert len(alt.graph_edge_array) == 1 and len(alt.feat_to_node) == 0


def test_allotropic_invariants_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = random_graph(rng)
        alt = to_allotropic(g)
        assert alt.n + alt.m == g.num_nodes + len(g.feature_ids())
        assert len(alt.graph_edge_array) + len(alt.feat_to_node) == g.num_edges + entry_count(g)
        assert project_back(alt) == g.feats


def _tuple_sort_arrays(g):
    """G^alt's id and feature-edge arrays by their defining rule: sort the
    (node row, feature row, value) tuples, then reorder by (feature, node);
    each row pointer counts the edges into every destination."""
    node_ids, feat_ids = sorted(g.nodes), sorted(g.feature_ids())
    node_row = {v: i for i, v in enumerate(node_ids)}
    feat_row = {f: i for i, f in enumerate(feat_ids)}
    fe = sorted((node_row[v], feat_row[f], w)
                for v in g.nodes for f, w in g.node_feats(v).items())
    fe_node = np.array([e[0] for e in fe], dtype=np.int64)
    fe_feat = np.array([e[1] for e in fe], dtype=np.int64)
    fe_weight = np.array([e[2] for e in fe], dtype=np.float64)
    order3 = np.lexsort((fe_node, fe_feat))
    n, m = len(node_ids), len(feat_ids)
    ge = sorted((node_row[b], node_row[a]) for u, v in g.edges for a, b in ((u, v), (v, u)))
    return {"node_ids": np.asarray(node_ids, dtype=np.int64),
            "feat_ids": np.asarray(feat_ids, dtype=np.int64),
            "feat_to_node.dst": fe_node, "feat_to_node.src": fe_feat,
            "feat_to_node.weight": fe_weight,
            "feat_to_node.indptr": np.array([sum(e[0] < r for e in fe) for r in range(n + 1)],
                                            dtype=np.int64),
            "node_to_feat.src": fe_node[order3], "node_to_feat.dst": fe_feat[order3],
            "node_to_feat.weight": fe_weight[order3],
            "node_to_feat.indptr": np.array([sum(e[1] < r for e in fe) for r in range(m + 1)],
                                            dtype=np.int64),
            "node_to_node.dst": np.array([e[0] for e in ge], dtype=np.int64),
            "node_to_node.src": np.array([e[1] for e in ge], dtype=np.int64)}


def scattered_graph(rng, n_max=20):
    """random_graph with node and feature ids scattered over a wide,
    non-contiguous range, given to the constructor in shuffled order."""
    g = random_graph(rng, n_max)
    node_of = dict(zip(g.nodes, rng.choice(10**6, size=g.num_nodes, replace=False).tolist()))
    feat_of = dict(enumerate(rng.choice(10**6, size=12, replace=False).tolist()))
    feats = {node_of[v]: {feat_of[f]: x for f, x in fmap.items()}
             for v, fmap in g.feats.items()}
    return HeteroGraph(node_of.values(), [(node_of[u], node_of[v]) for u, v in g.edges],
                       dict(sorted(feats.items(), key=lambda _: rng.random())), {})


def test_allotropic_arrays_match_the_tuple_sort_rule():
    rng = np.random.default_rng(12)
    graphs = [toy(), HeteroGraph([0, 1], [(0, 1)], {}, {}), HeteroGraph([], [], {}, {})]
    graphs += [scattered_graph(rng) for _ in range(60)]
    assert any(not g.feats for g in graphs)
    assert any(len(g.feats) < g.num_nodes for g in graphs if g.feats)
    for g in graphs:
        alt = to_allotropic(g)
        assert alt.feat_to_node.shape == (alt.n, alt.m)
        assert alt.node_to_feat.shape == (alt.m, alt.n)
        for name, want in _tuple_sort_arrays(g).items():
            got = operator.attrgetter(name)(alt)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_edges_reject_unsorted_destinations():
    with pytest.raises(ValueError, match="ascending"):
        Edges([0, 1, 2], [0, 2, 1], (3, 3))


def test_edges_reject_out_of_range_indices():
    for src, dst in (([0], [-1]), ([0], [3]), ([-1], [0]), ([2], [0]), ([0, 2], [1, 1])):
        with pytest.raises(ValueError, match="out of range"):
            Edges(src, dst, (3, 2))
    with pytest.raises(ValueError, match="one length"):
        Edges([0, 1], [0], (3, 2))
    with pytest.raises(ValueError, match="one length"):
        Edges([0, 1], [0, 1], (3, 2), weight=[1.0])


def test_edges_accept_repeated_and_unsorted_sources_and_empty_rows():
    e = Edges([2, 0, 2, 1], [1, 1, 1, 3], (5, 3))
    assert e.indptr.tolist() == [0, 0, 3, 3, 4, 4]
    assert len(Edges([], [], (0, 0))) == 0 and Edges([], [], (2, 0)).indptr.tolist() == [0, 0, 0]


def test_edges_take_keeps_weights_aligned():
    src, dst = np.array([3, 1, 0, 2, 1, 3]), np.array([0, 0, 1, 1, 1, 4])
    weight = np.array([0.5, -1.0, 2.0, 0.25, 8.0, -3.0])
    e = Edges(src, dst, (5, 4), weight)
    keep = np.array([1, 2, 4, 5])
    sub = e.take(keep)
    assert sub.shape == e.shape
    assert list(zip(sub.src, sub.dst, sub.weight)) == list(zip(src[keep], dst[keep], weight[keep]))
    assert sub.indptr.tolist() == [0, 1, 3, 3, 3, 4]
    assert Edges(src, dst, (5, 4)).take(keep).weight is None


def test_layouts_and_derived_arrays_are_read_only():
    alt = to_allotropic(toy())
    layouts = (alt.feat_to_node, alt.node_to_feat, alt.node_to_node)
    arrays = {"node_ids": alt.node_ids, "feat_ids": alt.feat_ids,
              "derived": alt.feat_to_node.derived(lambda e: np.ones(len(e)))}
    for name, e in zip(("feat_to_node", "node_to_feat", "node_to_node"), layouts):
        arrays.update({f"{name}.{k}": getattr(e, k) for k in ("src", "dst", "indptr")})
    arrays.update(weight=alt.feat_to_node.weight, reversed_weight=alt.node_to_feat.weight)
    for name, a in arrays.items():
        assert len(a), name
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_edges_never_freeze_the_callers_arrays():
    src, dst, weight = np.array([2, 0, 1]), np.array([0, 1, 1]), np.array([0.5, 1.0, 2.0])
    e = Edges(src, dst, (2, 3), weight)
    src[0], weight[0] = 1, 9.0  # still the caller's to write, and not the layout's
    assert e.src.tolist() == [2, 0, 1] and e.weight.tolist() == [0.5, 1.0, 2.0]
    frozen = e.src
    assert Edges(frozen, dst, (2, 3)).src is frozen  # a read-only array is shared


def test_dict_and_triple_inputs_give_the_same_sorted_entries():
    rng = np.random.default_rng(4)
    for _ in range(30):
        g = scattered_graph(rng)
        feats = g.feats
        for v in list(feats)[::2]:  # stored zeros count as absent
            feats[v][-1] = 0.0
        triple = [(v, f, x) for v, fmap in feats.items() for f, x in fmap.items()]
        rng.shuffle(triple)
        a = HeteroGraph(g.nodes, g.edges, feats, {})
        b = HeteroGraph(g.nodes, g.edges, tuple(np.array(c) for c in zip(*triple)) if triple
                        else ((), (), ()), {})
        for x, y, want in zip((a.feat_node, a.feat_id, a.feat_value),
                              (b.feat_node, b.feat_id, b.feat_value),
                              (g.feat_node, g.feat_id, g.feat_value)):
            assert x.dtype == y.dtype == want.dtype
            assert np.array_equal(x, want) and np.array_equal(y, want)
        key = list(zip(a.feat_node.tolist(), a.feat_id.tolist()))
        assert key == sorted(key) and len(set(key)) == len(key)
        assert (a.feat_value != 0.0).all() and not a.feat_value.flags.writeable


def test_node_feats_equals_feats_for_every_node():
    rng = np.random.default_rng(6)
    for g in [toy(), HeteroGraph([], [], {}, {})] + [scattered_graph(rng) for _ in range(20)]:
        feats = g.feats
        assert all(fmap for fmap in feats.values())
        for v in g.nodes:
            assert g.node_feats(v) == feats.get(v, {})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_values_are_rejected(value):
    with pytest.raises(GraphError, match="non-finite value"):
        HeteroGraph([0, 1], [], {0: {3: 1.0}, 1: {2: value}}, {})
    with pytest.raises(GraphError, match=r"feature \(1,2\) has non-finite value"):
        toy().replace(feats=([0, 1], [1, 2], [1.0, value]))
    with pytest.raises(GraphError, match="non-finite value"):
        apply_delta(toy(), StreamDelta(t=2, add_feats=((2, 5, value),)))


def test_triple_input_errors():
    with pytest.raises(GraphError, match=r"duplicate feature entry \(1,2\)"):
        HeteroGraph([0, 1], [], ([1, 0, 1], [2, 2, 2], [1.0, 2.0, 0.0]), {})
    with pytest.raises(GraphError, match="missing node 5"):
        HeteroGraph([0, 1], [], ([1, 5], [2, 2], [1.0, 0.0]), {})
    with pytest.raises(GraphError, match="missing node 5"):
        HeteroGraph([0, 1], [], {5: {2: 1.0}}, {})
    with pytest.raises(GraphError, match="differ in length"):
        HeteroGraph([0, 1], [], ([1], [2, 3], [1.0]), {})


def test_unsorted_entries_come_out_sorted():
    want = ([0, 0, 1, 2], [1, 4, 2, 0], [0.5, 1.5, 2.5, 3.5])
    for feats in ({2: {0: 3.5}, 0: {4: 1.5, 1: 0.5}, 1: {2: 2.5}},
                  ([1, 0, 2, 0], [2, 4, 0, 1], [2.5, 1.5, 3.5, 0.5]),
                  ([0, 0, 1, 2], [4, 1, 2, 0], [1.5, 0.5, 2.5, 3.5]),
                  want):
        g = HeteroGraph([0, 1, 2], [], feats, {})
        got = (g.feat_node.tolist(), g.feat_id.tolist(), g.feat_value.tolist())
        assert got == want


@pytest.mark.parametrize("node, feat", [
    ([0, 1, 1, 2], [3, 2, 2, 0]),     # adjacent, otherwise sorted
    ([1, 0, 2, 1], [2, 3, 0, 2]),     # scattered
    ([0, 1, 2, 1], [3, 2, 0, 2]),     # sorted up to the repeat
])
def test_duplicate_entries_raise_adjacent_or_scattered(node, feat):
    with pytest.raises(GraphError, match=r"duplicate feature entry \(1,2\)"):
        HeteroGraph([0, 1, 2], [], (node, feat, [1.0, 2.0, 3.0, 4.0]), {})


def mask_by_node_loop(g, p, seed):
    """The per-node masking loop: one draw per node with entries, over its
    entries in ascending feature order."""
    rng = np.random.default_rng(seed)
    feats = {}
    for v in g.nodes:
        fmap = g.node_feats(v)
        if not fmap:
            continue
        items = sorted(fmap.items())
        keep = rng.random(len(items)) >= p
        kept = {f: w for (f, w), k in zip(items, keep) if k}
        if kept:
            feats[v] = kept
    return g.replace(feats=feats)


def test_apply_missing_mask_equals_the_per_node_loop():
    rng = np.random.default_rng(8)
    for trial in range(40):
        g = scattered_graph(rng)
        for p in (0.0, 0.3, 0.5, 0.99, 1.0):
            for seed in (trial, 10**6 + trial):
                got, want = apply_missing_mask(g, p, seed), mask_by_node_loop(g, p, seed)
                assert np.array_equal(got.feat_node, want.feat_node)
                assert np.array_equal(got.feat_id, want.feat_id)
                assert np.array_equal(got.feat_value, want.feat_value)


def test_apply_missing_mask_bounds_and_identity():
    g = toy()
    assert apply_missing_mask(g, 0.0, seed=1).feats == g.feats
    assert apply_missing_mask(g, 1.0, seed=1).feats == {}
    with pytest.raises(ValueError, match="outside"):
        apply_missing_mask(g, 1.5, seed=1)


def test_apply_missing_mask_binomial():
    rng = np.random.default_rng(3)
    feats = {v: {f: 1.0 for f in range(100)} for v in range(100)}
    g = HeteroGraph(range(100), [], feats, {})
    masked = apply_missing_mask(g, 0.5, seed=11)
    deleted = 10000 - entry_count(masked)
    sigma = (10000 * 0.25) ** 0.5
    assert abs(deleted - 5000) <= 3 * sigma


def test_apply_missing_mask_preserves_structure():
    g = toy()
    masked = apply_missing_mask(g, 0.7, seed=5)
    assert masked.nodes == g.nodes and masked.edges == g.edges and masked.labels == g.labels
    assert apply_missing_mask(g, 0.7, seed=5).feats == masked.feats


def test_make_split_rules():
    g = HeteroGraph(range(10), [], {}, {v: 0 for v in range(10)})
    s = make_split(g, (1.0, 0.0, 0.0), seed=0)
    assert sorted(s.train) == list(range(10)) and not s.val and not s.test
    s = make_split(g, (0.6, 0.2, 0.2), seed=0)
    assert (len(s.train), len(s.val), len(s.test)) == (6, 2, 2)
    assert not (set(s.train) & set(s.val)) and not (set(s.train) & set(s.test))
    again = make_split(g, (0.6, 0.2, 0.2), seed=0)
    assert again == s
    assert make_split(g, (0.6, 0.2, 0.2), seed=1) != s
    with pytest.raises(ValueError, match="> 1"):
        make_split(g, (0.9, 0.2, 0.2), seed=0)


def test_make_split_checks_its_fractions():
    g = HeteroGraph(range(10), [], {}, {v: 0 for v in range(10)})
    with pytest.raises(ValueError, match="> 1"):
        make_split(g, (0.9, 0.2, 0.2), seed=0)
    with pytest.raises(ValueError, match="bad fractions"):
        make_split(g, (0.6, -0.2, 0.6), seed=0)


def test_make_split_remainder_to_train():
    g = HeteroGraph(range(11), [], {}, {v: 0 for v in range(11)})
    s = make_split(g, (0.6, 0.2, 0.2), seed=0)
    assert (len(s.train), len(s.val), len(s.test)) == (7, 2, 2)


def test_remove_edges():
    g = toy()
    h = remove_edges(g, [(1, 0)])
    assert h.edges == ()
    with pytest.raises(GraphError, match="nonexistent"):
        remove_edges(g, [(0, 2)])


def test_translate_features():
    g = translate_features(toy(), 10.0, 0.0)
    assert g.node_feats(0) == {1: 10.0, 2: 20.0}
    same = translate_features(toy(), 1.0, 0.0)
    assert same.feats == toy().feats


def test_adjacency_sorted():
    g = HeteroGraph(range(4), [(2, 0), (0, 1), (3, 0)], {}, {})
    assert adjacency(g)[0] == (1, 2, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.0, 1.0))
def test_mask_deterministic_and_subset(seed, p):
    rng = np.random.default_rng(seed % 1000)
    g = random_graph(rng, n_max=15)
    a = apply_missing_mask(g, p, seed=seed)
    b = apply_missing_mask(g, p, seed=seed)
    assert a.feats == b.feats
    for v, fmap in a.feats.items():
        assert set(fmap) <= set(g.node_feats(v))
        assert all(g.node_feats(v)[f] == w for f, w in fmap.items())


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_graph_toy(tmp_path):
    edges = _write(tmp_path / "e.tsv", "a\tb\n")
    feats = _write(tmp_path / "f.tsv", "a\tf0\t1.0\n")
    labels = _write(tmp_path / "l.tsv", "a\t0\nb\t1\n")
    g = load_graph(edges, feats, labels)
    assert g.num_nodes == 2 and g.num_edges == 1 and g.feature_ids() == (0,)
    assert g.node_names == ("a", "b")


def test_load_graph_empty_features(tmp_path):
    edges = _write(tmp_path / "e.tsv", "a\tb\n")
    feats = _write(tmp_path / "f.tsv", "# nothing\n")
    labels = _write(tmp_path / "l.tsv", "a\t0\nb\t1\n")
    g = load_graph(edges, feats, labels)
    assert g.feature_ids() == () and all(not g.node_feats(v) for v in g.nodes)


def test_load_graph_errors(tmp_path):
    feats = _write(tmp_path / "f.tsv", "a\tf0\t1.0\n")
    labels = _write(tmp_path / "l.tsv", "a\t0\n")
    dangling = _write(tmp_path / "e1.tsv", "a\tzz\n")
    with pytest.raises(DataError, match="e1.tsv:1: dangling edge endpoint 'zz'"):
        load_graph(dangling, feats, labels)
    edges = _write(tmp_path / "e2.tsv", "a\ta\n")
    dup = _write(tmp_path / "f2.tsv", "a\tf0\t1.0\na\tf0\t2.0\n")
    with pytest.raises(DataError, match="duplicate feature"):
        load_graph(edges, dup, labels)
    bad = _write(tmp_path / "f3.tsv", "a\tf0\n")
    with pytest.raises(DataError, match="f3.tsv:1: expected 3 fields"):
        load_graph(edges, bad, labels)


def test_load_graph_comments_and_dedup(tmp_path):
    edges = _write(tmp_path / "e.tsv", "# comment\na\tb\nb\ta\na\ta\n")
    feats = _write(tmp_path / "f.tsv", "")
    labels = _write(tmp_path / "l.tsv", "a\t0\nb\t1\n")
    g = load_graph(edges, feats, labels)
    assert g.num_edges == 1  # dedup + self-loop skip
