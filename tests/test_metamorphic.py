"""Metamorphic relations from the paper's structural claims.

GRAFENNE passes messages over G^alt, so relabelling the graph nodes
permutes the graph states and leaves the feature states as they are, and
renaming the features, each embedding row moving with its feature, leaves
the graph states as they are and renames the feature states. Sums run
in layout order, which a relabelling reorders, so the two sides
agree to rounding (within 1e-12), not bit for bit. A sampling cap at or
above a layout's largest in-degree keeps every edge of it, so such caps
give the uncapped outputs bit for bit.

With one shared feature of value 1.0 on every node, GRAFENNE sees only
the structure. Graphs that 1-WL cannot tell apart (two triangles, a
6-cycle) must give the same multiset of graph states, which a leak of node
ids would break. The paper's claim of expressiveness is relative to the
backbone, and mean and attention aggregation are weaker than 1-WL (Xu et
al. 2019), so where the dense backbone on the same features separates a
pair (a 4-node path, a 4-node star), GRAFENNE with that backbone must too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafenne.graph import HeteroGraph, to_allotropic
from grafenne.imputation import DenseGnnModel, dense_inputs, impute_special_label
from grafenne.model import GrafenneConfig, GrafenneModel, VanillaAltModel
from test_graph import random_graph

MODELS = [(GrafenneModel, "sage"), (GrafenneModel, "gat"), (GrafenneModel, "gin"),
          (VanillaAltModel, "sage")]


def build(cls, backend, seed, caps=(0, 0, 0)):
    cfg = GrafenneConfig(layers=2, dim=6, phase2=backend, seed=seed, cap_features=caps[0],
                         cap_nodes=caps[1], cap_graph=caps[2])
    return with_gin_epsilon(cls(cfg, 3))


def with_gin_epsilon(model):
    for name, p in model.params.items():  # a non-zero GIN epsilon weighs the self term
        if name.endswith("/epsilon"):
            p.values = np.array(0.3)
    return model


def relabelled(g, rng):
    """(old id -> new id, g relabelled by it): a random injection of the
    node ids into 3 + 7 * N, which also reorders the nodes."""
    new = dict(zip(g.nodes, (3 + 7 * rng.permutation(g.num_nodes)).tolist()))
    return new, HeteroGraph([new[v] for v in g.nodes],
                            [(new[u], new[v]) for u, v in g.edges],
                            {new[v]: fmap for v, fmap in g.feats.items()},
                            {new[v]: y for v, y in g.labels.items()})


@pytest.mark.parametrize("cls, backend", MODELS)
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_relabelling_nodes_permutes_graph_states_only(cls, backend, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_max=12)
    new, h = relabelled(g, rng)
    hg, hf = build(cls, backend, seed % 97).forward(to_allotropic(g))
    hg2, hf2 = build(cls, backend, seed % 97).forward(to_allotropic(h))
    rows = [h.nodes.index(new[v]) for v in g.nodes]
    np.testing.assert_allclose(hg2.values[rows], hg.values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(hf2.values, hf.values, rtol=0, atol=1e-12)


def _top_in_degree(edges):
    return int(np.diff(edges.indptr).max(initial=0))


@pytest.mark.parametrize("backend", ["sage", "gat", "gin"])
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 2))
def test_caps_at_or_above_every_in_degree_change_nothing(backend, seed, slack):
    g = random_graph(np.random.default_rng(seed), n_max=12)
    alt = to_allotropic(g)
    # cap 0 means no cap, so every cap is at least 1
    caps = [max(_top_in_degree(e), 1) + slack
            for e in (alt.feat_to_node, alt.node_to_feat, alt.node_to_node)]
    hg, hf = build(GrafenneModel, backend, seed % 97).forward(alt)
    hg_c, hf_c = build(GrafenneModel, backend, seed % 97, caps).forward(alt)
    assert np.array_equal(hg_c.values, hg.values) and np.array_equal(hf_c.values, hf.values)


@pytest.mark.parametrize("cls, backend", MODELS)
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.data())
def test_relabelling_features_with_their_embeddings_renames_feature_states_only(
        cls, backend, seed, data):
    """Feature ids are names: renaming them, each embedding row moving
    with its feature, leaves the graph states as they are and gives each
    renamed feature its old state."""
    g = random_graph(np.random.default_rng(seed), n_max=12)
    old = g.feature_ids()
    perm = data.draw(st.permutations(range(len(old))))
    new = {f: 1000 + k for f, k in zip(old, perm)}
    h = g.replace(feats={v: {new[f]: w for f, w in fmap.items()} for v, fmap in g.feats.items()})
    model, renamed = build(cls, backend, seed % 97), build(cls, backend, seed % 97)
    hg, hf = model.forward(to_allotropic(g))
    table, moved = model.table, renamed.table
    moved.ensure([new[f] for f in old])
    rows = moved.weight.values.copy()
    rows[[moved.row[new[f]] for f in old]] = table.weight.values[[table.row[f] for f in old]]
    moved.weight.values = rows
    hg2, hf2 = renamed.forward(to_allotropic(h))
    np.testing.assert_allclose(hg2.values, hg.values, rtol=0, atol=1e-12)
    at = {f: i for i, f in enumerate(sorted(new.values()))}
    np.testing.assert_allclose(hf2.values[[at[new[f]] for f in old]], hf.values,
                               rtol=0, atol=1e-12)


def one_feature_graph(n, edges):
    return HeteroGraph(list(range(n)), edges, {v: {0: 1.0} for v in range(n)},
                       {v: 0 for v in range(n)})


TWO_TRIANGLES = one_feature_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
SIX_CYCLE = one_feature_graph(6, [(v, (v + 1) % 6) for v in range(6)])
PATH = one_feature_graph(4, [(0, 1), (1, 2), (2, 3)])
STAR = one_feature_graph(4, [(0, 1), (0, 2), (0, 3)])
SEPARATED = 1e-6  # far above the rounding of equal states, 1e-16 here


def sorted_states(h):
    """The rows of h in lexicographic order, keyed on rows rounded to 1e-9,
    so that rows equal to rounding keep one order."""
    return h[np.lexsort(np.round(h, 9).T)]


def grafenne_gap(backend, seed, g, h):
    model = build(GrafenneModel, backend, seed)
    states = [sorted_states(model.forward(to_allotropic(x))[0].values) for x in (g, h)]
    return np.abs(states[0] - states[1]).max()


def dense_gap(backend, seed, g, h):
    model = with_gin_epsilon(
        DenseGnnModel(GrafenneConfig(layers=2, dim=6, phase2=backend, seed=seed), 1, 3))
    states = [sorted_states(model.forward(*dense_inputs(x, impute_special_label(x))).values)
              for x in (g, h)]
    return np.abs(states[0] - states[1]).max()


@pytest.mark.parametrize("backend", ["sage", "gat", "gin"])
@pytest.mark.parametrize("seed", range(4))
def test_graphs_1wl_cannot_tell_apart_give_equal_graph_states(backend, seed):
    assert grafenne_gap(backend, seed, TWO_TRIANGLES, SIX_CYCLE) <= 1e-12


@pytest.mark.parametrize("backend", ["sage", "gat", "gin"])
@pytest.mark.parametrize("seed", range(4))
def test_grafenne_separates_a_path_from_a_star_where_its_dense_backbone_does(backend, seed):
    if dense_gap(backend, seed, PATH, STAR) > SEPARATED:
        assert grafenne_gap(backend, seed, PATH, STAR) > SEPARATED
    else:  # mean and attention aggregation of equal inputs cannot count neighbours
        assert backend != "gin"
