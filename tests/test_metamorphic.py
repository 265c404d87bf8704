"""Metamorphic relations from the paper's structural claims.

GRAFENNE passes messages over G^alt, so relabelling the graph nodes
permutes the graph states and leaves the feature states as they are.
Sums run in layout order, which a relabelling reorders, so the two sides
agree to rounding (within 1e-12), not bit for bit. A sampling cap at or
above a layout's largest in-degree keeps every edge of it, so such caps
give the uncapped outputs bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafenne.graph import HeteroGraph, to_allotropic
from grafenne.model import GrafenneConfig, GrafenneModel, VanillaAltModel
from test_graph import random_graph

MODELS = [(GrafenneModel, "sage"), (GrafenneModel, "gat"), (GrafenneModel, "gin"),
          (VanillaAltModel, "sage")]


def build(cls, backend, seed, caps=(0, 0, 0)):
    cfg = GrafenneConfig(layers=2, dim=6, phase2=backend, seed=seed, cap_features=caps[0],
                         cap_nodes=caps[1], cap_graph=caps[2])
    model = cls(cfg, 3)
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
