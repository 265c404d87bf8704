import numpy as np
import pytest

from grafenne.synth import make_community_graph


def community_graph_loop(n, classes, feats_per_class, p_in, p_out, density, noise, seed):
    """The pair-by-pair, entry-by-entry generator the vectorised one replaces."""
    rng = np.random.default_rng([seed, 97])
    labels = {v: v % classes for v in range(n)}
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if labels[u] == labels[v] else p_out
            if rng.random() < p:
                edges.append((u, v))
    feats = {}
    for v in range(n):
        fmap = {}
        for c in range(classes):
            for k in range(feats_per_class):
                p = density if c == labels[v] else noise
                if rng.random() < p:
                    fmap[c * feats_per_class + k] = 1.0
        if fmap:
            feats[v] = fmap
    return edges, feats, labels


@pytest.mark.parametrize("params", [
    dict(n=500, classes=4, feats_per_class=6, p_in=0.02, p_out=0.004, density=0.45,
         noise=0.15, seed=1),
    dict(n=40, classes=2, feats_per_class=4, p_in=0.12, p_out=0.01, density=0.9,
         noise=0.0, seed=3),
    dict(n=7, classes=3, feats_per_class=2, p_in=1.0, p_out=0.3, density=0.0,
         noise=0.5, seed=0),
])
def test_make_community_graph_matches_the_loop(params):
    g = make_community_graph(**params)
    edges, feats, labels = community_graph_loop(**params)
    assert g.edges == tuple(sorted(edges))
    assert g.labels == labels
    # same entries in the same insertion order
    assert ([(v, list(fmap.items())) for v, fmap in g.feats.items()]
            == [(v, list(fmap.items())) for v, fmap in feats.items()])


def community_graph_by_row(n, classes, p_in, p_out, seed):
    """The row-at-a-time generator the blocked one replaces, one
    rng.random call per row u over its pairs (u, u+1..n-1), then one
    feature per class held with probability 0.5 (own) or 0.1: its edges
    and its (node, feature) entries."""
    rng = np.random.default_rng([seed, 97])
    cls = np.arange(n) % classes
    edges = []
    for u in range(n - 1):
        vs = np.arange(u + 1, n)
        hit = rng.random(vs.size) < np.where(cls[vs] == cls[u], p_in, p_out)
        edges.extend((u, v) for v in vs[hit].tolist())
    own = cls[:, None] == np.arange(classes)[None, :]
    return edges, np.nonzero(rng.random((n, classes)) < np.where(own, 0.5, 0.1))


@pytest.mark.parametrize("params", [
    dict(n=500, classes=4, p_in=0.02, p_out=0.004, seed=1),     # the c11 graph
    dict(n=2300, classes=5, p_in=0.003, p_out=0.0005, seed=6),  # 2.6M pairs
])
def test_blocked_pair_draws_equal_the_row_at_a_time_draws(params):
    import grafenne.synth as synth

    n = params["n"]
    assert n * (n - 1) // 2 > 2 * synth.BLOCK_PAIRS  # several blocks
    g = make_community_graph(feats_per_class=1, density=0.5, noise=0.1, **params)
    edges, (node, feat) = community_graph_by_row(**params)
    assert g.edges == tuple(edges)
    assert np.array_equal(g.feat_node, node) and np.array_equal(g.feat_id, feat)


@pytest.mark.parametrize("block", [1, 7, 40, 10**6])  # a block is at least one row
def test_blocks_of_any_size_draw_the_pair_loop_stream(block, monkeypatch):
    import grafenne.synth as synth

    params = dict(n=40, classes=3, feats_per_class=3, p_in=0.3, p_out=0.05, density=0.6,
                  noise=0.1, seed=5)
    monkeypatch.setattr(synth, "BLOCK_PAIRS", block)
    g = make_community_graph(**params)
    edges, feats, _ = community_graph_loop(**params)
    assert g.edges == tuple(edges)
    assert g.feats == feats
