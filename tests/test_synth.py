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
