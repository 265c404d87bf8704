"""Synthetic community graphs with class-correlated sparse binary features."""

import numpy as np

from .graph import HeteroGraph


def make_community_graph(n=100, classes=2, feats_per_class=5, p_in=0.05,
                         p_out=0.005, density=0.7, noise=0.02, seed=0):
    """Planted-partition graph whose features give the class away.

    Node v belongs to class v % classes. Each class owns a block of
    feats_per_class indicator features; a node holds each owned feature
    with probability `density` (value 1.0) and each foreign feature with
    probability `noise`. Every node is labeled.
    """
    rng = np.random.default_rng([seed, 97])
    cls = np.arange(n) % classes
    labels = dict(enumerate(cls.tolist()))
    # one uniform per node pair u < v in row-major order, drawn a row at a
    # time so that no n^2/2 array is held, then one per (node, class,
    # feature): the stream a pair-by-pair loop would draw
    edges = []
    for u in range(n - 1):
        vs = np.arange(u + 1, n)
        hit = rng.random(vs.size) < np.where(cls[vs] == cls[u], p_in, p_out)
        edges.extend((u, v) for v in vs[hit].tolist())
    own = cls[:, None, None] == np.arange(classes)[None, :, None]
    held = rng.random((n, classes, feats_per_class)) < np.where(own, density, noise)
    v, c, k = np.nonzero(held)
    return HeteroGraph(range(n), edges, (v, c * feats_per_class + k, np.ones(len(v))),
                       labels, num_classes=classes)
