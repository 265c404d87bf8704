"""Synthetic community graphs with class-correlated sparse binary features."""

import numpy as np

from .graph import HeteroGraph

# pairs drawn per block, so that a block's arrays stay in cache: of 2^12
# to 2^20, 2^15 was fastest at n = 500 and n = 3,000 (2-vCPU x86-64 VM),
# twice as fast as 2^20 at n = 3,000
BLOCK_PAIRS = 1 << 15


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
    # one uniform per node pair u < v in row-major order, then one per
    # (node, class, feature): the stream a pair-by-pair loop would draw.
    # Pairs are drawn in blocks of whole rows, each of at most BLOCK_PAIRS
    # pairs (or one row), so that no n^2/2 array is held; one rng.random
    # call per block draws what one call per pair would.
    width = n - 1 - np.arange(n)          # pairs in row u: (u, u+1..n-1)
    start = np.cumsum(width) - width      # row u's first pair in the stream
    blocks, u = [np.zeros((0, 2), dtype=np.int64)], 0
    while u < n - 1:
        end = max(int(np.searchsorted(start, start[u] + BLOCK_PAIRS, side="right")) - 1, u + 1)
        lo, size = start[u], start[end] - start[u]
        row = np.repeat(np.arange(u, end), width[u:end])
        col = np.arange(lo, lo + size) - start[row] + row + 1
        hit = rng.random(size) < np.where(cls[row] == cls[col], p_in, p_out)
        blocks.append(np.stack([row[hit], col[hit]], axis=1))
        u = end
    own = cls[:, None, None] == np.arange(classes)[None, :, None]
    held = rng.random((n, classes, feats_per_class)) < np.where(own, density, noise)
    v, c, k = np.nonzero(held)
    return HeteroGraph(range(n), np.concatenate(blocks),
                       (v, c * feats_per_class + k, np.ones(len(v))), labels, num_classes=classes)
