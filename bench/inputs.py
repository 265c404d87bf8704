"""Seeded synthetic inputs for the benchmark workloads.

The Cora-like graphs are drawn here with vectorised NumPy, so the program
under test only receives finished inputs: a HeteroGraph for the static
workload and TSV files plus a config for the CLI grid.

Make-up of a Cora-like graph (the same for every size):
  * `classes` classes drawn uniformly per node;
  * class c owns the features f with f % classes == c; MARKERS of them
    (ids < MARKERS * classes) are markers that every node of class c has;
  * every node then draws further distinct features up to PER_NODE in
    total, each from its own class block with probability OWN_RATE and
    uniformly from all features otherwise; all values are 1.0;
  * edges join a node to one of its own class with probability
    HOMOPHILY and to a uniform node otherwise, deduplicated in draw order
    until `edges` distinct undirected edges exist.
The markers make the class learnable within the few epochs the memory
budget allows (see README.md), which the accuracy check relies on.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASSES = 7
PER_NODE = 18
MARKERS = 8
OWN_RATE = 0.5
HOMOPHILY = 0.8


@dataclass(frozen=True)
class GraphData:
    labels: np.ndarray      # (n,) class per node
    feat_node: np.ndarray   # (k,) node of each feature entry
    feat_id: np.ndarray     # (k,) feature of each feature entry
    edges: np.ndarray       # (e, 2) with u < v


def cora_like(seed, n, m, edges, classes=CLASSES):
    """Draw a Cora-like graph (see the module docstring) from one seed."""
    rng = np.random.default_rng([seed, 1])
    labels = rng.integers(0, classes, size=n)

    k = 2 * PER_NODE
    block = -(-m // classes)
    own = rng.integers(0, block, size=(n, k)) * classes + labels[:, None]
    own = np.where(own < m, own, rng.integers(0, m, size=(n, k)))
    cand = np.where(rng.random((n, k)) < OWN_RATE, own, rng.integers(0, m, size=(n, k)))
    markers = np.arange(MARKERS)[None, :] * classes + labels[:, None]
    cand = np.concatenate([markers, cand], axis=1)
    # first PER_NODE distinct features of each row, in draw order
    keys = (np.arange(n)[:, None] * m + cand).ravel()
    _, first = np.unique(keys, return_index=True)
    first.sort()
    node = keys[first] // m
    rank = np.arange(len(first)) - np.searchsorted(node, np.arange(n))[node]
    kept = keys[first[rank < PER_NODE]]

    members = np.argsort(labels, kind="stable")
    size = np.bincount(labels, minlength=classes)
    start = np.concatenate([[0], np.cumsum(size)[:-1]])
    draws = 3 * edges
    u = rng.integers(0, n, size=draws)
    same = members[start[labels[u]] + (rng.random(draws) * size[labels[u]]).astype(np.int64)]
    v = np.where(rng.random(draws) < HOMOPHILY, same, rng.integers(0, n, size=draws))
    ok = u != v
    a, b = np.minimum(u, v)[ok], np.maximum(u, v)[ok]
    _, first_e = np.unique(a * n + b, return_index=True)
    first_e.sort()
    if len(first_e) < edges:
        raise RuntimeError(f"drew only {len(first_e)} distinct edges, need {edges}")
    first_e = first_e[:edges]
    return GraphData(labels, kept // m, kept % m, np.stack([a[first_e], b[first_e]], axis=1))


def feature_maps(data):
    """node -> {feature: 1.0}."""
    feats = {}
    for v, f in zip(data.feat_node.tolist(), data.feat_id.tolist()):
        feats.setdefault(v, {})[f] = 1.0
    return feats


def write_tsvs(data, directory):
    """Write the graph as the CLI's edges/features/labels TSV triple.

    Names are zero-padded so that their sorted order, which load_graph
    uses to assign ids, is the generation order."""
    directory = Path(directory)
    paths = {key: directory / f"{key}.tsv" for key in ("edges", "features", "labels")}
    with open(paths["edges"], "w", encoding="utf-8") as fh:
        fh.writelines(f"n{u:05d}\tn{v:05d}\n" for u, v in data.edges.tolist())
    with open(paths["features"], "w", encoding="utf-8") as fh:
        fh.writelines(f"n{v:05d}\tf{f:05d}\t1\n"
                      for v, f in zip(data.feat_node.tolist(), data.feat_id.tolist()))
    with open(paths["labels"], "w", encoding="utf-8") as fh:
        fh.writelines(f"n{v:05d}\t{c}\n" for v, c in enumerate(data.labels.tolist()))
    return paths
