"""Heterogeneous-feature graphs, the allotropic transformation, masking, splits.

A HeteroGraph stores per-node sparse feature maps (feature id -> value).
Its allotropic form adds one node per distinct feature and one weighted
edge per stored (node, feature, value) entry; original edges survive
verbatim and feature nodes never link to each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np


class GraphError(ValueError):
    """Integrity violation in graph construction or mutation."""


class HeteroGraph:
    """Immutable-by-convention snapshot: nodes, canonical undirected edges,
    sparse features, optional labels. Zero feature values are dropped
    (a stored zero counts as absent)."""

    __slots__ = ("nodes", "edges", "feats", "labels", "num_classes", "node_names", "feat_names")

    def __init__(self, nodes, edges, feats, labels, num_classes=None,
                 node_names=None, feat_names=None):
        self.nodes = tuple(sorted(set(int(v) for v in nodes)))
        node_set = set(self.nodes)
        canon = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphError(f"self-loop on node {u}")
            if u not in node_set or v not in node_set:
                raise GraphError(f"edge ({u},{v}) references a missing node")
            canon.add((u, v) if u < v else (v, u))
        self.edges = tuple(sorted(canon))
        cleaned = {}
        for v, fmap in feats.items():
            v = int(v)
            if v not in node_set:
                raise GraphError(f"features for missing node {v}")
            kept = {int(f): float(x) for f, x in fmap.items() if float(x) != 0.0}
            if kept:
                cleaned[v] = kept
        self.feats = cleaned
        self.labels = {}
        for v, c in labels.items():
            v, c = int(v), int(c)
            if v not in node_set:
                raise GraphError(f"label for missing node {v}")
            if c < 0:
                raise GraphError(f"negative class id {c} for node {v}")
            self.labels[v] = c
        if num_classes is None:
            num_classes = max(self.labels.values()) + 1 if self.labels else 0
        self.num_classes = int(num_classes)
        self.node_names = node_names
        self.feat_names = feat_names

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_edges(self):
        return len(self.edges)

    def feature_ids(self):
        ids = set()
        for fmap in self.feats.values():
            ids.update(fmap.keys())
        return tuple(sorted(ids))

    def node_feats(self, v):
        return self.feats.get(v, {})

    def replace(self, **kw):
        args = dict(nodes=self.nodes, edges=self.edges, feats=self.feats,
                    labels=self.labels, num_classes=self.num_classes,
                    node_names=self.node_names, feat_names=self.feat_names)
        args.update(kw)
        return HeteroGraph(**args)


def by_destination(*blocks):
    """Concatenate blocks of directed edges (src, dst) and sort them by
    (dst, src): the layout every aggregation reads, ascending destinations
    for tensor.spmm and a fixed summation order within each."""
    src = np.concatenate([s for s, _ in blocks])
    dst = np.concatenate([d for _, d in blocks])
    order = np.lexsort((src, dst))
    return src[order], dst[order]


def directed_edges(nodes, edges):
    """Both directions of the undirected `edges`, as rows of the ascending
    id array `nodes`, sorted by (dst, src)."""
    rows = np.searchsorted(nodes, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    u, v = rows[:, 0], rows[:, 1]
    return by_destination((u, v), (v, u))


class AllotropicGraph:
    """Index-array view of G^alt consumed by the model.

    Feature edges appear twice, sorted by (graph node, feature) for the
    feature->graph phase and by (feature, graph node) for the reverse
    phase; graph edges are expanded to both directions sorted by
    destination. All orders ascend by id, which pins the floating-point
    summation order.
    """

    __slots__ = ("node_ids", "feat_ids",
                 "fe_node", "fe_feat", "fe_weight",
                 "fe3_node", "fe3_feat", "fe3_weight",
                 "ge_src", "ge_dst", "graph_edges")

    def __init__(self, node_ids, feature_edges, graph_edges):
        """feature_edges is three arrays (node id, feature id, value) with
        one entry per (node, feature) pair, in any order; the feature nodes
        are the distinct feature ids among them."""
        nodes, feats, weights = feature_edges
        self.node_ids = np.sort(np.asarray(node_ids, dtype=np.int64))
        self.feat_ids = np.unique(np.asarray(feats, dtype=np.int64))
        self.graph_edges = tuple(sorted(graph_edges))

        node = np.searchsorted(self.node_ids, nodes)
        feat = np.searchsorted(self.feat_ids, feats)
        order = np.lexsort((feat, node))
        self.fe_node = node[order]
        self.fe_feat = feat[order]
        self.fe_weight = np.asarray(weights, dtype=np.float64)[order]
        order3 = np.lexsort((self.fe_node, self.fe_feat))
        self.fe3_node = self.fe_node[order3]
        self.fe3_feat = self.fe_feat[order3]
        self.fe3_weight = self.fe_weight[order3]

        self.ge_src, self.ge_dst = directed_edges(self.node_ids, self.graph_edges)

    @property
    def n(self):
        return len(self.node_ids)

    @property
    def m(self):
        return len(self.feat_ids)

    @property
    def num_feature_edges(self):
        return len(self.fe_node)


def to_allotropic(g):
    """Build G^alt: one feature node per distinct feature, weighted
    feature edges from stored values, original edges retained."""
    fmaps = g.feats.values()
    nodes = np.repeat(np.fromiter(g.feats, dtype=np.int64), [len(f) for f in fmaps])
    feats = np.fromiter(chain.from_iterable(fmaps), dtype=np.int64)
    weights = np.fromiter(chain.from_iterable(f.values() for f in fmaps), dtype=np.float64)
    return AllotropicGraph(g.nodes, (nodes, feats, weights), g.edges)


def project_back(alt):
    """Read feature edges back into per-node sparse maps (round-trip check)."""
    feats = {}
    for vr, fr, w in zip(alt.fe_node, alt.fe_feat, alt.fe_weight):
        v = int(alt.node_ids[vr])
        f = int(alt.feat_ids[fr])
        feats.setdefault(v, {})[f] = float(w)
    return feats


def apply_missing_mask(g, p, seed):
    """Independently delete each (node, feature) entry with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"missing rate p={p} outside [0,1]")
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


@dataclass(frozen=True)
class Split:
    train: tuple
    val: tuple
    test: tuple


def make_split(g, fractions=(0.6, 0.2, 0.2), seed=0):
    """Random disjoint train/val/test over labeled nodes.

    Sizes are floors of the fractions; when the fractions sum to 1 the
    rounding remainder goes to train.
    """
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ValueError(f"bad fractions {fractions}")
    if sum(fractions) > 1.0 + 1e-9:
        raise ValueError(f"fractions sum to {sum(fractions)} > 1")
    labeled = sorted(v for v in g.nodes if v in g.labels)
    n = len(labeled)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    sizes = [math.floor(n * f) for f in fractions]
    if abs(sum(fractions) - 1.0) < 1e-9:
        sizes[0] += n - sum(sizes)
    tr = sizes[0]
    va = tr + sizes[1]
    te = va + sizes[2]
    pick = lambda sl: tuple(sorted(labeled[i] for i in perm[sl]))
    return Split(train=pick(slice(0, tr)), val=pick(slice(tr, va)), test=pick(slice(va, te)))


def remove_edges(g, edges):
    """Snapshot without the given undirected edges (used by link splits)."""
    drop = {(min(u, v), max(u, v)) for u, v in edges}
    missing = drop - set(g.edges)
    if missing:
        raise GraphError(f"removing nonexistent edges: {sorted(missing)[:3]}")
    return g.replace(edges=tuple(e for e in g.edges if e not in drop))


def translate_features(g, scale, shift):
    """x -> scale*x + shift on every stored feature value."""
    feats = {v: {f: scale * w + shift for f, w in fmap.items()}
             for v, fmap in g.feats.items()}
    return g.replace(feats=feats)


def _parse_lines(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, line.split("\t")


class DataError(ValueError):
    """Malformed or inconsistent input files."""


def feature_value(text, path, lineno):
    """A feature value read from line `lineno` of `path`: a finite float,
    else DataError. A NaN or infinity would flow through training into
    the weights while the loss can stay finite."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise DataError(f"{path}:{lineno}: bad value {text!r} (need a finite number)")
    return x


def load_graph(edge_file, feature_file, label_file):
    """Ingest TSV triples (see file formats in the CLI help).

    Node universe = nodes named in the label or feature file; an edge
    endpoint outside it is a dangling reference. External ids map to
    dense internal ids by sorted order. Self-loop edge lines are skipped.
    """
    labels_by_name = {}
    for lineno, fields in _parse_lines(label_file):
        if len(fields) != 2:
            raise DataError(f"{label_file}:{lineno}: expected 2 fields, got {len(fields)}")
        name, cls = fields
        if name in labels_by_name:
            raise DataError(f"{label_file}:{lineno}: duplicate label for node '{name}'")
        try:
            labels_by_name[name] = int(cls)
        except ValueError:
            raise DataError(f"{label_file}:{lineno}: bad class id '{cls}'") from None

    feats_by_name = {}
    for lineno, fields in _parse_lines(feature_file):
        if len(fields) != 3:
            raise DataError(f"{feature_file}:{lineno}: expected 3 fields, got {len(fields)}")
        name, fname, val = fields
        fmap = feats_by_name.setdefault(name, {})
        if fname in fmap:
            raise DataError(f"{feature_file}:{lineno}: duplicate feature '{fname}' for node '{name}'")
        fmap[fname] = feature_value(val, feature_file, lineno)

    node_names = tuple(sorted(set(labels_by_name) | set(feats_by_name)))
    node_id = {name: i for i, name in enumerate(node_names)}
    feat_names = tuple(sorted({f for fmap in feats_by_name.values() for f in fmap}))
    feat_id = {name: i for i, name in enumerate(feat_names)}

    edges = []
    for lineno, fields in _parse_lines(edge_file):
        if len(fields) != 2:
            raise DataError(f"{edge_file}:{lineno}: expected 2 fields, got {len(fields)}")
        a, b = fields
        if a not in node_id or b not in node_id:
            missing = a if a not in node_id else b
            raise DataError(f"{edge_file}:{lineno}: dangling edge endpoint '{missing}'")
        if a == b:
            continue
        edges.append((node_id[a], node_id[b]))

    feats = {node_id[n]: {feat_id[f]: w for f, w in fmap.items()}
             for n, fmap in feats_by_name.items()}
    labels = {node_id[n]: c for n, c in labels_by_name.items()}
    return HeteroGraph(range(len(node_names)), edges, feats, labels,
                       node_names=node_names, feat_names=feat_names)


def write_allotropic(alt, path):
    """Textual dump of G^alt: GN/FN/GE/FE records."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# allotropic graph v1\n")
        fh.write(f"# graph_nodes={alt.n} feature_nodes={alt.m} "
                 f"graph_edges={len(alt.graph_edges)} feature_edges={alt.num_feature_edges}\n")
        for v in alt.node_ids:
            fh.write(f"GN\t{v}\n")
        for f in alt.feat_ids:
            fh.write(f"FN\t{f}\n")
        for u, v in alt.graph_edges:
            fh.write(f"GE\t{u}\t{v}\n")
        for vr, fr, w in zip(alt.fe_node, alt.fe_feat, alt.fe_weight):
            fh.write(f"FE\t{alt.node_ids[vr]}\t{alt.feat_ids[fr]}\t{w!r}\n")
