"""Heterogeneous-feature graphs, the allotropic transformation, masking, splits.

A HeteroGraph keeps its features as three entry arrays (feat_node,
feat_id, feat_value), one entry per stored nonzero value, sorted by
(node, feature): exactly the feature edges of its allotropic form, which
adds one node per distinct feature. Original edges survive verbatim and
feature nodes never link to each other.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain

import numpy as np


class GraphError(ValueError):
    """Integrity violation in graph construction or mutation."""


def _entry_arrays(feats, nodes):
    """The (node, feature, value) arrays of `feats` — either such a triple
    or a node -> {feature: value} mapping — sorted by (node, feature) with
    zero values dropped. A NaN or infinite value, a repeated (node,
    feature) pair or an entry on a node outside `nodes` is a GraphError."""
    if isinstance(feats, Mapping):
        maps = feats.values()
        node = np.repeat(np.fromiter(feats, dtype=np.int64, count=len(feats)),
                         [len(m) for m in maps])
        feat = np.fromiter(chain.from_iterable(maps), dtype=np.int64)
        value = np.fromiter(chain.from_iterable(m.values() for m in maps), dtype=np.float64)
    else:
        node, feat, value = (np.asarray(a, dtype=t).reshape(-1)
                             for a, t in zip(feats, (np.int64, np.int64, np.float64)))
        if not len(node) == len(feat) == len(value):
            raise GraphError(f"feature entry arrays differ in length: "
                             f"{len(node)}, {len(feat)}, {len(value)}")
    bad = ~np.isfinite(value)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise GraphError(f"feature ({node[k]},{feat[k]}) has non-finite value {value[k]}")
    outside = ~np.isin(node, nodes)
    if outside.any():
        raise GraphError(f"features for missing node {node[outside][0]}")
    # strictly increasing (node, feature) pairs, as the package's own
    # callers pass them, are sorted and distinct: one pass checks both
    in_order = (node[1:] > node[:-1]) | ((node[1:] == node[:-1]) & (feat[1:] > feat[:-1]))
    if not in_order.all():
        order = np.lexsort((feat, node))
        node, feat, value = node[order], feat[order], value[order]
        dup = (node[1:] == node[:-1]) & (feat[1:] == feat[:-1])
        if dup.any():
            k = np.flatnonzero(dup)[0]
            raise GraphError(f"duplicate feature entry ({node[k]},{feat[k]})")
    keep = value != 0.0
    return node[keep], feat[keep], value[keep]


class _Derives:
    """Graph structure that is never modified once built, and that keeps
    what is derived from it: derived(build) is build(self), computed on
    the first call with that function and returned from then on. Sparse
    operators and derived layouts are so built once per graph, however
    many forwards and backwards read them."""

    __slots__ = ("_derived",)

    def derived(self, build):
        memo = self._derived
        if build not in memo:
            memo[build] = build(self)
        return memo[build]


class HeteroGraph(_Derives):
    """Immutable-by-convention snapshot: nodes, canonical undirected edges,
    feature entries, optional labels. `feats` is given either as a node ->
    {feature: value} mapping or as (node, feature, value) arrays; zero
    values are dropped (a stored zero counts as absent)."""

    __slots__ = ("nodes", "edges", "feat_node", "feat_id", "feat_value", "labels",
                 "num_classes", "node_names", "feat_names")

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
        self.feat_node, self.feat_id, self.feat_value = _entry_arrays(
            feats, np.asarray(self.nodes, dtype=np.int64))
        for a in (self.feat_node, self.feat_id, self.feat_value):
            a.flags.writeable = False
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
        self._derived = {}

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def feats(self):
        """node -> {feature: value} for every node with an entry, built
        afresh from the entry arrays on each access."""
        nodes, starts = np.unique(self.feat_node, return_index=True)
        ends = np.append(starts[1:], len(self.feat_node)).tolist()
        ids, values = self.feat_id.tolist(), self.feat_value.tolist()
        return {v: dict(zip(ids[lo:hi], values[lo:hi]))
                for v, lo, hi in zip(nodes.tolist(), starts.tolist(), ends)}

    def feature_ids(self):
        return tuple(np.unique(self.feat_id).tolist())

    def node_feats(self, v):
        """v's entries as {feature: value} ({} if it has none)."""
        lo, hi = np.searchsorted(self.feat_node, (v, v + 1))
        return dict(zip(self.feat_id[lo:hi].tolist(), self.feat_value[lo:hi].tolist()))

    def replace(self, **kw):
        args = dict(nodes=self.nodes, edges=self.edges,
                    feats=(self.feat_node, self.feat_id, self.feat_value),
                    labels=self.labels, num_classes=self.num_classes,
                    node_names=self.node_names, feat_names=self.feat_names)
        args.update(kw)
        return HeteroGraph(**args)


class Edges(_Derives):
    """Directed edges src -> dst of a (num_dst, num_src) matrix grouped by
    ascending destination, with optional weights and the CSR row pointer
    `indptr`: the layout every aggregation reads. Order and index ranges
    are checked once, here; sources may repeat in any order."""

    __slots__ = ("src", "dst", "shape", "weight", "indptr")

    def __init__(self, src, dst, shape, weight=None):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.shape = num_dst, num_src = tuple(map(int, shape))
        self.weight = None if weight is None else np.asarray(weight, dtype=np.float64)
        shapes = [a.shape for a in (self.src, self.dst, self.weight) if a is not None]
        if self.dst.ndim != 1 or len(set(shapes)) != 1:
            raise ValueError(f"edges need 1-D src, dst and weight of one length, got {shapes}")
        if np.any(self.dst[1:] < self.dst[:-1]):
            raise ValueError("edges need destinations in ascending order")
        if len(self) and (self.dst[0] < 0 or self.dst[-1] >= num_dst
                          or self.src.min() < 0 or self.src.max() >= num_src):
            raise ValueError(f"edge index out of range for a {self.shape} matrix")
        self.indptr = np.searchsorted(self.dst, np.arange(num_dst + 1))
        self._derived = {}

    def __len__(self):
        return len(self.dst)

    def take(self, keep):
        """The edges at the ascending positions `keep`, weights aligned."""
        weight = None if self.weight is None else self.weight[keep]
        return Edges(self.src[keep], self.dst[keep], self.shape, weight)


def by_destination(shape, *blocks, weight=None):
    """The Edges layout of `shape` of the concatenated blocks of directed
    edges (src, dst), and of weight if given, sorted by (dst, src): a
    fixed summation order within each destination."""
    src = np.concatenate([s for s, _ in blocks])
    dst = np.concatenate([d for _, d in blocks])
    order = np.lexsort((src, dst))
    return Edges(src[order], dst[order], shape, None if weight is None else weight[order])


def directed_edges(nodes, edges):
    """Both directions of the undirected `edges`, as rows of the ascending
    id array `nodes`, sorted by (dst, src)."""
    rows = np.searchsorted(nodes, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    u, v = rows[:, 0], rows[:, 1]
    return by_destination((len(nodes),) * 2, (u, v), (v, u))


class AllotropicGraph(_Derives):
    """G^alt as the model reads it: three Edges layouts over the rows of
    node_ids and feat_ids. feat_to_node (phase 1) holds the feature edges
    weighted by their values, node_to_feat (phase 3) the same reversed,
    node_to_node (phase 2) the graph edges in both directions. All orders
    ascend by id, which pins the floating-point summation order."""

    __slots__ = ("node_ids", "feat_ids", "graph_edges",
                 "feat_to_node", "node_to_feat", "node_to_node")

    def __init__(self, node_ids, feature_edges, graph_edges):
        """node_ids and graph_edges ascend; feature_edges is three arrays
        (node id, feature id, value) sorted by (node, feature), one entry
        per pair; the feature nodes are the distinct feature ids among them."""
        nodes, feats, weights = feature_edges
        self.node_ids = np.asarray(node_ids, dtype=np.int64)
        self.feat_ids = np.unique(feats)
        self.graph_edges = tuple(graph_edges)
        node = np.searchsorted(self.node_ids, nodes)
        feat = np.searchsorted(self.feat_ids, feats)
        self.feat_to_node = Edges(feat, node, (self.n, self.m), weights)
        self.node_to_feat = by_destination((self.m, self.n), (node, feat),
                                           weight=self.feat_to_node.weight)
        self.node_to_node = directed_edges(self.node_ids, self.graph_edges)
        self._derived = {}

    @property
    def n(self):
        return len(self.node_ids)

    @property
    def m(self):
        return len(self.feat_ids)


def to_allotropic(g):
    """Build G^alt: one feature node per distinct feature, weighted
    feature edges from stored values, original edges retained."""
    return AllotropicGraph(g.nodes, (g.feat_node, g.feat_id, g.feat_value), g.edges)


def project_back(alt):
    """G^alt's feature edges as node id -> {feature id: value}, Python
    numbers in (node, feature) order (the round trip of to_allotropic)."""
    e, feats = alt.feat_to_node, {}
    for v, f, w in zip(alt.node_ids[e.dst].tolist(), alt.feat_ids[e.src].tolist(),
                       e.weight.tolist()):
        feats.setdefault(v, {})[f] = w
    return feats


def apply_missing_mask(g, p, seed):
    """Independently delete each (node, feature) entry with probability p,
    one uniform per entry in (node, feature) order."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"missing rate p={p} outside [0,1]")
    keep = np.random.default_rng(seed).random(len(g.feat_value)) >= p
    return g.replace(feats=(g.feat_node[keep], g.feat_id[keep], g.feat_value[keep]))


@dataclass(frozen=True)
class Split:
    train: tuple
    val: tuple
    test: tuple


def partition(items, fractions, perm):
    """Disjoint parts of `items`, one per fraction, each a sorted tuple:
    consecutive slices of the permutation `perm`, sized by the floors of
    the fractions; when the fractions sum to 1 the rounding remainder goes
    to the first part."""
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ValueError(f"bad fractions {fractions}")
    if sum(fractions) > 1.0 + 1e-9:
        raise ValueError(f"fractions sum to {sum(fractions)} > 1")
    sizes = [math.floor(len(items) * f) for f in fractions]
    if abs(sum(fractions) - 1.0) < 1e-9:
        sizes[0] += len(items) - sum(sizes)
    cuts = np.cumsum([0] + sizes)
    return [tuple(sorted(items[i] for i in perm[cuts[k]:cuts[k + 1]]))
            for k in range(len(sizes))]


def make_split(g, fractions=(0.6, 0.2, 0.2), seed=0):
    """Random disjoint train/val/test over labeled nodes, by partition."""
    labeled = sorted(v for v in g.nodes if v in g.labels)
    perm = np.random.default_rng(seed).permutation(len(labeled))
    return Split(*partition(labeled, fractions, perm))


def remove_edges(g, edges):
    """Snapshot without the given undirected edges (used by link splits)."""
    drop = {(min(u, v), max(u, v)) for u, v in edges}
    missing = drop - set(g.edges)
    if missing:
        raise GraphError(f"removing nonexistent edges: {sorted(missing)[:3]}")
    return g.replace(edges=tuple(e for e in g.edges if e not in drop))


def translate_features(g, scale, shift):
    """x -> scale*x + shift on every stored feature value."""
    return g.replace(feats=(g.feat_node, g.feat_id, scale * g.feat_value + shift))


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
                 f"graph_edges={len(alt.graph_edges)} feature_edges={len(alt.feat_to_node)}\n")
        for v in alt.node_ids.tolist():
            fh.write(f"GN\t{v}\n")
        for f in alt.feat_ids.tolist():
            fh.write(f"FN\t{f}\n")
        for u, v in alt.graph_edges:
            fh.write(f"GE\t{u}\t{v}\n")
        for v, fmap in project_back(alt).items():
            for f, w in fmap.items():
                fh.write(f"FE\t{v}\t{f}\t{w!r}\n")
