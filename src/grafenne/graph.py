"""Heterogeneous-feature graphs, the allotropic transformation, masking, splits.

A HeteroGraph keeps its features as three entry arrays (feat_node,
feat_id, feat_value), one entry per stored nonzero value, sorted by
(node, feature): exactly the feature edges of its allotropic form, which
adds one node per distinct feature. Its undirected edges are one (E, 2)
array, edge_array, of canonical (u, v) pairs, u < v, sorted by (u, v):
the allotropic form keeps them verbatim and feature nodes never link to
each other. Both are checked and canonicalised with array operations, and
every transform from a graph to its layouts stays an array operation.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp


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
    if not _increasing(node, feat):
        order = np.lexsort((feat, node))
        node, feat, value = node[order], feat[order], value[order]
        dup = (node[1:] == node[:-1]) & (feat[1:] == feat[:-1])
        if dup.any():
            k = np.flatnonzero(dup)[0]
            raise GraphError(f"duplicate feature entry ({node[k]},{feat[k]})")
    keep = value != 0.0
    return node[keep], feat[keep], value[keep]


def _increasing(a, b):
    """Whether the pairs (a[i], b[i]) strictly increase, so are sorted and distinct."""
    return bool(((a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & (b[1:] > b[:-1]))).all())


def pair_array(edges):
    """edges, an (E, 2) array or any iterable of (u, v) pairs, as an (E, 2) int64 array."""
    a = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if a.size == 0:
        return a.reshape(0, 2)
    if a.ndim != 2 or a.shape[1] != 2:
        raise GraphError(f"edges need (u, v) pairs, got an array of shape {a.shape}")
    return a


def _canonical_pairs(edges, nodes):
    """The undirected `edges` as distinct (u, v) pairs, u < v, sorted by
    (u, v). A self-loop or an endpoint outside the ascending id array
    `nodes` is a GraphError, raised for the first such edge in input order."""
    a = pair_array(edges)
    u, v = a[:, 0], a[:, 1]
    bad = (u == v) | ~np.isin(a, nodes).all(axis=1)
    if bad.any():
        u, v = a[np.flatnonzero(bad)[0]].tolist()
        if u == v:
            raise GraphError(f"self-loop on node {u}")
        raise GraphError(f"edge ({u},{v}) references a missing node")
    # canonical pairs in strictly increasing order, as the package's own
    # callers pass them, need no sort
    if (u < v).all() and _increasing(u, v):
        return a
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    first = np.ones(len(lo), dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return np.stack((lo[first], hi[first]), axis=1)


def find_pairs(nodes, pairs, query):
    """The index of each (u, v) row of the (k, 2) array `query` in `pairs`,
    -1 where it is absent; `pairs` holds distinct pairs, u < v, sorted by
    (u, v), over the ascending id array `nodes`."""
    def keys(a):  # u's position in nodes times len(nodes) plus v's: ascends with (u, v)
        r = np.searchsorted(nodes, a)
        return r[:, 0] * len(nodes) + r[:, 1]

    have, want = keys(pairs), keys(query)
    at = np.searchsorted(have, want)
    hit = np.isin(query, nodes).all(axis=1) & (at < len(have))
    hit[hit] = have[at[hit]] == want[hit]
    return np.where(hit, at, -1)


def _read_only(a, dtype=None):
    """a as a read-only array, copied first if writeable: no caller's array is frozen."""
    a = np.asarray(a, dtype=dtype)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


class _Derives:
    """Graph structure that is never modified once built, and that keeps
    what is derived from it: derived(build) is build(self), computed on
    the first call with that function and returned from then on. Sparse
    operators and derived layouts are so built once per graph, however
    many forwards and backwards read them. Their arrays are read-only."""

    __slots__ = ("_derived",)

    def derived(self, build):
        memo = self._derived
        if build not in memo:
            value = build(self)
            memo[build] = _read_only(value) if isinstance(value, np.ndarray) else value
        return memo[build]


class HeteroGraph(_Derives):
    """Immutable-by-convention snapshot: nodes, canonical undirected edges,
    feature entries, optional labels. `edges` is given as an (E, 2) array
    or any iterable of (u, v) pairs, in either orientation and order, and
    repeats are dropped; `feats` either as a node -> {feature: value}
    mapping or as (node, feature, value) arrays, and zero values are
    dropped (a stored zero counts as absent). node_array, edge_array and
    the entry arrays are read-only."""

    __slots__ = ("nodes", "node_array", "edge_array", "feat_node", "feat_id", "feat_value",
                 "labels", "num_classes", "node_names", "feat_names")

    def __init__(self, nodes, edges, feats, labels, num_classes=None,
                 node_names=None, feat_names=None):
        self.node_array = _read_only(np.unique(np.fromiter(nodes, dtype=np.int64)))
        self.nodes = tuple(self.node_array.tolist())
        self.edge_array = _read_only(_canonical_pairs(edges, self.node_array))
        self.feat_node, self.feat_id, self.feat_value = map(_read_only, _entry_arrays(
            feats, self.node_array))
        labelled = np.fromiter(labels.keys(), dtype=np.int64, count=len(labels))
        classes = np.fromiter(labels.values(), dtype=np.int64, count=len(labels))
        missing = ~np.isin(labelled, self.node_array)
        bad = missing | (classes < 0)
        if bad.any():
            k = np.flatnonzero(bad)[0]
            if missing[k]:
                raise GraphError(f"label for missing node {labelled[k]}")
            raise GraphError(f"negative class id {classes[k]} for node {labelled[k]}")
        self.labels = dict(zip(labelled.tolist(), classes.tolist()))
        if num_classes is None:
            num_classes = int(classes.max()) + 1 if len(classes) else 0
        self.num_classes = int(num_classes)
        self.node_names = node_names
        self.feat_names = feat_names
        self._derived = {}

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_edges(self):
        return len(self.edge_array)

    @property
    def edges(self):
        """The edges as a tuple of (u, v) int tuples, built afresh from
        edge_array on each access."""
        return tuple(map(tuple, self.edge_array.tolist()))

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
        args = dict(nodes=self.nodes, edges=self.edge_array,
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
        self.src, self.dst = _read_only(src, np.int64), _read_only(dst, np.int64)
        self.shape = num_dst, num_src = tuple(map(int, shape))
        self.weight = None if weight is None else _read_only(weight, np.float64)
        shapes = [a.shape for a in (self.src, self.dst, self.weight) if a is not None]
        if self.dst.ndim != 1 or len(set(shapes)) != 1:
            raise ValueError(f"edges need 1-D src, dst and weight of one length, got {shapes}")
        if np.any(self.dst[1:] < self.dst[:-1]):
            raise ValueError("edges need destinations in ascending order")
        if len(self) and (self.dst[0] < 0 or self.dst[-1] >= num_dst
                          or self.src.min() < 0 or self.src.max() >= num_src):
            raise ValueError(f"edge index out of range for a {self.shape} matrix")
        self.indptr = _read_only(np.searchsorted(self.dst, np.arange(num_dst + 1)))
        self._derived = {}

    def __len__(self):
        return len(self.dst)

    def take(self, keep):
        """The edges at the ascending positions `keep`, weights aligned."""
        weight = None if self.weight is None else self.weight[keep]
        return Edges(self.src[keep], self.dst[keep], self.shape, weight)


def by_destination(shape, *blocks):
    """The unweighted Edges layout of `shape` of the concatenated blocks of
    directed edges (src, dst), sorted by (dst, src): a fixed summation
    order within each destination."""
    src = np.concatenate([s for s, _ in blocks])
    dst = np.concatenate([d for _, d in blocks])
    order = np.lexsort((src, dst))
    return Edges(src[order], dst[order], shape)


def transpose(edges):
    """The Edges layout of `edges` reversed, each src -> dst now dst -> src,
    grouped by the new destination with its sources ascending and the
    weights carried along. The layout's CSR arrays are the CSC arrays of
    the transposed matrix; SciPy's conversion of those to CSR is a
    counting sort, O(E) where by_destination sorts."""
    data = np.ones(len(edges)) if edges.weight is None else edges.weight
    t = sp.csc_matrix((data, edges.src, edges.indptr), shape=edges.shape[::-1]).tocsr()
    dst = np.repeat(np.arange(edges.shape[1]), np.diff(t.indptr))
    return Edges(t.indices, dst, edges.shape[::-1], None if edges.weight is None else t.data)


def directed_edges(nodes, pairs):
    """Both directions of the undirected edges `pairs`, distinct (u, v)
    rows, u < v, sorted by (u, v) (a HeteroGraph's edge_array), as rows of
    the ascending id array `nodes`, sorted by (dst, src)."""
    rows = np.searchsorted(nodes, pairs)
    up = Edges(rows[:, 1], rows[:, 0], (len(nodes),) * 2)  # v -> u, by (u, v)
    down = transpose(up)                                   # u -> v, by (v, u)
    # into each destination, down's sources are all below it and up's all
    # above it, and each part ascends: a stable sort by destination merges them
    src, dst = np.concatenate([down.src, up.src]), np.concatenate([down.dst, up.dst])
    order = np.argsort(dst, kind="stable")
    return Edges(src[order], dst[order], up.shape)


class AllotropicGraph(_Derives):
    """G^alt as the model reads it: three Edges layouts over the rows of
    node_ids and feat_ids. feat_to_node (phase 1) holds the feature edges
    weighted by their values, node_to_feat (phase 3) the same reversed,
    node_to_node (phase 2) the graph edges in both directions. All orders
    ascend by id, which pins the floating-point summation order."""

    __slots__ = ("node_ids", "feat_ids", "graph_edge_array",
                 "feat_to_node", "node_to_feat", "node_to_node")

    def __init__(self, node_ids, feature_edges, graph_edges):
        """node_ids ascend; graph_edges are distinct (u, v) pairs, u < v,
        sorted by (u, v), as HeteroGraph.edge_array holds them;
        feature_edges is three arrays (node id, feature id, value) sorted
        by (node, feature), one entry per pair; the feature nodes are the
        distinct feature ids among them."""
        nodes, feats, weights = feature_edges
        self.node_ids = _read_only(node_ids, np.int64)
        feat_ids, feat = np.unique(np.asarray(feats, dtype=np.int64), return_inverse=True)
        self.feat_ids = _read_only(feat_ids)
        self.graph_edge_array = _read_only(pair_array(graph_edges))
        node = np.searchsorted(self.node_ids, nodes)
        self.feat_to_node = Edges(feat, node, (self.n, self.m), weights)
        self.node_to_feat = transpose(self.feat_to_node)
        self.node_to_node = directed_edges(self.node_ids, self.graph_edge_array)
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
    return AllotropicGraph(g.node_array, (g.feat_node, g.feat_id, g.feat_value), g.edge_array)


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


SPLIT_FRACTIONS = (0.6, 0.2, 0.2)  # train, validation, test


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


def make_split(g, fractions=SPLIT_FRACTIONS, seed=0):
    """Random disjoint train/val/test over labeled nodes, by partition."""
    labeled = sorted(v for v in g.nodes if v in g.labels)
    perm = np.random.default_rng(seed).permutation(len(labeled))
    return Split(*partition(labeled, fractions, perm))


def remove_edges(g, edges):
    """Snapshot without the given undirected edges (used by link splits)."""
    drop = np.sort(pair_array(edges), axis=1)
    at = find_pairs(g.node_array, g.edge_array, drop)
    if (at < 0).any():
        missing = sorted(set(map(tuple, drop[at < 0].tolist())))
        raise GraphError(f"removing nonexistent edges: {missing[:3]}")
    keep = np.ones(g.num_edges, dtype=bool)
    keep[at] = False
    return g.replace(edges=g.edge_array[keep])


def _parse_lines(path):
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                yield lineno, line.split("\t")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None


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
            np.int64(labels_by_name[name])  # OverflowError outside int64
        except (ValueError, OverflowError):
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
                 f"graph_edges={len(alt.graph_edge_array)} "
                 f"feature_edges={len(alt.feat_to_node)}\n")
        for v in alt.node_ids.tolist():
            fh.write(f"GN\t{v}\n")
        for f in alt.feat_ids.tolist():
            fh.write(f"FN\t{f}\n")
        for u, v in alt.graph_edge_array.tolist():
            fh.write(f"GE\t{u}\t{v}\n")
        for v, fmap in project_back(alt).items():
            for f, w in fmap.items():
                fh.write(f"FE\t{v}\t{f}\t{w!r}\n")
