"""Streaming graph updates: timestamped deltas, synthetic drift generation,
and delta application producing fresh snapshots."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, HeteroGraph, find_pairs, pair_array


@dataclass(frozen=True)
class StreamDelta:
    t: int
    add_nodes: tuple = ()   # (node, label-or-None)
    del_nodes: tuple = ()
    add_edges: tuple = ()
    del_edges: tuple = ()
    add_feats: tuple = ()   # (node, feature, value)
    del_feats: tuple = ()   # (node, feature)

    def affected_nodes(self):
        touched = {v for v, _ in self.add_nodes}
        touched.update(self.del_nodes)
        for u, v in self.add_edges:
            touched.update((u, v))
        for u, v in self.del_edges:
            touched.update((u, v))
        touched.update(v for v, _, _ in self.add_feats)
        touched.update(v for v, _ in self.del_feats)
        return frozenset(touched)

    def is_empty(self):
        return not (self.add_nodes or self.del_nodes or self.add_edges
                    or self.del_edges or self.add_feats or self.del_feats)


def _repeats(a):
    """Whether each entry (row, if 2-D) of `a` equals an earlier one."""
    out = np.ones(len(a), dtype=bool)
    out[np.unique(a, axis=0, return_index=True)[1]] = False
    return out


def apply_delta(g, delta):
    """Apply one delta; returns (new snapshot, affected node set).

    Deletions must reference existing elements; additions must not
    duplicate existing ones. Deleting a node drops its incident edges,
    features, and label. Edges stay an (E, 2) array throughout: a deletion
    is a search of the canonical pairs, an addition a concatenation that
    the new snapshot's constructor canonicalises.
    """
    nodes = set(g.nodes)
    pairs = g.edge_array
    feats = g.feats
    labels = dict(g.labels)

    if delta.del_edges:
        drop = np.sort(pair_array(delta.del_edges), axis=1)
        at = find_pairs(g.node_array, pairs, drop)
        bad = (at < 0) | _repeats(at)  # a pair deleted twice is gone the second time
        if bad.any():
            e = tuple(drop[np.flatnonzero(bad)[0]].tolist())
            raise GraphError(f"t={delta.t}: deleting nonexistent edge {e}")
        keep = np.ones(len(pairs), dtype=bool)
        keep[at] = False
        pairs = pairs[keep]
    for v, f in delta.del_feats:
        if v not in nodes or f not in feats.get(v, {}):
            raise GraphError(f"t={delta.t}: deleting nonexistent feature ({v},{f})")
        del feats[v][f]
    for v in delta.del_nodes:
        if v not in nodes:
            raise GraphError(f"t={delta.t}: deleting nonexistent node {v}")
        nodes.remove(v)
        feats.pop(v, None)
        labels.pop(v, None)
    if delta.del_nodes:
        gone = np.fromiter(delta.del_nodes, dtype=np.int64)
        pairs = pairs[~np.isin(pairs, gone).any(axis=1)]
    for v, label in delta.add_nodes:
        if v in nodes:
            raise GraphError(f"t={delta.t}: adding existing node {v}")
        nodes.add(v)
        if label is not None:
            labels[v] = label
    if delta.add_edges:
        add = pair_array(delta.add_edges)
        now = np.array(sorted(nodes), dtype=np.int64)
        bad = (add[:, 0] == add[:, 1]) | ~np.isin(add, now).all(axis=1)
        add = np.sort(add, axis=1)
        at = find_pairs(now, pairs, add)
        # a repeat of an earlier addition exists by then; a bad earlier one raises first
        taken = (at >= 0) | _repeats(add)
        first = np.flatnonzero(bad | taken)
        if len(first):
            k = first[0]
            if bad[k]:
                u, v = delta.add_edges[k]
                raise GraphError(f"t={delta.t}: bad edge addition ({u},{v})")
            raise GraphError(f"t={delta.t}: adding existing edge {tuple(add[k].tolist())}")
        pairs = np.concatenate([pairs, add])
    for v, f, w in delta.add_feats:
        if v not in nodes:
            raise GraphError(f"t={delta.t}: feature addition on missing node {v}")
        if f in feats.get(v, {}):
            raise GraphError(f"t={delta.t}: adding existing feature ({v},{f})")
        feats.setdefault(v, {})[f] = w

    num_classes = max([g.num_classes] + [c + 1 for c in labels.values()]) if labels else g.num_classes
    out = HeteroGraph(nodes, pairs, feats, labels, num_classes=num_classes,
                      node_names=g.node_names, feat_names=g.feat_names)
    return out, delta.affected_nodes()


def generate_stream(g, T, p_n, p_f_add, p_f_del, p_e_add, p_e_del, seed):
    """Synthetic drift: per timestamp, each node is affected w.p. p_n; an
    affected node adds each absent registry feature w.p. p_f_add and drops
    each present one w.p. p_f_del. Each existing edge dies w.p. p_e_del and
    about |E|*p_e_add random non-edges are born. Timestamps run 2..T+1 so
    the input graph is snapshot 1. Node set stays fixed.

    Added values are 1.0 for binary-valued graphs, else uniform(0,1].
    """
    for name, p in [("p_n", p_n), ("p_f_add", p_f_add), ("p_f_del", p_f_del),
                    ("p_e_add", p_e_add), ("p_e_del", p_e_del)]:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}={p} outside [0,1]")
    if T < 1:
        raise ValueError(f"T={T} < 1")
    binary = bool((g.feat_value == 1.0).all())

    rng = np.random.default_rng(seed)
    nodes = list(g.nodes)
    universe = list(g.feature_ids())
    feats = g.feats
    edges = set(g.edges)
    deltas = []
    for t in range(2, T + 2):
        add_feats, del_feats = [], []
        affected = [v for v, r in zip(nodes, rng.random(len(nodes))) if r < p_n]
        for v in affected:
            have = feats.get(v, {})
            draws = rng.random(len(universe))
            for f, r in zip(universe, draws):
                if f in have:
                    if r < p_f_del:
                        del_feats.append((v, f))
                elif r < p_f_add:
                    value = 1.0 if binary else 1.0 - rng.random()
                    add_feats.append((v, f, value))

        ordered = sorted(edges)
        dies = rng.random(len(ordered)) < p_e_del
        del_edges = [e for e, d in zip(ordered, dies) if d]

        want = len(ordered) * p_e_add
        k = int(math.floor(want)) + (1 if rng.random() < want - math.floor(want) else 0)
        if len(nodes) < 2:
            k = 0
        add_edges, attempts = [], 0
        taken = edges - set(del_edges)
        while len(add_edges) < k and attempts < 100 * (k + 1):
            attempts += 1
            u, v = rng.choice(len(nodes), size=2, replace=False)
            e = (nodes[min(u, v)], nodes[max(u, v)])
            if e not in taken:
                add_edges.append(e)
                taken.add(e)

        delta = StreamDelta(t=t, add_edges=tuple(add_edges), del_edges=tuple(del_edges),
                            add_feats=tuple(add_feats), del_feats=tuple(del_feats))
        deltas.append(delta)
        for v, f in del_feats:
            del feats[v][f]
        for v, f, w in add_feats:
            feats.setdefault(v, {})[f] = w
        edges = taken
    return deltas

