"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run tape: every op links the output tensor to its parents and
attaches a gradient closure. backward(loss) runs one reverse topological
sweep from a scalar loss; sweep(root, seed, order) is that sweep with any
seed gradient for the root over a precomputed _topo_order(root), so one
tape order can serve several sweeps (zero grads in between).

Gradients are lazy and shared: nothing is allocated before the sweep, a
node's first contribution is stored as given (a 0-d contribution to a
larger tensor is broadcast to its shape), later ones are added out of
place, and a node that received none keeps grad None and is skipped. A
stored array may therefore be another node's grad too (add hands one array
to both parents, reshape and slices hand views), so no closure writes into
a .grad array: the scatter ops copy the grad they add into first.

Every op builds its output through _node(value, parents, backward): it
computes its value and passes backward(g), which takes the output's
gradient and adds into the parents'. _node alone wires the tape, holding
the output only through a weak reference, so no closure holds its own
output, the tape is acyclic and a dropped tape is freed by reference
counting alone, without waiting for the cyclic garbage collector.

The fused ops attention, sage and mlp are whole layer blocks in one node
each, their backward the staged ops' expressions in the staged order, so
values and gradients are bit for bit those of the staged composition. The
sparse ones (spmm too) multiply through a graph.Edges layout's CSR matrix
and its CSC transpose, built once per layout and shared by every call,
which rebinds their values to its own edge weights right before each
product, forward and backward.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse as sp


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        if self.values.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named trainable tensor."""

    __slots__ = ("name",)

    def __init__(self, values, name):
        super().__init__(values, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _attach(out, parents, backward_fn):
    """Wire the tape edge if any parent needs gradients."""
    for p in parents:
        if p.requires_grad:
            out.requires_grad, out._parents, out._backward = True, tuple(parents), backward_fn
            break
    return out


def _node(value, parents, backward):
    """The output Tensor of an op: `value`, linked to `parents`, and
    backward(g) called with its gradient g in the reverse sweep.

    The closure holds the output only weakly: backward() keeps every node
    of the tape alive while closures run, and a strong reference would
    make out -> closure -> out a reference cycle."""
    out = Tensor(value)
    ref = weakref.ref(out)
    return _attach(out, parents, lambda: backward(ref().grad))


def _accumulate(node, g):
    """Add one gradient contribution to node.grad without writing into any
    array: the first is stored (broadcast to the node's shape), later ones
    are summed out of place."""
    if node.grad is None:
        shape = node.values.shape
        node.grad = g if g.shape == shape else np.broadcast_to(g, shape).copy()
    else:
        node.grad = node.grad + g


def _owned_grad(x):
    """x.grad as an array the caller may write into: a copy, or zeros."""
    return np.zeros_like(x.values) if x.grad is None else x.grad.copy()


def _unbroadcast(g, shape):
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _node(a.values + b.values, (a, b), _bw)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.values, b.values

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * bv, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * av, b.shape))

    return _node(av * bv, (a, b), _bw)


def matmul(a, b):
    """(m,k) @ (k,n) -> (m,n), or (m,k) @ (k,) -> (m,)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim not in (1, 2):
        raise ValueError(f"matmul expects a 2-D left and a 1-D or 2-D right operand, "
                         f"got {a.shape} @ {b.shape}")
    if a.values.shape[1] != b.values.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    av, bv = a.values, b.values

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g @ bv.T if bv.ndim == 2 else g[:, None] * bv[None, :])
        if b.requires_grad:
            _accumulate(b, av.T @ g)

    return _node(av @ bv, (a, b), _bw)


def reshape(x, shape):
    x = as_tensor(x)
    return _node(x.values.reshape(shape), (x,),
                 lambda g: _accumulate(x, g.reshape(x.shape)))


def concat(parts, axis=0):
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat of zero tensors")
    sizes = [p.values.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate(p, g[tuple(idx)])

    return _node(np.concatenate([p.values for p in parts], axis=axis), tuple(parts), _bw)


def _leaky(x, slope):
    """leaky_relu's values, an array even when x is 0-d."""
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu slope {slope} outside [0, 1]")
    o = np.multiply(x, slope, out=np.empty_like(x))
    return np.maximum(x, o, out=o)


def _leaky_grad(x, slope):
    """leaky_relu's derivative, 1 where x >= 0 (the subgradient at 0 takes
    the positive branch) else slope: for 0 <= slope <= 1 that is
    max(x >= 0, slope), which has no branch to mispredict."""
    return np.maximum(x >= 0, slope)


def leaky_relu(x, slope=0.2):
    """max(x, slope * x), which is LeakyReLU for 0 <= slope <= 1 only."""
    x = as_tensor(x)
    xv = x.values
    return _node(_leaky(xv, slope), (x,), lambda g: _accumulate(x, g * _leaky_grad(xv, slope)))


def relu(x):
    x = as_tensor(x)
    pos = x.values >= 0
    return _node(np.where(pos, x.values, 0.0), (x,), lambda g: _accumulate(x, g * pos))


def _sigmoid_values(v):
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def gather_rows(x, index):
    """out[i] = x[index[i]]; scatter-add on the way back."""
    x = as_tensor(x)
    index = np.asarray(index, dtype=np.int64)

    def _bw(g):
        buf = _owned_grad(x)
        np.add.at(buf, index, g)
        x.grad = buf

    return _node(x.values[index], (x,), _bw)


def segment_sum(x, segment_ids, num_segments):
    """Sum rows of x into num_segments buckets."""
    x = as_tensor(x)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    vals = np.zeros((num_segments,) + x.values.shape[1:])
    np.add.at(vals, segment_ids, x.values)
    return _node(vals, (x,), lambda g: _accumulate(x, g[segment_ids]))


def slice_rows(x, lo, hi):
    """out = x[lo:hi] along the first axis; backward adds into that slice."""
    x = as_tensor(x)

    def _bw(g):
        buf = _owned_grad(x)
        buf[lo:hi] += g
        x.grad = buf

    return _node(x.values[lo:hi].copy(), (x,), _bw)


def _ones(edges):
    return np.ones(len(edges))


def _matrices(edges):
    """The CSR matrix of the graph.Edges layout `edges` and its CSC
    transpose, one index structure shared by both. Built once per layout
    (edges.derived), with placeholder values: _product rebinds .data."""
    s = sp.csr_matrix((np.zeros(len(edges)), edges.src, edges.indptr), shape=edges.shape)
    return s, s.T


def _product(edges, alpha, x, transpose=False):
    """S_alpha @ x, or S_alpha^T @ x, through the layout's matrices, their
    .data rebound to this call's alpha right before the product: a tape
    whose backward runs after another forward over the same layout still
    reads its own alpha. The rebinding bypasses SciPy's format check, so
    callers check len(alpha) == len(edges) first."""
    s, st = edges.derived(_matrices)
    m = st if transpose else s
    m.data = alpha
    return m @ x


def _sddmm(g, x, edges):
    """<g[dst[e]], x[src[e]]> for every edge e: the gradient of S_alpha @ x
    with respect to alpha. Edges go in layout-order blocks of at most 64k
    gathered entries, which stay in cache; each row's sum is unchanged.
    Both operands are made C-contiguous once per call: np.take copies a
    strided source whole on every call, so a column slice of a wider
    gradient would otherwise be copied once per block."""
    g, x = np.ascontiguousarray(g), np.ascontiguousarray(x)
    out = np.empty(len(edges))
    step = max(65536 // max(g.shape[1], 1), 1)
    for lo in range(0, len(edges), step):
        dst, src = edges.dst[lo:lo + step], edges.src[lo:lo + step]
        out[lo:lo + step] = (np.take(g, dst, axis=0) * np.take(x, src, axis=0)).sum(axis=1)
    return out


def _check_rows(op, x, edges):
    if x.values.ndim != 2 or x.shape[0] != edges.shape[1]:
        raise ValueError(f"{op} needs a 2-D input of {edges.shape[1]} rows, got shape {x.shape}")


def spmm(alpha, edges, x):
    """out[r] = sum of alpha[e] * x[edges.src[e]] over the edges e into r.

    The product S_alpha @ x with the sparse S_alpha of the graph.Edges
    layout `edges` (its row pointer, destinations ascending, checked when
    it was built; an empty row sums to zero), so the E x d messages
    alpha[e] * x[src[e]] are never formed. Edges are summed in layout
    order, as a sequential scatter-add would. Backward is S_alpha^T @ G
    for x and the SDDMM <G[dst[e]], x[src[e]]> for alpha, which may also
    be a constant array (ones for a plain sum).
    """
    alpha, x = as_tensor(alpha), as_tensor(x)
    _check_rows("spmm", x, edges)
    if alpha.shape != (len(edges),):
        raise ValueError(f"spmm needs one alpha per edge, got shape {alpha.shape} "
                         f"for {len(edges)} edges")
    av, xv = alpha.values, x.values

    def _bw(g):
        if x.requires_grad:
            _accumulate(x, _product(edges, av, g, transpose=True))
        if alpha.requires_grad:
            _accumulate(alpha, _sddmm(g, xv, edges))

    return _node(_product(edges, av, xv), (alpha, x), _bw)


def _softmax(scores, ids, num):
    """Softmax of 1-D scores within the segments `ids` of num segments,
    stabilized by each segment's max. Sums run in entry order (bincount
    adds as np.add.at on zeros does); an empty segment is never read."""
    smax = np.full(num, -np.inf)
    np.maximum.at(smax, ids, scores)
    e = np.exp(scores - smax[ids])
    return e / np.bincount(ids, e, minlength=num)[ids]


def _softmax_backward(p, g, ids, num):
    """The scores' gradient of _softmax, given its output p and p's gradient g."""
    return p * (g - np.bincount(ids, p * g, minlength=num)[ids])


def segment_softmax(scores, segments, num_segments=None):
    """Softmax within each segment, `segments` giving each score's segment
    id, stabilized by the segment max.

    Empty segments are simply never referenced, so they produce no NaNs.
    """
    scores = as_tensor(scores)
    if scores.values.ndim != 1:
        raise ValueError(f"segment_softmax expects 1-D scores, got {scores.shape}")
    n = scores.values.shape[0]
    ids = np.asarray(segments, dtype=np.int64)
    if ids.shape != (n,):
        raise ValueError(f"segment ids shape {ids.shape} != ({n},)")
    num = num_segments if num_segments is not None else (int(ids.max()) + 1 if n else 0)
    p = _softmax(scores.values, ids, num)
    return _node(p, (scores,), lambda g: _accumulate(scores, _softmax_backward(p, g, ids, num)))


def attention(h, edges, w_src, w_att, w_msg, slope, coef=None, w_edge=None):
    """A whole attention as one tape node: the softmax-weighted sum of the
    messages (h W_msg)[u] along the graph.Edges u -> v into each v, an edge
    e = u -> v scored as LR(h W_src)[u] . w_att[:d] (LR the LeakyReLU of
    `slope`), plus, where coef gives each edge two mixing weights, the
    edge channel coef[e] . (LR([w_edge; -w_edge]) @ w_att[d:]). A
    per-destination score would cancel in the softmax. Backward is
    S_alpha^T @ G for the messages, the SDDMM <G[dst[e]], msg[src[e]]>,
    the softmax backward, then the staged ops' through both score terms;
    h gets its score part, then its message part."""
    h, w_src, w_att, w_msg = (as_tensor(t) for t in (h, w_src, w_att, w_msg))
    _check_rows("attention", h, edges)
    d = w_src.shape[1]
    parents = (h, w_src, w_att, w_msg) + (() if coef is None else (as_tensor(w_edge),))
    if coef is not None and (np.shape(coef) != (len(edges), 2) or parents[4].shape != (d,)):
        raise ValueError(f"attention needs coef of shape ({len(edges)}, 2) and w_edge of "
                         f"shape ({d},), got {np.shape(coef)} and {parents[4].shape}")
    if w_att.shape != (d if coef is None else 2 * d,):
        raise ValueError(f"attention needs w_att of {d} entries, {2 * d} with an edge channel, "
                         f"got shape {w_att.shape}")
    num_dst, num_src = edges.shape
    dst, src = edges.dst, edges.src
    hv, ws, wa, wm = h.values, w_src.values, w_att.values, w_msg.values
    z = hv @ ws
    lz = _leaky(z, slope)
    score = (lz @ wa[:d])[src]
    if coef is not None:
        w_edge, we = parents[4], parents[4].values
        signed = np.stack([we, we * -1.0])
        ls = _leaky(signed, slope)
        score = score + coef @ (ls @ wa[d:])
    mv = hv @ wm
    p = _softmax(score, dst, num_dst)

    def _bw(g):
        g = np.ascontiguousarray(g)  # one copy of a column slice, for both products
        if h.requires_grad or w_msg.requires_grad:
            gm = _product(edges, p, g, transpose=True)
        if any(t.requires_grad for t in parents[:3] + parents[4:]):  # a score input
            ds = _softmax_backward(p, _sddmm(g, mv, edges), dst, num_dst)
            gs = np.bincount(src, ds, minlength=num_src)
            g_att = [lz.T @ gs]
            if coef is not None:
                gv = coef.T @ ds
                g_att.append(ls.T @ gv)
                if w_edge.requires_grad:
                    g_signed = (gv[:, None] * wa[d:][None, :]) * _leaky_grad(signed, slope)
                    _accumulate(w_edge, g_signed[0])
                    _accumulate(w_edge, g_signed[1] * -1.0)
            if w_att.requires_grad:
                _accumulate(w_att, g_att[0] if coef is None else np.concatenate(g_att))
            gz = (gs[:, None] * wa[:d][None, :]) * _leaky_grad(z, slope)
            if w_src.requires_grad:
                _accumulate(w_src, hv.T @ gz)
            if h.requires_grad:
                _accumulate(h, gz @ ws.T)
        if h.requires_grad:
            _accumulate(h, gm @ wm.T)
        if w_msg.requires_grad:
            _accumulate(w_msg, hv.T @ gm)

    return _node(_product(edges, p, mv), parents, _bw)


def sage(h, edges, inv_deg, w):
    """relu([h || inv_deg * (S_1 h)] @ w) as one tape node: GraphSAGE over
    the graph.Edges layout `edges`, S_1 h each row's in-neighbour sum and
    inv_deg the (rows, 1) reciprocal in-degrees; h gets its self part,
    then its neighbour part. The ReLU is max(z, 0), which keeps a NaN."""
    h, w = as_tensor(h), as_tensor(w)
    _check_rows("sage", h, edges)
    ones = edges.derived(_ones)
    hv, wv = h.values, w.values
    dh = hv.shape[1]
    cat = np.concatenate([hv, _product(edges, ones, hv) * inv_deg], axis=1)
    z = cat @ wv
    pos = z >= 0

    def _bw(g):
        gz = g * pos
        if h.requires_grad:
            gc = gz @ wv.T
            _accumulate(h, gc[:, :dh])
            _accumulate(h, _product(edges, ones, gc[:, dh:] * inv_deg, transpose=True))
        if w.requires_grad:
            _accumulate(w, cat.T @ gz)

    return _node(np.maximum(z, 0.0), (h, w), _bw)


def stack_rows(rows):
    """Stack equal-length 1-D tensors into a matrix."""
    rows = [as_tensor(r) for r in rows]

    def _bw(g):
        for i, r in enumerate(rows):
            if r.requires_grad:
                _accumulate(r, g[i])

    return _node(np.stack([r.values for r in rows]), tuple(rows), _bw)


def sum_all(x):
    x = as_tensor(x)
    return _node(x.values.sum(), (x,), lambda g: _accumulate(x, g))


def ewc_penalty(params, anchor, weight):
    """Sum over p of sum(weight_p * (p - anchor_p)**2) as one tape node.

    The diagonal quadratic penalty of elastic weight consolidation
    (Kirkpatrick et al. 2017). anchor and weight are constant vectors over
    the parameters' concatenated entries: the difference, its weighted
    square and the gradient are one array op each. Terms are summed per
    parameter, in order, and each gradient 2 * g * weight_p * (p - anchor_p)
    is h + h with h = (g * weight_p) * (p - anchor_p): the rounding of the
    staged sub/mul/mul/sum_all/add form, in one node, not five per parameter.
    """
    params = [as_tensor(p) for p in params]
    bounds = np.cumsum([0] + [p.values.size for p in params]).tolist()
    if np.shape(anchor) != (bounds[-1],) or np.shape(weight) != (bounds[-1],):
        raise ValueError(f"ewc_penalty needs an anchor and a weight of {bounds[-1]} entries, "
                         f"got shapes {np.shape(anchor)} and {np.shape(weight)}")
    d = np.concatenate([p.values.ravel() for p in params]) - anchor
    sq = (d * d) * weight
    total = None
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        term = sq[lo:hi].sum()
        total = term if total is None else total + term

    def _bw(g):
        h = (g * weight) * d
        h = h + h
        for p, lo, hi in zip(params, bounds[:-1], bounds[1:]):
            if p.requires_grad:
                _accumulate(p, h[lo:hi].reshape(p.shape))

    return _node(total, tuple(params), _bw)


def mlp(x, weights, slope=0.2):
    """Affine stack on a matrix x as one tape node: weights is a flat
    [W0, b0, W1, b1, ...] list, and LeakyReLU of `slope` follows every
    layer but the last (slope None: identity). The backward runs the layers
    in reverse: the bias sum, h.T @ g and g @ W.T, then the slope mask."""
    if len(weights) % 2 != 0:
        raise ValueError("mlp expects alternating weight/bias parameters")
    x = as_tensor(x)
    if x.values.ndim != 2:
        raise ValueError(f"mlp expects a 2-D input, got shape {x.shape}")
    weights = [as_tensor(w) for w in weights]
    ws = [w.values for w in weights[0::2]]
    ins, pre = [], []  # each layer's input; each activated layer's pre-activation
    h = x.values
    for i, (w, b) in enumerate(zip(ws, weights[1::2])):
        ins.append(h)
        h = h @ w + b.values
        if slope is not None and i < len(ws) - 1:
            pre.append(h)
            h = _leaky(h, slope)

    def _bw(g):
        for i in range(len(ws) - 1, -1, -1):
            w, b = weights[2 * i], weights[2 * i + 1]
            if b.requires_grad:
                _accumulate(b, _unbroadcast(g, b.shape))
            if w.requires_grad:
                _accumulate(w, ins[i].T @ g)
            if i == 0:
                if x.requires_grad:
                    _accumulate(x, g @ ws[0].T)
            else:
                g = g @ ws[i].T
                if slope is not None:
                    g = g * _leaky_grad(pre[i - 1], slope)

    return _node(h, (x, *weights), _bw)


def _log_softmax_parts(v):
    """Rows of v shifted by their max, and their log-sum-exp."""
    z = v - v.max(axis=1, keepdims=True)
    return z, np.log(np.exp(z).sum(axis=1))


def softmax_minus_onehot(logits, labels):
    """softmax(logits) - onehot(labels) row by row: the gradient of the
    summed cross entropy with respect to the logits (cross_entropy's
    backward divides it by n)."""
    z, lse = _log_softmax_parts(logits)
    soft = np.exp(z - lse[:, None])
    soft[np.arange(len(labels)), labels] -= 1.0
    return soft


def cross_entropy(logits, labels):
    """Mean negative log softmax probability of the true class."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.values.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"label out of range [0,{c})")
    lv = logits.values
    z, lse = _log_softmax_parts(lv)
    return _node((lse - z[np.arange(n), labels]).mean(), (logits,),
                 lambda g: _accumulate(logits, g * softmax_minus_onehot(lv, labels) / n))


def bce_with_logits(scores, targets):
    """Mean binary cross entropy, log-sum-exp stabilized."""
    scores = as_tensor(scores)
    t = np.asarray(targets, dtype=np.float64)
    s = scores.values
    if t.shape != s.shape:
        raise ValueError(f"targets shape {t.shape} != scores shape {s.shape}")
    loss = np.maximum(s, 0.0) - s * t + np.log1p(np.exp(-np.abs(s)))
    n = s.size
    return _node(loss.mean(), (scores,),
                 lambda g: _accumulate(scores, g * (_sigmoid_values(s) - t) / n))


def _topo_order(root):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def sweep(root, seed, order):
    """Reverse sweep over order = _topo_order(root), with `seed` added to
    root's grad; accumulates into .grad and skips nodes that got none."""
    _accumulate(root, seed)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward()


def _check_loss(loss):
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to differentiate")


def backward(loss):
    """Reverse sweep from a scalar loss; accumulates into .grad."""
    _check_loss(loss)
    sweep(loss, np.ones_like(loss.values), _topo_order(loss))
