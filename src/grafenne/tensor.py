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

The tape is acyclic: a closure holds its parents and reads its own
output's grad through a weak reference (_grad_reader), so a dropped tape
is freed by reference counting alone, without waiting for the cyclic
garbage collector.
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

    @property
    def size(self):
        return self.values.size

    def item(self):
        if self.values.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def zero_grad(self):
        self.grad = np.zeros_like(self.values)

    def backward(self):
        backward(self)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

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
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _grad_reader(out):
    """Zero-argument reader of out.grad that holds out only weakly.

    backward() keeps every node of the tape alive while closures run, and
    a closure that held out strongly would make out -> closure -> out a
    reference cycle."""
    ref = weakref.ref(out)
    return lambda: ref().grad


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
    out = Tensor(a.values + b.values)
    grad_out = _grad_reader(out)

    def _bw():
        g = grad_out()
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _attach(out, (a, b), _bw)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.values - b.values)
    grad_out = _grad_reader(out)

    def _bw():
        g = grad_out()
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(g, b.shape))

    return _attach(out, (a, b), _bw)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.values * b.values)
    grad_out = _grad_reader(out)

    def _bw():
        g = grad_out()
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.values, b.shape))

    return _attach(out, (a, b), _bw)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim not in (1, 2) or b.values.ndim not in (1, 2):
        raise ValueError(f"matmul expects 1-D or 2-D operands, got {a.shape} @ {b.shape}")
    if a.values.shape[-1] != b.values.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    av, bv = a.values, b.values
    out = Tensor(av @ bv)
    grad_out = _grad_reader(out)

    def _bw():
        g = grad_out()
        if a.values.ndim == 2 and b.values.ndim == 2:
            if a.requires_grad:
                _accumulate(a, g @ bv.T)
            if b.requires_grad:
                _accumulate(b, av.T @ g)
        elif a.values.ndim == 2:  # (m,k) @ (k,) -> (m,)
            if a.requires_grad:
                _accumulate(a, g[:, None] * bv[None, :])
            if b.requires_grad:
                _accumulate(b, av.T @ g)
        elif b.values.ndim == 2:  # (k,) @ (k,n) -> (n,)
            if a.requires_grad:
                _accumulate(a, bv @ g)
            if b.requires_grad:
                _accumulate(b, av[:, None] * g[None, :])
        else:  # dot product -> scalar
            if a.requires_grad:
                _accumulate(a, g * bv)
            if b.requires_grad:
                _accumulate(b, g * av)

    return _attach(out, (a, b), _bw)


def reshape(x, shape):
    x = as_tensor(x)
    out = Tensor(x.values.reshape(shape))
    grad_out = _grad_reader(out)

    def _bw():
        _accumulate(x, grad_out().reshape(x.shape))

    return _attach(out, (x,), _bw)


def concat(parts, axis=0):
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat of zero tensors")
    out = Tensor(np.concatenate([p.values for p in parts], axis=axis))
    sizes = [p.values.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)
    grad_out = _grad_reader(out)

    def _bw():
        g = grad_out()
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate(p, g[tuple(idx)])

    return _attach(out, tuple(parts), _bw)


def leaky_relu(x, slope=0.2):
    x = as_tensor(x)
    pos = x.values >= 0  # subgradient at 0 takes the positive branch
    out = Tensor(np.where(pos, x.values, slope * x.values))
    grad_out = _grad_reader(out)

    def _bw():
        _accumulate(x, grad_out() * np.where(pos, 1.0, slope))

    return _attach(out, (x,), _bw)


def relu(x):
    x = as_tensor(x)
    pos = x.values >= 0
    out = Tensor(np.where(pos, x.values, 0.0))
    grad_out = _grad_reader(out)

    def _bw():
        _accumulate(x, grad_out() * pos)

    return _attach(out, (x,), _bw)


def sigmoid(x):
    x = as_tensor(x)
    out = Tensor(_sigmoid_values(x.values))
    sv = out.values
    grad_out = _grad_reader(out)

    def _bw():
        _accumulate(x, grad_out() * sv * (1.0 - sv))

    return _attach(out, (x,), _bw)


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
    out = Tensor(x.values[index])
    grad_out = _grad_reader(out)

    def _bw():
        buf = _owned_grad(x)
        np.add.at(buf, index, grad_out())
        x.grad = buf

    return _attach(out, (x,), _bw)


def segment_sum(x, segment_ids, num_segments):
    """Sum rows of x into num_segments buckets."""
    x = as_tensor(x)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    vals = np.zeros((num_segments,) + x.values.shape[1:])
    np.add.at(vals, segment_ids, x.values)
    out = Tensor(vals)
    grad_out = _grad_reader(out)

    def _bw():
        _accumulate(x, grad_out()[segment_ids])

    return _attach(out, (x,), _bw)


def slice_rows(x, lo, hi):
    """out = x[lo:hi] along the first axis; backward adds into that slice."""
    x = as_tensor(x)
    out = Tensor(x.values[lo:hi].copy())
    grad_out = _grad_reader(out)

    def _bw():
        buf = _owned_grad(x)
        buf[lo:hi] += grad_out()
        x.grad = buf

    return _attach(out, (x,), _bw)


def spmm(alpha, rows, cols, num_rows, x):
    """out[r] = sum of alpha[e] * x[cols[e]] over the entries e with rows[e] == r.

    The product S_alpha @ x with a sparse S_alpha built as CSR straight
    from `rows`, which must ascend (an empty row sums to zero), so the
    E x d messages alpha[e] * x[cols[e]] are never formed. Entries are
    summed in the order given, as a sequential scatter-add would. Backward
    is S_alpha^T @ G for x and the SDDMM <G[rows[e]], x[cols[e]]> for
    alpha, which may also be a constant array (ones for a plain sum).
    """
    alpha, x = as_tensor(alpha), as_tensor(x)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if x.values.ndim != 2:
        raise ValueError(f"spmm expects a 2-D x, got shape {x.shape}")
    if rows.ndim != 1 or cols.shape != rows.shape or alpha.shape != rows.shape:
        raise ValueError(f"spmm needs 1-D rows, cols and alpha of one length, got "
                         f"{rows.shape}, {cols.shape} and {alpha.shape}")
    if np.any(rows[1:] < rows[:-1]):
        raise ValueError("spmm needs rows in ascending order")
    if rows.size and (rows[0] < 0 or rows[-1] >= num_rows
                      or cols.min() < 0 or cols.max() >= x.shape[0]):
        raise ValueError(f"spmm index out of range for a ({num_rows}, {x.shape[0]}) matrix")
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    s = sp.csr_matrix((alpha.values, cols, indptr), shape=(num_rows, x.shape[0]))
    xv = x.values
    out = Tensor(s @ xv)
    grad_out = _grad_reader(out)

    def _bw():
        g = grad_out()
        if x.requires_grad:
            _accumulate(x, s.T @ g)
        if alpha.requires_grad:
            _accumulate(alpha, (g[rows] * xv[cols]).sum(axis=1))

    return _attach(out, (alpha, x), _bw)


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

    smax = np.full(num, -np.inf)
    np.maximum.at(smax, ids, scores.values)
    e = np.exp(scores.values - smax[ids])
    denom = np.zeros(num)
    np.add.at(denom, ids, e)
    p = e / denom[ids]
    out = Tensor(p)
    grad_out = _grad_reader(out)

    def _bw():
        g = grad_out()
        dot = np.zeros(num)
        np.add.at(dot, ids, p * g)
        _accumulate(scores, p * (g - dot[ids]))

    return _attach(out, (scores,), _bw)


def stack_rows(rows):
    """Stack equal-length 1-D tensors into a matrix."""
    rows = [as_tensor(r) for r in rows]
    out = Tensor(np.stack([r.values for r in rows]))
    grad_out = _grad_reader(out)

    def _bw():
        g = grad_out()
        for i, r in enumerate(rows):
            if r.requires_grad:
                _accumulate(r, g[i])

    return _attach(out, tuple(rows), _bw)


def sum_all(x):
    x = as_tensor(x)
    out = Tensor(x.values.sum())
    grad_out = _grad_reader(out)

    def _bw():
        _accumulate(x, grad_out())

    return _attach(out, (x,), _bw)


def mean_all(x):
    x = as_tensor(x)
    out = Tensor(x.values.mean())
    inv = 1.0 / x.values.size
    grad_out = _grad_reader(out)

    def _bw():
        _accumulate(x, grad_out() * inv)

    return _attach(out, (x,), _bw)


def ewc_penalty(params, anchors, weights):
    """Sum over p of sum(weights_p * (p - anchors_p)**2) as one tape node.

    The diagonal quadratic penalty of elastic weight consolidation
    (Kirkpatrick et al. 2017). anchors and weights are constant arrays of
    each parameter's shape. Terms are summed in parameter order and each
    gradient 2 * g * weights_p * (p - anchors_p) is formed as h + h with
    h = (g * weights_p) * (p - anchors_p): the rounding of the staged
    sub/mul/mul/sum_all/add form, one node instead of five per parameter.
    """
    params = [as_tensor(p) for p in params]
    if not len(params) == len(anchors) == len(weights):
        raise ValueError(f"ewc_penalty needs one anchor and one weight per parameter, got "
                         f"{len(params)}, {len(anchors)} and {len(weights)}")
    diffs, total = [], np.float64(0.0)
    for i, (p, a, w) in enumerate(zip(params, anchors, weights)):
        if np.shape(a) != p.shape or np.shape(w) != p.shape:
            raise ValueError(f"ewc_penalty term {i}: anchor {np.shape(a)} and weight "
                             f"{np.shape(w)} do not match parameter {p.shape}")
        d = p.values - a
        term = ((d * d) * w).sum()
        total = term if i == 0 else total + term
        diffs.append(d)
    out = Tensor(total)
    grad_out = _grad_reader(out)

    def _bw():
        g = grad_out()
        for p, w, d in zip(params, weights, diffs):
            if p.requires_grad:
                h = (g * w) * d
                _accumulate(p, h + h)

    return _attach(out, tuple(params), _bw)


def mlp(x, weights, activation=leaky_relu):
    """Affine stack: weights is a flat [W0, b0, W1, b1, ...] list.

    Activation after every layer but the last; None means identity.
    """
    if len(weights) % 2 != 0:
        raise ValueError("mlp expects alternating weight/bias parameters")
    h = x
    n_layers = len(weights) // 2
    for i in range(n_layers):
        w, b = weights[2 * i], weights[2 * i + 1]
        h = add(matmul(h, w), b)
        if activation is not None and i < n_layers - 1:
            h = activation(h)
    return h


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
    out = Tensor((lse - z[np.arange(n), labels]).mean())
    grad_out = _grad_reader(out)

    def _bw():
        _accumulate(logits, grad_out() * softmax_minus_onehot(lv, labels) / n)

    return _attach(out, (logits,), _bw)


def bce_with_logits(scores, targets):
    """Mean binary cross entropy, log-sum-exp stabilized."""
    scores = as_tensor(scores)
    t = np.asarray(targets, dtype=np.float64)
    s = scores.values
    if t.shape != s.shape:
        raise ValueError(f"targets shape {t.shape} != scores shape {s.shape}")
    loss = np.maximum(s, 0.0) - s * t + np.log1p(np.exp(-np.abs(s)))
    out = Tensor(loss.mean())
    n = s.size
    grad_out = _grad_reader(out)

    def _bw():
        _accumulate(scores, grad_out() * (_sigmoid_values(s) - t) / n)

    return _attach(out, (scores,), _bw)


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
