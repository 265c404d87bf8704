"""Finite-difference gradient oracle and the random composed-graph suite.

Shared by the unit tests and the acceptance gate. Each "case" is a closure
that rebuilds the same computation from leaf arrays, so the analytic pass
(autodiff) and the numeric pass (central differences) run identical math.
"""

from __future__ import annotations

import numpy as np

from grafenne import tensor as T
from grafenne.graph import Edges
from probe import mean_all, sub


def fd_grad(f, arrays, eps=1e-6):
    """Central finite differences of the scalar-valued f over each array."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gf = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(arrays)
            flat[i] = orig - eps
            lo = f(arrays)
            flat[i] = orig
            gf[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def analytic_grad(build, arrays):
    leaves = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(leaves)
    T.backward(loss)
    return [leaf.grad for leaf in leaves]


def max_rel_err(a, b, floor=1e-3):
    """Max elementwise relative error with a floor against 0/0 blowups."""
    num = np.abs(a - b)
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((num / den).max()) if num.size else 0.0


def check_case(build, arrays, tol=1e-4, eps=1e-6, floor=1e-3):
    """Assert analytic and finite-difference gradients agree."""

    def f(arrs):
        leaves = [T.Tensor(a) for a in arrs]
        return build(leaves).item()

    analytic = analytic_grad(build, arrays)
    numeric = fd_grad(f, arrays, eps=eps)
    worst = max(max_rel_err(a, n, floor=floor) for a, n in zip(analytic, numeric))
    assert worst < tol, f"gradient mismatch: max rel err {worst:.3e} >= {tol}"
    return worst


def _case_chain(rng):
    m, k, n = rng.integers(2, 7, size=3)
    a = rng.normal(size=(m, k))
    b = rng.normal(size=(k, n))
    c = rng.normal(size=(m, n))
    d = rng.normal(size=(n, 2))

    def build(x):
        a_, b_, c_, d_ = x
        h = T.leaky_relu(T.add(T.matmul(a_, b_), c_), 0.2)
        return T.sum_all(T.matmul(h, d_))

    return build, [a, b, c, d]


def _case_pointwise(rng):
    shape = tuple(rng.integers(1, 7, size=2))
    a = rng.normal(size=shape)
    b = rng.normal(size=shape)

    def build(x):
        a_, b_ = x
        return mean_all(T.mul(T.leaky_relu(a_, 0.2), T.relu(sub(b_, a_))))

    return build, [a, b]


def _case_concat(rng):
    n1, n2, d = rng.integers(1, 6, size=3)
    a = rng.normal(size=(n1, d))
    b = rng.normal(size=(n2, d))
    w = rng.normal(size=(n1 + n2, d))

    def build(x):
        a_, b_, w_ = x
        return T.sum_all(T.mul(T.concat([a_, b_], axis=0), w_))

    return build, [a, b, w]


def _case_mlp_ce(rng):
    n, din, dh, c = rng.integers(2, 7), rng.integers(1, 7), rng.integers(1, 7), rng.integers(2, 5)
    xs = rng.normal(size=(n, din))
    w1 = rng.normal(size=(din, dh))
    b1 = rng.normal(size=(dh,))
    w2 = rng.normal(size=(dh, c))
    b2 = rng.normal(size=(c,))
    labels = rng.integers(0, c, size=n)

    def build(x):
        xs_, w1_, b1_, w2_, b2_ = x
        logits = T.mlp(xs_, [w1_, b1_, w2_, b2_], 0.2)
        return T.cross_entropy(logits, labels)

    return build, [xs, w1, b1, w2, b2]


def _case_bce(rng):
    n, d = rng.integers(2, 8), rng.integers(1, 7)
    xs = rng.normal(size=(n, d))
    w = rng.normal(size=(d,))
    targets = rng.integers(0, 2, size=n)

    def build(x):
        xs_, w_ = x
        return T.bce_with_logits(T.matmul(xs_, w_), targets)

    return build, [xs, w]


def _case_attention(rng):
    e, d = rng.integers(2, 9), rng.integers(1, 6)
    k = rng.integers(1, 4)
    ids = np.sort(rng.integers(0, k, size=e))
    scores = rng.normal(size=(e,))
    vals = rng.normal(size=(e, d))
    u = rng.normal(size=(d,))

    def build(x):
        scores_, vals_, u_ = x
        alpha = T.segment_softmax(scores_, ids, int(k))
        weighted = T.mul(vals_, T.reshape(alpha, (e, 1)))
        agg = T.segment_sum(weighted, ids, int(k))
        return T.sum_all(T.matmul(agg, u_))

    return build, [scores, vals, u]


def _case_gather(rng):
    n, d, m = rng.integers(2, 8), rng.integers(1, 6), rng.integers(2, 8)
    xs = rng.normal(size=(n, d))
    idx = rng.integers(0, n, size=m)
    k = rng.integers(1, 4)
    ids = rng.integers(0, k, size=m)

    def build(x):
        (xs_,) = x
        rows = T.gather_rows(xs_, idx)
        return mean_all(T.segment_sum(rows, ids, int(k)))

    return build, [xs]


def _case_stack(rng):
    d, m = rng.integers(1, 6), rng.integers(2, 6)
    rows = [rng.normal(size=(d,)) for _ in range(m)]
    w = rng.normal(size=(d,))

    def build(x):
        *rows_, w_ = x
        return T.sum_all(T.matmul(T.stack_rows(rows_), w_))

    return build, rows + [w]


def _case_penalty(rng):
    shape = tuple(rng.integers(1, 7, size=2))
    a = rng.normal(size=shape)
    b = rng.normal(size=shape)
    omega = rng.random(size=shape)

    def build(x):
        a_, b_, o_ = x
        diff = sub(a_, b_)
        return T.sum_all(T.mul(o_, T.mul(diff, diff)))

    return build, [a, b, omega]


def _case_ewc(rng):
    shapes = [tuple(rng.integers(1, 5, size=2)), (), (int(rng.integers(1, 6)),)]
    values = [rng.normal(size=s) for s in shapes]
    anchors = [rng.normal(size=s) for s in shapes]
    weights = [rng.random(size=s) * (rng.random(size=s) < 0.7) for s in shapes]  # some ω = 0
    u = rng.normal(size=shapes[0])

    anchor, weight = (np.concatenate([np.ravel(a) for a in xs]) for xs in (anchors, weights))

    def build(x):
        pen = T.ewc_penalty(x, anchor, weight)
        return T.add(T.sum_all(T.mul(x[0], u)), T.mul(pen, 0.75))

    return build, values


def _case_deep(rng):
    n, d = rng.integers(2, 7), rng.integers(1, 6)
    a = rng.normal(size=(n, d))
    b = rng.normal(size=(d, d))
    c = rng.normal(size=(n, d))
    e = rng.normal(size=(d,))
    targets = rng.integers(0, 2, size=n)

    def build(x):
        a_, b_, c_, e_ = x
        h = T.leaky_relu(T.matmul(a_, b_), 0.2)
        h = T.mul(T.relu(T.add(h, c_)), a_)
        h = T.leaky_relu(h, 0.2)
        return T.bce_with_logits(T.matmul(h, e_), targets)

    return build, [a, b, c, e]


def _case_softmax_groups(rng):
    n = int(rng.integers(2, 9))
    scores = rng.normal(size=(n,))
    w = rng.normal(size=(n,))
    cut = int(rng.integers(1, n))
    ids = (np.arange(n) >= cut).astype(np.int64)  # two segments, split at cut

    def build(x):
        scores_, w_ = x
        alpha = T.segment_softmax(scores_, ids)
        return T.sum_all(T.mul(alpha, T.mul(w_, w_)))

    return build, [scores, w]


def _case_spmm(rng):
    n, d, k, e = rng.integers(2, 6), rng.integers(1, 5), rng.integers(3, 7), rng.integers(2, 9)
    rows = np.sort(rng.integers(0, k - 1, size=e))  # row k - 1 stays empty
    cols = rng.integers(0, n, size=e)
    cols[1] = cols[0]  # a repeated column
    xs = rng.normal(size=(n, d))
    alpha = rng.normal(size=(e,))
    u = rng.normal(size=(k, d))
    edges = Edges(cols, rows, (k, n))

    def build(x):
        xs_, alpha_ = x
        learned = T.spmm(alpha_, edges, xs_)
        summed = T.spmm(np.ones(e), edges, T.leaky_relu(xs_))
        return T.sum_all(T.mul(T.add(learned, summed), u))

    return build, [xs, alpha]


def _case_fused_attention(rng):
    n, c, d, k, e = (rng.integers(2, 6), rng.integers(1, 5), rng.integers(1, 5),
                     rng.integers(3, 7), rng.integers(2, 9))
    rows = np.sort(rng.integers(0, k - 1, size=e))  # row k - 1 stays empty
    cols = rng.integers(0, n, size=e)
    cols[1] = cols[0]  # a repeated source
    edges = Edges(cols, rows, (k, n))
    coef = rng.normal(size=(e, 2))
    h = rng.normal(size=(n, c))
    w_src, w_msg = rng.normal(size=(c, d)), rng.normal(size=(c, d))
    w_att, w_edge, w_gat = rng.normal(size=(2 * d,)), rng.normal(size=(d,)), rng.normal(size=(d,))
    u = rng.normal(size=(k, d))

    def build(x):
        h_, w_src_, w_att_, w_msg_, w_edge_, w_gat_ = x
        channel = T.attention(h_, edges, w_src_, w_att_, w_msg_, 0.2, coef, w_edge_)
        plain = T.attention(h_, edges, w_src_, w_gat_, w_msg_, 0.2)
        return T.sum_all(T.mul(T.add(channel, plain), u))

    return build, [h, w_src, w_att, w_msg, w_edge, w_gat]


def _case_sage(rng):
    n, c, o, e = rng.integers(3, 7), rng.integers(1, 5), rng.integers(1, 5), rng.integers(2, 9)
    rows = np.sort(rng.integers(0, n - 1, size=e))  # row n - 1 stays empty
    cols = rng.integers(0, n, size=e)
    cols[1] = cols[0]  # a repeated source
    edges = Edges(cols, rows, (n, n))
    inv_deg = (1.0 / np.maximum(np.diff(edges.indptr), 1)).reshape(-1, 1)
    h, w = rng.normal(size=(n, c)), rng.normal(size=(2 * c, o))
    u = rng.normal(size=(n, o))

    def build(x):
        h_, w_ = x
        return T.sum_all(T.mul(T.sage(h_, edges, inv_deg, w_), u))

    return build, [h, w]


CASE_BUILDERS = [
    _case_chain,
    _case_pointwise,
    _case_concat,
    _case_mlp_ce,
    _case_bce,
    _case_attention,
    _case_gather,
    _case_stack,
    _case_penalty,
    _case_deep,
    _case_softmax_groups,
    _case_spmm,
    _case_fused_attention,
    _case_sage,
    _case_ewc,
]


def run_gradient_suite(n_cases=200, seed=0, tol=1e-4):
    """Run n_cases random composed graphs; returns the worst relative error."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n_cases):
        build, arrays = CASE_BUILDERS[i % len(CASE_BUILDERS)](rng)
        worst = max(worst, check_case(build, arrays, tol=tol))
    return worst
