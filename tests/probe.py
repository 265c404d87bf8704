"""The feature-recovery probe (c05) and the tape ops only it, c01 and the
staged references use: sub, mean_all, slice_rows and the weighted spmm
that tensor.attention fuses.

No program path reads these; they are built from the package's own tape
(tensor._node, its sparse products) and training loop (optim.descend), so
their gradients go through the same reverse sweep as every program op.
"""

import numpy as np

from grafenne import tensor as T
from grafenne.model import glorot
from grafenne.optim import descend


def sub(a, b):
    a, b = T.as_tensor(a), T.as_tensor(b)

    def _bw(g):
        if a.requires_grad:
            T._accumulate(a, T._unbroadcast(g, a.shape))
        if b.requires_grad:
            T._accumulate(b, -T._unbroadcast(g, b.shape))

    return T._node(a.values - b.values, (a, b), _bw)


def mean_all(x):
    x = T.as_tensor(x)
    inv = 1.0 / x.values.size
    return T._node(x.values.mean(), (x,), lambda g: T._accumulate(x, g * inv))


def slice_rows(x, lo, hi):
    """out = x[lo:hi] along the first axis; backward adds into that slice."""
    x = T.as_tensor(x)

    def _bw(g):
        buf = np.zeros_like(x.values) if x.grad is None else x.grad.copy()
        buf[lo:hi] += g
        x.grad = buf

    return T._node(x.values[lo:hi].copy(), (x,), _bw)


def spmm(alpha, edges, x):
    """out[r] = sum of alpha[e] * x[edges.src[e]] over the edges e into r:
    S_alpha @ x, the weighted tensor.spmm. Backward is S_alpha^T @ G for x
    and the SDDMM <G[dst[e]], x[src[e]]> for alpha."""
    alpha, x = T.as_tensor(alpha), T.as_tensor(x)
    T._check_rows("spmm", x, edges)
    if alpha.shape != (len(edges),):  # _product rebinds the matrix data unchecked
        raise ValueError(f"spmm needs one alpha per edge, got shape {alpha.shape} "
                         f"for {len(edges)} edges")
    av, xv = alpha.values, x.values

    def _bw(g):
        if x.requires_grad:
            T._accumulate(x, T._product(edges, av, g, transpose=True))
        if alpha.requires_grad:
            T._accumulate(alpha, T._sddmm(g, xv, edges))

    return T._node(T._product(edges, av, xv), (alpha, x), _bw)


def recovery_probe(d, trials, seed=0, epochs=400, lr=0.01, hidden=None):
    """Train a phase-1-only stack to regress x_v from the allotropic encoding.

    Feature-node embeddings are fixed one-hot, graph nodes start at zero
    (so the combine reduces to a function of the aggregate alone), and each
    message pairs the feature identity with the edge value:
    m_v(i) = [onehot_i ; x_v[i] * 1_d].  The aggregate is learnable as a
    per-message MLP followed by a sum and a combine MLP, which is where
    the reconstruction x_v[i] = m[i] * m[d+i] has to be picked up.
    Returns (trained MSE, untrained MSE)."""
    rng = np.random.default_rng([seed, 29])
    x = rng.normal(size=(trials, d))
    if hidden is None:
        hidden = max(32, 16 * d)

    # row (v, i) of the message matrix is [onehot_i ; x_v[i] * 1_d]
    msgs = np.concatenate(
        [np.tile(np.eye(d), (trials, 1)), np.repeat(x.reshape(-1, 1), d, axis=1)], axis=1
    )
    seg = np.repeat(np.arange(trials), d)

    prng = np.random.default_rng([seed, 31])

    def mlp(name, d_in):  # d_in -> hidden -> d
        return [T.Parameter(glorot(prng, (d_in, hidden)), f"probe/{name}/A0"),
                T.Parameter(np.zeros(hidden), f"probe/{name}/b0"),
                T.Parameter(glorot(prng, (hidden, d)), f"probe/{name}/A1"),
                T.Parameter(np.zeros(d), f"probe/{name}/b1")]

    phi, rho = mlp("msg", 2 * d), mlp("comb", d)
    m_in = T.Tensor(msgs)
    target = T.Tensor(x)

    def mse():
        per_msg = T.mlp(m_in, phi)
        agg = T.segment_sum(per_msg, seg, trials)
        out = T.mlp(agg, rho)
        diff = sub(out, target)
        return mean_all(T.mul(diff, diff))

    untrained = mse().item()
    for _ in descend(phi + rho, mse, epochs, lr):
        pass
    return mse().item(), untrained
