"""The feature-recovery probe (c05) and the two tape ops only it and the
staged references use: sub and mean_all.

No program path reads these; they are built from the package's own tape
(tensor._node) and training loop (optim.descend), so their gradients go
through the same reverse sweep as every program op.
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
