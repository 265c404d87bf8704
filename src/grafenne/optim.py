"""Adam with bias correction over a parameter list's concatenated entries,
and descend, the one full-batch training loop every trainer runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import tensor as T


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass
class AdamState:
    step: int = 0
    m: np.ndarray = None  # the moments, one vector each over the
    v: np.ndarray = None  # parameter list's concatenated entries


def zero_grad(params):
    for p in params:
        p.grad = None


def grad_vector(params):
    """The gradients of params raveled into one vector, zeros for a None."""
    return np.concatenate([np.zeros(p.values.size) if p.grad is None else p.grad.ravel()
                           for p in params])


def split_vector(vec, params):
    """vec cut into one view per parameter, in order, of its shape."""
    ends = accumulate(p.values.size for p in params)
    return [vec[hi - p.values.size:hi].reshape(p.values.shape) for p, hi in zip(params, ends)]


def adam_step(params, lr, state=None):
    """One Adam update over `params`, concatenated into one vector of
    values and one of gradients; returns the (mutated) state, whose
    moments fit only parameter lists of the same total size.

    A missing gradient counts as zero, so parameters outside the current
    loss still decay their momentum. Values are rebound to views of a new
    vector, not written in place, so live tapes keep their forward arrays.
    A second moment that is not finite raises FloatingPointError before any
    value is rebound: an infinite one makes every later step 0, so training
    would stall on finite weights and report a plausible accuracy.
    """
    if state is None:
        state = AdamState()
    values, g = np.concatenate([p.values.ravel() for p in params]), grad_vector(params)
    if state.m is None:
        state.m, state.v = np.zeros_like(values), np.zeros_like(values)
    if not values.size == g.size == state.m.size:
        raise ValueError(f"Adam: {values.size} values, {g.size} gradients, {state.m.size} moments")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    if not np.isfinite(v).all():
        name = next(p.name for p, part in zip(params, split_vector(v, params))
                    if not np.isfinite(part).all())
        raise FloatingPointError(f"Adam's second moment of parameter {name} is not finite at "
                                 f"step {t}: a NaN or infinite gradient, or one whose square "
                                 f"overflows")
    new = values - lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    for p, part in zip(params, split_vector(new, params)):
        p.values = part
    return state


def check_finite_loss(kind, value, epoch, epochs):
    """Raise FloatingPointError on a NaN or infinite loss: a NaN validation
    loss never compares below the best, so training would otherwise stop
    early on stale weights and report a plausible accuracy."""
    if not math.isfinite(value):
        raise FloatingPointError(f"{kind} loss is {value} at epoch {epoch + 1} of {epochs}")


def check_finite_params(params):
    """Raise FloatingPointError if a parameter holds a NaN or infinity. A
    finite loss does not rule that out: a non-finite input can poison
    weights whose effect the loss never reads."""
    for p in params:
        if not np.isfinite(p.values).all():
            raise FloatingPointError(f"parameter {p.name} is not finite after training")


def descend(params, loss_fn, epochs, lr):
    """Full-batch Adam over `params`: each epoch builds loss_fn(), checks it
    is finite, backpropagates it and steps, then yields the epoch index.
    Callers that select on validation iterate it; the rest run it out. The
    loss, and with it the tape of what only it reads, is dropped once
    backpropagated, so no tape outlives its epoch."""
    state = AdamState()
    for epoch in range(epochs):
        loss = loss_fn()
        check_finite_loss("training", loss.item(), epoch, epochs)
        zero_grad(params)
        T.backward(loss)
        del loss
        adam_step(params, lr=lr, state=state)
        yield epoch
