"""Adam with bias correction over named parameters, and descend, the one
full-batch training loop every trainer runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def zero_grad(params):
    for p in params:
        p.grad = np.zeros_like(p.values)


def adam_step(params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8, state=None):
    """One Adam update over `params`; returns the (mutated) state.

    A missing gradient counts as zero, so parameters outside the current
    loss still decay their momentum. Values are rebound, not written in
    place, so live tapes keep their forward arrays.
    """
    if state is None:
        state = AdamState()
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        m = state.m.get(p.name)
        if m is None:
            m = np.zeros_like(p.values)
            state.m[p.name] = m
            state.v[p.name] = np.zeros_like(p.values)
        v = state.v[p.name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.values = p.values - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
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
    Callers that select on validation iterate it; the rest run it out."""
    state = AdamState()
    for epoch in range(epochs):
        loss = loss_fn()
        check_finite_loss("training", loss.item(), epoch, epochs)
        zero_grad(params)
        T.backward(loss)
        adam_step(params, lr=lr, state=state)
        yield epoch
