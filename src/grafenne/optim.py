"""Adam with bias correction over named parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
