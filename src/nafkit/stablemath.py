"""Numerically stable log-space primitives.

Everything downstream (transformers, log-det chains, mixture densities)
computes in natural logarithms with these kernels. All arithmetic is
64-bit. The softplus delta keeps later log() calls strictly away from
zero; it lives inside softplus only, so logsigmoid inherits it and
logsumexp/logsoftmax stay exact.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Additive floor inside softplus. Applied nowhere else.
DELTA = 1e-6

NEG_INF = float("-inf")


def logsumexp(v) -> float:
    """log(sum(exp(v))) for a nonempty vector, max-shifted before exp.

    All-(-inf) input returns -inf rather than erroring: masked Jacobian
    chains rely on structural zeros surviving the reduction.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise DomainError("logsumexp of an empty vector")
    return float(logsumexp_over_axis(v.reshape(-1), axis=0))


def logsumexp_over_axis(a, axis: int):
    """Axis-wise stable logsumexp on arrays; -inf slices map to -inf."""
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    shifted = a - m
    np.exp(shifted, out=shifted)  # in place: one large temporary, not two
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(shifted, axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis)


def softplus(x):
    """log(1 + exp(x)) + DELTA, overflow-free for any finite x."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))) + DELTA
    return float(out) if out.ndim == 0 else out


def softplus_inv(y: float) -> float:
    """Inverse of log(1 + exp(x)); ignores DELTA (sub-1e-6 effect)."""
    if y <= 0:
        raise DomainError("softplus_inv requires y > 0")
    # log(exp(y) - 1) = y + log(1 - exp(-y))
    return y + np.log(-np.expm1(-y))


def logsigmoid(x):
    """log sigmoid(x) = -softplus(-x); nonpositive up to DELTA."""
    x = np.asarray(x, dtype=np.float64)
    return -softplus(-x)


def sigmoid(x):
    """Logistic function from exp(-|x|), which cannot overflow.

    1/(1+e) for x >= 0 and e/(1+e) below: the same bits as splitting the
    input at 0, without scattering through boolean masks.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def logit(p):
    """Inverse sigmoid on (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("logit requires arguments strictly inside (0, 1)")
    out = np.log(p) - np.log1p(-p)
    return float(out) if out.ndim == 0 else out


def logsoftmax(v):
    """v - logsumexp(v) on a nonempty vector; exps sum to 1."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise DomainError("logsoftmax of an empty vector")
    return v - logsumexp(v)


def logsoftmax_over_axis(a, axis: int):
    a = np.asarray(a, dtype=np.float64)
    return a - np.expand_dims(logsumexp_over_axis(a, axis), axis)
