"""Numerically stable log-space primitives, and the linear sigmoid pair.

Softmaxes and mixture densities downstream compute in natural
logarithms with these kernels, and log-det chains pass between layers
as logs. The transformers' sums are the exception: their sigmoid
mixtures and log-det chain links are summed in linear space from
sigmoid_pair, one exp(-|x|) per entry, and only each sum takes a log; a
sum too small to keep its precision there (below a floor that sits
above the saturation guard) is recomputed from logsigmoid in log space
(see transformer._log_sum and _chain_link). Both adjoints read their
gradient weights from those sums, the log-space terms only where a sum
fell below the floor, so no log pair is rebuilt for them. All arithmetic
is 64-bit. The softplus delta keeps later log() calls strictly away from
zero; it lives inside softplus only, so logsigmoid inherits it (the linear
sums subtract it after their log) and the axis-wise logsumexp stays exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Additive floor inside softplus. Applied nowhere else.
DELTA = 1e-6


def logsumexp_over_axis(a, axis: int):
    """Axis-wise stable logsumexp on arrays, max-shifted before exp.

    An all-(-inf) slice maps to -inf rather than erroring: structural zeros
    survive the reduction.

    A sum over a leading axis adds its rows in order whatever the trailing
    size. numpy sums a lone column pairwise instead, so without the running
    sum a one-column block would round differently from each column of a
    wide one.
    """
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    shifted = a - m
    np.exp(shifted, out=shifted)  # in place: one large temporary, not two
    axis %= a.ndim
    if axis < a.ndim - 1 and math.prod(a.shape[axis + 1:]) == 1:
        total = np.take(np.cumsum(shifted, axis=axis, out=shifted), [-1], axis=axis)
    else:
        total = np.sum(shifted, axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        out = np.log(total) + m
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
    input at 0, from sigmoid_pair's numerator max(e, sign(x)) and one division.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.maximum(e, np.sign(x))
    out /= 1.0 + e
    return float(out) if out.ndim == 0 else out


def sigmoid_pair(x, e, scale=None):
    """[sigmoid(x); sigmoid(-x)], C-ordered (2, *x.shape), in place from the caller's
    e = exp(-|x|); or, given a scale that broadcasts to x, scale times that pair.

    Each half is sigmoid's split, 1/(1+e) or e/(1+e), taken without a mask:
    its numerator max(e, sign(+-x)) is 1 on the side where the split divides
    1 (e never exceeds 1, and is 1 at x = 0) and e elsewhere. Unscaled, the
    bits of two sigmoid calls; scaled, the numerators times scale/(1+e).
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((2, *x.shape))
    np.sign(x, out=out[0])
    np.negative(out[0], out=out[1])
    np.maximum(e, out, out=out)
    if scale is None:
        out /= 1.0 + e
    else:
        out *= np.divide(scale, 1.0 + e)
    return out


def logit(p):
    """Inverse sigmoid on (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("logit requires arguments strictly inside (0, 1)")
    out = np.log(p) - np.log1p(-p)
    return float(out) if out.ndim == 0 else out


def logsoftmax_over_axis(a, axis: int):
    a = np.asarray(a, dtype=np.float64)
    return a - np.expand_dims(logsumexp_over_axis(a, axis), axis)
