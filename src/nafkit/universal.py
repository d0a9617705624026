"""Constructive approximation of monotone maps and its certificates.

Given a continuous strictly increasing S: [r0, r1] -> [0, 1] with
S(r0) = 0 and S(r1) = 1, build (a) a weighted step function within
1/(n+1) of S in sup norm, with biases at the quantiles of n evenly
spaced levels, and (b) a sigmoid superposition sharing those weights and
biases whose common softness is chosen from the minimum bias gap. The
certifier measures achieved sup error on a dense grid, so the proved
bounds become executable checks rather than trusted claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import stablemath as sm
from .errors import DomainError
from .transformer import invert_batch


@dataclass
class MonotoneTarget:
    """A normalized increasing map S on [r0, r1] with optional inverse."""

    fn: Callable[[float], float]
    r0: float
    r1: float
    inv: Optional[Callable[[float], float]] = None
    name: str = "target"

    def __post_init__(self):
        if not self.r0 < self.r1:
            raise DomainError("target requires r0 < r1")
        grid = np.linspace(self.r0, self.r1, 1001)
        vals = np.array([self.fn(float(g)) for g in grid])
        if abs(vals[0]) > 1e-9 or abs(vals[-1] - 1.0) > 1e-9:
            raise DomainError("target must satisfy S(r0) = 0 and S(r1) = 1")
        if np.any(np.diff(vals) <= 0):
            raise DomainError("target must be strictly increasing (flat region found)")

    def inverse(self, y: float) -> float:
        """Quantile of level y, analytic if supplied, else invert_batch seated
        in [r0, r1] by one forward call on that two-point table."""
        if self.inv is not None:
            return float(self.inv(y))
        fn = lambda xs: np.array([self.fn(float(x)) for x in xs])
        return float(invert_batch([float(y)], fn, table=np.array([self.r0, self.r1]))[0])


def identity_target() -> MonotoneTarget:
    return MonotoneTarget(fn=lambda x: x, r0=0.0, r1=1.0, inv=lambda y: y,
                          name="identity")


def normal_cdf_target(span: float = 4.0) -> MonotoneTarget:
    """Standard normal CDF renormalized onto [-span, span]."""
    phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    lo, hi = phi(-span), phi(span)

    def fn(x):
        return (phi(x) - lo) / (hi - lo)

    return MonotoneTarget(fn=fn, r0=-span, r1=span, name="normal-cdf")


def sigmoid_mix_target(seed: int, n_comp: int = 5) -> MonotoneTarget:
    """Random increasing sigmoid mixture renormalized to [0, 1] on [0, 1]."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.2, 1.0, size=n_comp)
    alpha = rng.uniform(1.0, 12.0, size=n_comp)
    beta = rng.uniform(-0.2, 1.2, size=n_comp)

    def raw(x):
        return float(np.sum(c * sm.sigmoid(alpha * (x - beta))))

    lo, hi = raw(0.0), raw(1.0)

    def fn(x):
        return (raw(x) - lo) / (hi - lo)

    return MonotoneTarget(fn=fn, r0=0.0, r1=1.0, name=f"sigmoid-mix-{seed}")


def build_step_approx(target: MonotoneTarget, n: int):
    """Step construction: biases at quantiles, simplex weights.

    Levels y_j = j/(n+1); biases b_j = S^{-1}(y_j); weights are the level
    increments, 1/(n+1) each except a final 2/(n+1). The induced
    step sum is within 1/(n+1) of S everywhere on [r0, r1].
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    levels = np.arange(1, n + 1) / (n + 1)
    b = np.array([target.inverse(float(y)) for y in levels])
    if np.any(np.diff(b) <= 0):
        raise DomainError("non-invertible target: quantiles are not increasing")
    w = np.full(n, 1.0 / (n + 1))
    w[-1] = 2.0 / (n + 1)
    return w, b


def step_eval(x, w: np.ndarray, b: np.ndarray):
    """Evaluate the step sum at x (scalar or vector)."""
    x = np.asarray(x, dtype=np.float64)
    return (x[..., None] >= b) @ w


def _sigmoid_sum(x, w, a, b):
    """The (0,1)-valued convex sigmoid combination sum_j w_j sigmoid(a_j x + b_j)."""
    x = np.asarray(x, dtype=np.float64)
    return sm.sigmoid(a * x[..., None] + b) @ w


def build_sigmoid_approx(target: MonotoneTarget, n: int, eps0: Optional[float] = None):
    """Sigmoid superposition sharing the step construction's w and b.

    The common softness tau = kappa / logit(1 - eps0), with kappa the
    minimum bias gap, makes each sigmoid pass within eps0 of its step at
    every other bias point. Returned in slope-intercept form as (w, a, b'):
    component j evaluates sigmoid(a_j x + b'_j) with a = 1/tau, b' = -b/tau.
    """
    if n < 2:
        raise DomainError("the sigmoid construction needs n >= 2")
    if eps0 is None:
        eps0 = 1.0 / (2.0 * (n + 1))
    if not 0.0 < eps0 < 0.5:
        raise DomainError("eps0 must lie in (0, 0.5)")
    w, b = build_step_approx(target, n)
    kappa = float(np.min(np.diff(np.sort(b))))
    if kappa <= 0.0:
        raise DomainError("duplicate biases: minimum gap is zero")
    tau = kappa / sm.logit(1.0 - eps0)
    return w, np.full(n, 1.0 / tau), -b / tau


def certify(target: MonotoneTarget, approx, grid_size: int = 10001) -> float:
    """Sup-norm error of a step pair (w, b) or sigmoid sum (w, a, b) on a dense grid."""
    if grid_size < 101:
        raise DomainError("grid_size must be >= 101")
    xs = np.linspace(target.r0, target.r1, grid_size)
    truth = np.array([target.fn(float(x)) for x in xs])
    vals = _sigmoid_sum(xs, *approx) if len(approx) == 3 else step_eval(xs, *approx)
    return float(np.max(np.abs(vals - truth)))


def dsf_prelogit_curve(xs, target: MonotoneTarget, n: int) -> np.ndarray:
    """Sigmoid-superposition values along xs for the target's n-term build."""
    return _sigmoid_sum(xs, *build_sigmoid_approx(target, n))


def inverse_transform_demo(n: int, n_samples: int = 20000, seed: int = 0) -> dict:
    """Map uniform draws through the logit of a built sigmoid sum targeting
    the Gaussian's logistic-warped CDF, and report the KS distance of the
    transformed sample against the Gaussian CDF. Reported, not bounded:
    the construction proves existence, not a rate.
    """
    # S = sigmoid o Phi^{-1} on [0, 1]; its quantiles are Phi(logit(y)).
    phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    target_inv = lambda y: phi(sm.logit(y))
    levels = np.arange(1, n + 1) / (n + 1)
    b = np.array([target_inv(float(y)) for y in levels])
    w = np.full(n, 1.0 / (n + 1))
    w[-1] = 2.0 / (n + 1)
    kappa = float(np.min(np.diff(np.sort(b))))
    eps0 = 1.0 / (2.0 * (n + 1))
    tau = kappa / sm.logit(1.0 - eps0)

    rng = np.random.default_rng(seed)
    u = rng.random(n_samples)
    pre = np.clip(_sigmoid_sum(u, w, np.full(n, 1.0 / tau), -b / tau), 1e-15, 1.0 - 1e-15)
    samples = np.sort(sm.logit(pre))
    cdf = np.array([phi(s) for s in samples])
    i = np.arange(1, n_samples + 1)
    ks = float(np.max(np.maximum(np.abs(i / n_samples - cdf),
                                 np.abs((i - 1) / n_samples - cdf))))
    return {"n": n, "n_samples": n_samples, "seed": seed, "ks_stat": ks}
