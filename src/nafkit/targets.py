"""Toy target densities, energies, and exact samplers.

Every target's log_density maps an (n, dim) array to (n,) log-densities.
Energy fitting also needs its adjoint: adjoint(y, g) is the gradient in
y, (n, dim), of sum(g * log_density(y)) for g (n,). Both are numpy, and
each registered adjoint repeats its log_density's operations in order,
so a fit's bits do not depend on how the gradient is spelled. Invented
constants (grid component sd, the four-mode surrogate, the support
barrier) are fixed here and echoed into emitted run configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import stablemath as sm
from .errors import DomainError

LOG_2PI = float(np.log(2.0 * np.pi))

# Smooth quadratic penalty replacing a hard support cutoff, so energy
# losses stay finite wherever early-training samples land.
BARRIER_SCALE = 1e6

GRID_COMPONENT_SD = 0.5
SINE_TIMES = (0.0, 5.0 / 6.0, 10.0 / 6.0)
SINE_OBS = (0.0, 0.0, 0.0)
SINE_NOISE_VAR = 0.125


@dataclass
class TargetSpec:
    """A named target: log-density (maybe unnormalized), its adjoint, optional sampler."""

    name: str
    dim: int
    log_density: Callable
    adjoint: Optional[Callable] = None
    sampler: Optional[Callable] = None
    modes: Optional[list] = None
    normalized: bool = True
    meta: dict = field(default_factory=dict)


def _mixture(means: np.ndarray, sd: float):
    """log_density and adjoint of an equal-weight isotropic Gaussian mixture.

    The log-density is a logsumexp over the components; its gradient is
    each component's responsibility times -(y - mean) / sd^2.
    """
    k, dim = means.shape
    log_norm = -0.5 * dim * LOG_2PI - dim * np.log(sd) - np.log(k)
    inv2v = 0.5 / (sd * sd)

    def scaled_sq(x):
        diff = x[:, None, :] - means
        return diff, np.sum(diff * diff, axis=-1) * -inv2v  # (n, k, dim), (n, k)

    def logp(x):
        return sm.logsumexp_over_axis(scaled_sq(x)[1], -1) + log_norm

    def adjoint(x, g):
        diff, a = scaled_sq(x)
        resp = g[:, None] * np.exp(a - sm.logsumexp_over_axis(a, -1)[:, None])
        t = (resp * -inv2v)[:, :, None] * diff
        return np.sum(t + t, axis=1)

    return logp, adjoint


def _mixture_sampler(means: np.ndarray, sd: float):
    k, dim = means.shape

    def sample(n: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.integers(0, k, size=n)
        return means[comp] + sd * rng.standard_normal((n, dim))

    return sample


def gaussian_grid(k: int, sd: float = GRID_COMPONENT_SD) -> TargetSpec:
    """k x k equal mixture on the meshgrid over [-5, 5]^2.

    k >= 2 places means at -5 + 10*(i-1)/(k-1); k = 1 centers at the
    origin. Exact sampling draws a component then a Gaussian.
    """
    if k < 1:
        raise DomainError("mode count per dimension must be >= 1")
    if sd <= 0:
        raise DomainError("component sd must be positive")
    if k == 1:
        axis = np.array([0.0])
    else:
        axis = -5.0 + 10.0 * np.arange(k) / (k - 1)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    means = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
    logp, adjoint = _mixture(means, sd)
    return TargetSpec(
        name=f"grid-k{k}",
        dim=2,
        log_density=logp,
        adjoint=adjoint,
        sampler=_mixture_sampler(means, sd),
        modes=[tuple(m) for m in means],
        normalized=True,
        meta={"k": k, "sd": sd, "means": means.tolist()},
    )


def four_mode_energy() -> TargetSpec:
    """Unnormalized 2-D energy with four modes at (+-2, +-2), sd 0.5.

    A declared surrogate: acceptance on it is property-based (mode
    coverage), never value-matching.
    """
    means = np.array([[2.0, 2.0], [2.0, -2.0], [-2.0, 2.0], [-2.0, -2.0]])
    sd = 0.5
    logp, adjoint = _mixture(means, sd)
    return TargetSpec(
        name="four-mode",
        dim=2,
        log_density=logp,
        adjoint=adjoint,
        sampler=_mixture_sampler(means, sd),
        modes=[tuple(m) for m in means],
        normalized=False,
        meta={"sd": sd, "means": means.tolist(), "surrogate": True},
    )


def sine_posterior() -> TargetSpec:
    """1-D unnormalized log-posterior over a sine frequency on [0, 2].

    Three observations equal to zero at fixed times; outside [0, 2] a
    smooth quadratic barrier stands in for the uniform prior's support.
    Posterior maxima sit at frequencies where every sin(2*pi*f*t_i)
    vanishes: {0.0, 0.6, 1.2, 1.8}.
    """
    freq = 2.0 * np.pi * np.asarray(SINE_TIMES).reshape(1, -1)
    obs = np.asarray(SINE_OBS).reshape(1, -1)
    inv2v = 0.5 / SINE_NOISE_VAR
    log_norm = -0.5 * LOG_2PI - 0.5 * np.log(SINE_NOISE_VAR)

    def logp(x):
        resid = obs - np.sin(x.reshape(-1, 1) * freq)  # (n, 3)
        ll = np.sum((resid * resid) * -inv2v, axis=-1) + 3.0 * log_norm
        f = x.reshape(-1)
        lo, hi = np.maximum(-f, 0.0), np.maximum(f - 2.0, 0.0)
        return ll + (lo * lo + hi * hi) * -BARRIER_SCALE

    def adjoint(x, g):
        arg = x.reshape(-1, 1) * freq
        t = (g[:, None] * -inv2v) * (obs - np.sin(arg))
        g_freq = np.sum(-(t + t) * np.cos(arg) * freq, axis=1, keepdims=True)
        f = x.reshape(-1)
        g_bar = g * -BARRIER_SCALE
        lo, hi = g_bar * np.maximum(-f, 0.0), g_bar * np.maximum(f - 2.0, 0.0)
        g_f = (hi + hi) * (f - 2.0 > 0.0) - (lo + lo) * (-f > 0.0)
        return g_freq + g_f.reshape(-1, 1)

    return TargetSpec(
        name="sine-posterior",
        dim=1,
        log_density=logp,
        adjoint=adjoint,
        sampler=None,
        modes=[0.0, 0.6, 1.2, 1.8],
        normalized=False,
        meta={"times": list(SINE_TIMES), "obs": list(SINE_OBS),
              "noise_var": SINE_NOISE_VAR, "barrier_scale": BARRIER_SCALE},
    )


def count_modes(samples, target: TargetSpec, radius: float) -> np.ndarray:
    """Fraction of samples within Euclidean `radius` of each declared mode."""
    if target.modes is None:
        raise DomainError(f"target {target.name!r} declares no mode list")
    if radius <= 0:
        raise DomainError("radius must be positive")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    modes = np.atleast_2d(np.asarray(target.modes, dtype=np.float64))
    if modes.shape[0] == 1 and modes.shape[1] == len(target.modes) and target.dim == 1:
        modes = modes.reshape(-1, 1)
    dist = np.linalg.norm(samples[:, None, :] - modes[None, :, :], axis=-1)
    return (dist <= radius).mean(axis=0)


_REGISTRY = {
    "grid-k2": lambda: gaussian_grid(2),
    "grid-k5": lambda: gaussian_grid(5),
    "grid-k10": lambda: gaussian_grid(10),
    "four-mode": four_mode_energy,
    "sine-posterior": sine_posterior,
}


def registry_names():
    return sorted(_REGISTRY)


def get_target(name: str) -> TargetSpec:
    if name not in _REGISTRY:
        raise DomainError(
            f"unknown target {name!r}; registry: {', '.join(registry_names())}"
        )
    return _REGISTRY[name]()
