"""Losses, Adam, and seeded training loops.

Both objectives are Monte-Carlo forms of the same exclusive divergence:
maximum likelihood scores data under the flow-transported base density,
energy fitting scores transported base noise under a target log-density.
Each loss is a root whose backward runs one reverse sweep of the flow's
layer adjoints (FlowStack.adjoint), seeded by the base's or the target's.
All randomness flows from one seeded generator per run, so traces are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import diffgraph as dg
from .errors import DomainError, NumericError
from .flow import FlowStack
from .targets import TargetSpec


@dataclass
class TrainConfig:
    loss: str = "mle"
    steps: int = 1000
    batch: int = 256
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    grad_clip: Optional[float] = 10.0
    polyak: Optional[float] = None

    def __post_init__(self):
        if self.loss not in ("mle", "energy"):
            raise DomainError(f"unknown loss {self.loss!r}")
        # lr = 0 is admitted so frozen-run traces stay expressible.
        if not 0 <= self.lr < np.inf:
            raise DomainError(f"lr must be finite and >= 0, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise DomainError("betas must lie in [0, 1)")
        if self.steps < 1:
            raise DomainError("steps must be >= 1")
        if self.batch < 1:
            raise DomainError("batch must be >= 1")
        # clip_global_norm scales by grad_clip / norm: a clip <= 0 flips or zeroes
        # every gradient. None switches clipping off.
        if self.grad_clip is not None and not 0 < self.grad_clip < np.inf:
            raise DomainError(f"grad_clip must be finite and > 0, got {self.grad_clip}")
        # Adam divides by sqrt(v_hat) + eps, and a parameter whose gradient is
        # exactly 0 (a masked conditioner weight) has v_hat = 0.
        if not 0 < self.eps < np.inf:
            raise DomainError(f"eps must be finite and > 0, got {self.eps}")
        if self.polyak is not None and not 0 <= self.polyak < 1:
            raise DomainError(f"polyak must lie in [0, 1), got {self.polyak}")

    def as_dict(self) -> dict:
        return asdict(self)


def mle_loss(batch, stack: FlowStack):
    """Mean negative log-density of the batch, as a loss root over stack.parameters()."""
    batch = np.asarray(batch, dtype=np.float64)
    n = len(batch)
    u, logdet, saved = stack.forward_saved(batch)
    logp = stack.base.log_prob(u) + logdet

    def grads():
        g = np.full(n, -1.0 / n)  # of each log-density
        return stack.adjoint(stack.base.adjoint(u, g), g, saved)

    return dg.Value(np.sum(logp) / n * -1.0, stack.parameters(), grads)


def energy_loss(n: int, stack: FlowStack, target: TargetSpec, seed=0):
    """Monte-Carlo exclusive divergence, up to the target's normalizer.

    Draws n base samples x (reparameterized noise), pushes them through
    the stack, and averages log p_base(x) - logdet - log p_target(y).
    Gradients flow through y and the log-determinant only; the root's
    backward needs target.adjoint.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    x = stack.base.sample(n, rng)
    log_px = stack.base.log_prob(x)  # constant wrt parameters
    y, logdet, saved = stack.forward_saved(x)
    log_pt = target.log_density(y)
    bad = ~np.isfinite(log_pt)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NumericError(
            f"target {target.name!r} non-finite at sample {idx}: y = {y[idx]}"
        )

    def grads():
        g = np.full(n, -1.0 / n)  # of each logdet and target log-density
        return stack.adjoint(target.adjoint(y, g), g, saved)

    return dg.Value(np.sum((log_px - logdet) - log_pt) / n, stack.parameters(), grads)


class Adam:
    """Adam with bias correction over a fixed parameter list."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter {p.name!r}")
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1.0 - self.beta2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_global_norm(params, max_norm: float):
    grads = [p.grad for p in params if p.grad is not None]
    with np.errstate(over="ignore"):  # squares that overflow are retaken below
        norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if norm == np.inf and (top := max(np.max(np.abs(g), initial=0.0) for g in grads)) < np.inf:
        norm = float(top * np.sqrt(sum(float(np.sum(np.square(g / top))) for g in grads)))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:  # not in place: a gradient may share its array
                p.grad = p.grad * scale
    return norm


def fit(stack: FlowStack, config: TrainConfig, data=None, target=None):
    """Run the training loop; returns [(step, loss), ...].

    MLE consumes shuffled-without-replacement epochs of `data` (partial
    trailing chunks are dropped and the permutation reseeds per epoch);
    energy fitting draws fresh base noise each step. Identical configs
    and inputs give bit-identical traces.
    """
    params = stack.parameters()
    opt = Adam(params, lr=config.lr, beta1=config.beta1, beta2=config.beta2,
               eps=config.eps)
    rng = np.random.default_rng(config.seed)

    if config.loss == "mle":
        if data is None:
            raise DomainError("mle fitting requires data")
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != stack.m:
            raise DomainError(f"data must be (n, {stack.m}), got {data.shape}")
        if data.shape[0] < config.batch:
            raise DomainError("batch size exceeds the dataset")
        bad = ~np.all(np.isfinite(data), axis=1)
        if np.any(bad):
            raise DomainError(f"data row {int(np.argmax(bad))} is not finite")
    elif target is None:
        raise DomainError("energy fitting requires a target")
    elif target.adjoint is None:
        raise DomainError(f"target {target.name!r} has no adjoint; energy fitting needs "
                          "the gradient of its log-density")

    ema = None
    if config.polyak is not None:
        ema = [p.data.copy() for p in params]

    trace = []
    perm, cursor = None, 0
    for step in range(config.steps):
        if config.loss == "mle":
            if perm is None or cursor + config.batch > data.shape[0]:
                perm = rng.permutation(data.shape[0])
                cursor = 0
            batch = data[perm[cursor: cursor + config.batch]]
            cursor += config.batch
            loss = mle_loss(batch, stack)
        else:
            loss = energy_loss(config.batch, stack, target, seed=rng)

        dg.zero_grad(params)
        dg.backward(loss)
        if config.grad_clip is not None:
            clip_global_norm(params, config.grad_clip)
        opt.step()
        if ema is not None:
            a = config.polyak
            for buf, p in zip(ema, params):
                buf *= a
                buf += (1.0 - a) * p.data
        trace.append((step, float(loss.data)))
        del loss  # its backward holds every layer's saved state: free it before the next forward

    if ema is not None:
        for buf, p in zip(ema, params):
            p.data = buf.copy()
    return trace
