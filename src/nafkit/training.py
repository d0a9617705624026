"""Losses, Adam, and seeded training loops.

Both objectives are Monte-Carlo forms of the same exclusive divergence:
maximum likelihood scores data under the flow-transported base density,
energy fitting scores transported base noise under a target log-density.
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
        if self.lr < 0:
            raise DomainError("lr must be nonnegative")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise DomainError("betas must lie in [0, 1)")
        if self.batch < 1:
            raise DomainError("batch must be >= 1")

    def as_dict(self) -> dict:
        return asdict(self)


def mle_loss(batch, stack: FlowStack):
    """Mean negative log-density of the batch (a differentiable scalar)."""
    batch = np.asarray(batch, dtype=np.float64)
    logp = stack.log_density(dg.Value(batch, op="input"))
    return dg.vmean(logp) * (-1.0)


def energy_loss(n: int, stack: FlowStack, target: TargetSpec, seed=0):
    """Monte-Carlo exclusive divergence, up to the target's normalizer.

    Draws n base samples x (reparameterized noise), pushes them through
    the stack, and averages log p_base(x) - logdet - log p_target(y).
    Gradients flow through y and the log-determinant only.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    x = stack.base.sample(n, rng)
    log_px = stack.base.log_prob(x)  # constant wrt parameters
    y, logdet = stack.forward(dg.Value(x, op="noise"))
    log_pt = target.log_density(y)
    bad = ~np.isfinite(log_pt.data)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NumericError(
            f"target {target.name!r} non-finite at sample {idx}: y = {y.data[idx]}"
        )
    return dg.vmean(dg.sub(dg.sub(log_px, logdet), log_pt))


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
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
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

    if ema is not None:
        for buf, p in zip(ema, params):
            p.data = buf.copy()
    return trace
