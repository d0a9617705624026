"""Losses, Adam, and seeded training loops.

Both objectives are Monte-Carlo forms of the same exclusive divergence:
maximum likelihood scores data under the flow-transported base density,
energy fitting scores transported base noise under a target log-density.
Each loss is a root whose backward runs one reverse sweep of the flow's
layer adjoints (FlowStack.adjoint), seeded by the base's or the target's.
All randomness flows from one seeded generator per run, so traces are
bit-reproducible. A step's bookkeeping is a few vector operations: fit's
Adam adopts the stack's parameters into one flat float64 arena, so from
then on each Parameter.data is a view into it (see Adam), gathers the
gradients into one flat vector, and clips and updates that vector in place.
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
    """Adam with bias correction over a fixed parameter list.

    Building it adopts the parameters into one float64 arena, data: each
    p.data becomes a C-order view of its segment (bounds[i] of the flat
    array), so a step updates every parameter with a few in-place vector
    operations, each element by the formula a per-parameter loop takes.
    p.data edited in place edits the arena. A p.data rebound to a new array
    of its shape is copied into the arena, and viewed again, at the next
    step; one of another shape is a DomainError. The flat gradient grad and
    the moments m and v share one block, made at the first step, and each
    step takes two scratch vectors: in a plain process a block made here,
    before any forward pass, or one holding the scratch too, left more page
    faults per step (see CHANGES.md).
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        ends = np.cumsum([p.data.size for p in self.params], dtype=np.int64).tolist()
        self.bounds = list(zip([0, *ends[:-1]], ends))
        self.data = np.zeros(ends[-1] if ends else 0)
        for p, (a, b) in zip(self.params, self.bounds):
            self.data[a:b] = p.data.reshape(-1)
            p.data = self.data[a:b].reshape(p.data.shape)
        self._views = [p.data for p in self.params]
        self.grad = self.m = self.v = None

    def step(self, max_norm=None):
        """One update from the parameters' gradients (None as 0), first clipped
        to a global 2-norm of max_norm (clip_global_norm) if one is given.

        The gradients are copied into the flat gradient grad, so a gradient
        array that parameters share is counted once per parameter and left as
        it is. A non-finite gradient is a NumericError naming the first
        parameter that has one, raised before any state moves.
        """
        for p, view in zip(self.params, self._views):
            if p.data is not view:  # rebound since the last step: adopt its values
                if np.shape(p.data) != view.shape:
                    raise DomainError(f"parameter {p.name!r} was rebound to shape "
                                      f"{np.shape(p.data)}, not {view.shape}")
                view[...] = p.data
                p.data = view
        if self.grad is None:
            n = self.data.size
            self.grad, self.m, self.v = np.zeros(3 * n).reshape(3, n)
        g = self.grad
        for p, (a, b) in zip(self.params, self.bounds):
            if p.grad is None:
                g[a:b] = 0.0
            else:
                g[a:b] = p.grad.reshape(-1)
        # a finite sum of squares has finite terms; one that overflows is checked term by term
        with np.errstate(over="ignore"):
            sum_sq = g @ g
        if not np.isfinite(sum_sq) and not np.isfinite(g).all():
            bad = int(np.argmax(~np.isfinite(g)))
            name = next(p.name for p, (_, b) in zip(self.params, self.bounds) if bad < b)
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        if max_norm is not None:
            clip_global_norm(g, self.bounds, max_norm)
        self.t += 1
        t1, t2 = np.empty((2, g.size))
        self.m *= self.beta1
        self.m += np.multiply(g, 1.0 - self.beta1, out=t1)
        self.v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=t1)
        self.v += np.multiply(t1, g, out=t1)
        np.divide(self.m, 1.0 - self.beta1 ** self.t, out=t1)  # m_hat
        t1 *= self.lr
        np.divide(self.v, 1.0 - self.beta2 ** self.t, out=t2)  # v_hat
        t2 = np.sqrt(t2, out=t2)
        t2 += self.eps
        self.data -= np.divide(t1, t2, out=t1)


def clip_global_norm(grad, bounds, max_norm: float):
    """Scale the flat gradient grad in place to a global 2-norm of max_norm
    once it is above it; returns the norm.

    The norm is the square root of the sums of squares over the (start, end)
    segments bounds, one per parameter, added in parameter order: the bits
    of summing each parameter's gradient alone.
    """
    with np.errstate(over="ignore"):  # squares that overflow are retaken below
        sq = np.square(grad)
        norm = float(np.sqrt(sum(float(np.add.reduce(sq[a:b])) for a, b in bounds)))
    if norm == np.inf and (top := np.max(np.abs(grad), initial=0.0)) < np.inf:
        sq = np.square(grad / top)
        norm = float(top * np.sqrt(sum(float(np.add.reduce(sq[a:b])) for a, b in bounds)))
    if norm > max_norm and norm > 0:
        grad *= max_norm / norm
    return norm


def fit(stack: FlowStack, config: TrainConfig, data=None, target=None):
    """Run the training loop; returns [(step, loss), ...].

    MLE consumes shuffled-without-replacement epochs of `data` (partial
    trailing chunks are dropped and the permutation reseeds per epoch);
    energy fitting draws fresh base noise each step. Identical configs
    and inputs give bit-identical traces. Once the inputs pass their checks,
    the stack's Parameter.data become views into the Adam's arena; with
    polyak the averaged values are written into it at the end.
    """
    params = stack.parameters()
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

    opt = Adam(params, lr=config.lr, beta1=config.beta1, beta2=config.beta2,
               eps=config.eps)
    ema = opt.data.copy() if config.polyak is not None else None

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
        opt.step(config.grad_clip)
        if ema is not None:
            ema *= config.polyak
            ema += (1.0 - config.polyak) * opt.data
        trace.append((step, float(loss.data)))
        del loss  # its backward holds every layer's saved state: free it before the next forward

    if ema is not None:
        opt.data[...] = ema
    return trace
