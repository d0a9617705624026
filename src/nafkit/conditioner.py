"""MADE-style masked conditioner emitting per-dimension pseudo-parameters.

One dense forward pass produces, for every dimension t, the block of
pre-activation transformer parameters allowed to depend only on the
coordinates preceding t in the layer's variable order. Masks are built
deterministically (degrees cycle, never sampled) so runs reproduce.

The pass runs batch-last, on x.T: units lead and points trail, so each
layer is h_T = tanh((W * M).T @ h_T + b) and the readout is an
(m * width, n) array whose (width, n) slabs are the transformers'
blocks, the layout every transformer kernel takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffgraph as dg
from . import stablemath as sm
from .errors import DomainError

# Structural offset added to softness outputs so that, with near-zero
# conditioner weights and zero biases, softplus of the block is ~1 and
# the induced transformer is the identity map.
SOFTNESS_IDENTITY_OFFSET = sm.softplus_inv(1.0)  # ~0.541324...

# Same idea for the gated affine transformer: sigmoid(5) ~ 0.9933 makes
# the fresh flow near-identity while staying trainable.
GATE_IDENTITY_OFFSET = 5.0


@dataclass
class MaskSet:
    """Degrees per layer plus the binary masks they induce.

    masks[i] has shape (fan_in, fan_out) and multiplies the i-th weight
    matrix elementwise; out_base is the (last_hidden, m) readout mask that
    gets column-replicated per pseudo-parameter block.
    """

    degrees: list = field(default_factory=list)
    masks: list = field(default_factory=list)
    out_base: np.ndarray = None


def build_masks(m: int, hidden_sizes, order=None) -> MaskSet:
    """Strict autoregressive masks for the given variable order.

    Input/output coordinate i carries degree order[i]; hidden degrees
    cycle deterministically over 1..m-1. A hidden unit of degree k accepts
    degree <= k and feeds outputs of degree > k, so output block t sees
    exactly the inputs ordered before t. For m = 1 the hidden degrees are
    0: the single output block is cut off from the input entirely and the
    conditioner degenerates to trainable constants.
    """
    if m < 1:
        raise DomainError("dimension count must be >= 1")
    hidden_sizes = tuple(int(h) for h in hidden_sizes)
    if any(h < 1 for h in hidden_sizes):
        raise DomainError("hidden sizes must be >= 1")
    if order is None:
        order = tuple(range(1, m + 1))
    order = tuple(int(t) for t in order)
    if sorted(order) != list(range(1, m + 1)):
        raise DomainError(f"order must be a permutation of 1..{m}")

    in_deg = np.asarray(order, dtype=np.int64)
    degrees = [in_deg]
    for h in hidden_sizes:
        if m == 1:
            degrees.append(np.zeros(h, dtype=np.int64))
        else:
            degrees.append(1 + (np.arange(h) % (m - 1)))

    masks = []
    for prev, nxt in zip(degrees[:-1], degrees[1:]):
        masks.append((prev[:, None] <= nxt[None, :]).astype(np.float64))
    out_base = (degrees[-1][:, None] < in_deg[None, :]).astype(np.float64)
    return MaskSet(degrees=degrees, masks=masks, out_base=out_base)


class MadeConditioner:
    """Masked MLP mapping x to m blocks of out_per_dim pseudo-parameters.

    Weights are stored unmasked, (fan_in, fan_out); the mask is applied in
    every forward pass, so masked connections carry exact structural zeros
    and get zero gradient. out_offset (length out_per_dim) is added to
    every block: folded into the readout bias, it carries the
    identity-flow constants.
    """

    def __init__(self, m, out_per_dim, hidden_sizes=(64,), order=None,
                 out_offset=None, seed=0, name="cond"):
        self.m = int(m)
        self.out_per_dim = int(out_per_dim)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.order = tuple(order) if order is not None else tuple(range(1, m + 1))
        self.name = name
        mask_set = build_masks(self.m, self.hidden_sizes, self.order)
        self.mask_set = mask_set
        # Replicate readout columns per block: output index = dim * P + p.
        self.masks = list(mask_set.masks) + [
            np.repeat(mask_set.out_base, self.out_per_dim, axis=1)
        ]
        if out_offset is None:
            out_offset = np.zeros(self.out_per_dim)
        self.out_offset = np.asarray(out_offset, dtype=np.float64)
        if self.out_offset.shape != (self.out_per_dim,):
            raise DomainError("out_offset length must equal out_per_dim")

        sizes = [self.m, *self.hidden_sizes, self.m * self.out_per_dim]
        self.weights = []
        self.biases = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            self.weights.append(dg.Parameter(np.zeros((fan_in, fan_out)), f"{name}.W{i}"))
            self.biases.append(dg.Parameter(np.zeros(fan_out), f"{name}.b{i}"))
        identity_init(self, seed=seed)

    def parameters(self):
        return [*self.weights, *self.biases]

    def forward(self, x):
        """x: (n, m) array -> (m, out_per_dim, n) blocks, out_offset added."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.m:
            raise DomainError(f"expected (n, {self.m}) input, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise DomainError("conditioner input must be finite")
        return self.activations(x.T)[1].reshape(self.m, self.out_per_dim, x.shape[0])

    def activations(self, x_t):
        """([x_t, h_1, ..., h_k], out) for x_t = x.T (m, n): the input, each tanh
        layer's (units, n) output, and the (m * out_per_dim, n) readout with
        out_offset in its bias."""
        hs = [x_t]
        for w, b, mask in zip(self.weights[:-1], self.biases[:-1], self.masks):
            hs.append(np.tanh((w.data * mask).T @ hs[-1] + b.data[:, None]))
        bias = self.biases[-1].data + np.tile(self.out_offset, self.m)
        return hs, (self.weights[-1].data * self.masks[-1]).T @ hs[-1] + bias[:, None]

    def backward(self, g, hs):
        """(g_x.T, gradients of parameters()) for the readout's gradient g, (m * out_per_dim, n).

        Back to front, for each layer's input h in hs: g_W = (h @ g.T) * mask,
        g_b = g.sum(axis=1), and (W * mask) @ g times tanh' = 1 - h^2 (unless h is x.T).
        """
        g_w, g_b = [], []
        for i in reversed(range(len(self.weights))):
            g_w.append((hs[i] @ g.T) * self.masks[i])
            g_b.append(g.sum(axis=1))
            g = (self.weights[i].data * self.masks[i]) @ g
            if i > 0:
                g = g * (1.0 - hs[i] * hs[i])
        return g, [*reversed(g_w), *reversed(g_b)]


def identity_init(made: MadeConditioner, seed: int = 0) -> MadeConditioner:
    """Near-identity start: tiny uniform weights and output biases.

    Together with the structural output offsets this puts every
    transformer at (w uniform, a ~= 1, b ~= 0), i.e. the flow starts as
    (almost exactly) the identity map. The final-layer biases get the
    same tiny uniform noise as the weights instead of exact zeros: the
    first dimension in each order is parameterized by those biases alone,
    and exactly equal mixture components receive exactly equal gradients,
    which would freeze that dimension as an affine map for the whole run.
    """
    rng = np.random.default_rng(seed)
    for w in made.weights:
        w.data = rng.uniform(-0.001, 0.001, size=w.data.shape)
    for b in made.biases[:-1]:
        b.data = np.zeros_like(b.data)
    last = made.biases[-1]
    last.data = rng.uniform(-0.001, 0.001, size=last.data.shape)
    return made
