"""MADE-style masked conditioner emitting per-dimension pseudo-parameters.

One dense forward pass produces, for every dimension t, the block of
pre-activation transformer parameters allowed to depend only on the
coordinates preceding t in the layer's variable order. Masks are built
deterministically (degrees cycle, never sampled) so runs reproduce.

The pass runs batch-last, on x.T: units lead and points trail, so each
layer is h_T = tanh((W * M).T @ h_T + b) and the readout is an
(m * width, n) array whose (width, n) slabs are the transformers'
blocks, the layout every transformer kernel takes.

The masks fix, before training, which readout rows any input reaches:
no hidden unit has degree 0 when m > 1, so the rows of the dimension of
degree 1 are dead and equal their bias. The readout product, and its
gradients, run over the live rows only. The block of the dimension of
degree 1 sees no input at any m (at m = 1 the hidden units see none
either), so block computes it on one column that every point shares:
densities and training pass that column to the family, and sampling,
which fixes one dimension at a time, asks block for each dimension's
rows, not the whole readout.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """The binary masks that the layers' degrees induce.

    masks[i] has shape (fan_in, fan_out) and multiplies the i-th weight
    matrix elementwise; out_base is the (last_hidden, m) readout mask that
    gets column-replicated per pseudo-parameter block.
    """

    masks: list
    out_base: np.ndarray


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
    return MaskSet(masks=masks, out_base=out_base)


class MadeConditioner:
    """Masked MLP mapping x to m blocks of out_per_dim pseudo-parameters.

    Weights are stored unmasked, (fan_in, fan_out); the mask is applied in
    every forward pass, so masked connections carry exact structural zeros
    and get zero gradient. out_offset (length out_per_dim) is added to
    every block: folded into the readout bias, it carries the
    identity-flow constants. live[t] says whether any hidden unit feeds
    dimension t's block; a dead block is its bias plus out_offset.
    """

    def __init__(self, m, out_per_dim, hidden_sizes=(64,), order=None,
                 out_offset=None, seed=0, name="cond"):
        self.m = int(m)
        self.out_per_dim = int(out_per_dim)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.order = tuple(order) if order is not None else tuple(range(1, m + 1))
        self.name = name
        mask_set = build_masks(self.m, self.hidden_sizes, self.order)
        # Replicate readout columns per block: output index = dim * P + p.
        self.masks = list(mask_set.masks) + [
            np.repeat(mask_set.out_base, self.out_per_dim, axis=1)
        ]
        self.live = mask_set.out_base.any(axis=0)
        self._runs = _row_runs(self.live, self.out_per_dim)
        if out_offset is None:
            out_offset = np.zeros(self.out_per_dim)
        self.out_offset = np.asarray(out_offset, dtype=np.float64)
        if self.out_offset.shape != (self.out_per_dim,):
            raise DomainError("out_offset length must equal out_per_dim")
        self._offsets = np.tile(self.out_offset, self.m)  # per readout row

        sizes = [self.m, *self.hidden_sizes, self.m * self.out_per_dim]
        self.weights = []
        self.biases = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            self.weights.append(dg.Parameter(np.zeros((fan_in, fan_out)), f"{name}.W{i}"))
            self.biases.append(dg.Parameter(np.zeros(fan_out), f"{name}.b{i}"))
        identity_init(self, seed=seed)

    def parameters(self):
        return [*self.weights, *self.biases]

    def forward(self, x, out=None, dead=True):
        """x: (n, m) array -> (m, out_per_dim, n) blocks, out_offset added.

        out, if given, is a 1-D float64 buffer of at least m * out_per_dim * n
        elements that the blocks are written into, so row blocks can share one.
        With dead=False the dead rows are not written (a caller that takes the
        dead block from block reads none of them). x is checked as check does.
        """
        x = self.check(x)
        return self.activations(x.T, out, dead)[1].reshape(self.m, self.out_per_dim, x.shape[0])

    def check(self, x):
        """x as float64 once it is an (n, m) array of finite values. A non-finite
        entry is a DomainError whose index is its flat (point, dimension) position."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.m:
            raise DomainError(f"expected (n, {self.m}) input, got {x.shape}")
        bad = ~np.isfinite(x)
        if bad.any():
            raise DomainError("conditioner input must be finite", index=int(np.argmax(bad)))
        return x

    def block(self, x, i):
        """Dimension i's block of forward(x), (out_per_dim, n) for an (n, m) x.

        Only the hidden layers and i's readout rows run. The dimension of
        degree 1 sees no input, so its block is computed on one column and
        comes back (out_per_dim, 1), for the family to broadcast.
        """
        if self.order[i] == 1:
            x = np.zeros((1, self.m))
        h = self._hidden(np.asarray(x, dtype=np.float64).T)[-1]
        rows = slice(i * self.out_per_dim, (i + 1) * self.out_per_dim)
        return self._readout(h, rows, self.live[i], np.empty((self.out_per_dim, h.shape[1])))

    def activations(self, x_t, out=None, dead=True):
        """([x_t, h_1, ..., h_k], out) for x_t = x.T (m, n): the input, each tanh
        layer's (units, n) output, and the (m * out_per_dim, n) readout with
        out_offset in its bias, in the buffer out if one is given (see forward)."""
        shape = (self.m * self.out_per_dim, x_t.shape[1])
        out = np.empty(shape) if out is None else out[:shape[0] * shape[1]].reshape(shape)
        hs = self._hidden(x_t)
        for rows, live in self._runs:
            if live or dead:
                self._readout(hs[-1], rows, live, out[rows])
        return hs, out

    def _hidden(self, x_t):
        hs = [x_t]
        for w, b, mask in zip(self.weights[:-1], self.biases[:-1], self.masks):
            h = (w.data * mask).T @ hs[-1]
            h += b.data[:, None]  # in place: no second (units, n) temporary
            hs.append(np.tanh(h, out=h))
        return hs

    def _readout(self, h, rows, live, out):
        """out, filled with the readout's rows (a slice) on the last hidden layer h.

        A dead row gets its bias plus out_offset, which is exactly what the
        full product gives it: its weights are all masked, and 0 * h sums to 0.
        """
        bias = (self.biases[-1].data[rows] + self._offsets[rows])[:, None]
        if live:
            np.matmul((self.weights[-1].data[:, rows] * self.masks[-1][:, rows]).T, h, out=out)
            out += bias
        else:
            out[...] = bias
        return out

    def backward(self, g, hs, x_grad=True):
        """(g_x.T, gradients of parameters()) for the readout's gradient g, (m * out_per_dim, n).

        Back to front, for each layer's input h in hs: g_W = (h @ g.T) * mask,
        g_b = g.sum(axis=1), and (W * mask) @ g times tanh' = 1 - h^2 (unless h is x.T).
        The readout's g_W and (W * mask) @ g run over its live rows only; a dead
        row's weights get an exact zero gradient, and a readout with no live row
        passes a zero gradient on. With x_grad=False (the input gradient is
        dropped, as a stack's first layer's is) the first layer's
        (W * mask) @ g is skipped and g_x.T is None.
        """
        g_w, g_b = [], []
        last = len(self.weights) - 1
        for i in reversed(range(len(self.weights))):
            w, mask, h = self.weights[i].data, self.masks[i], hs[i]
            g_b.append(g.sum(axis=1))
            g_w.append(np.empty_like(w))  # every column is written below
            g_in = None
            for rows, live in self._runs if i == last else [(slice(None), True)]:
                if not live:
                    g_w[-1][:, rows] = 0.0
                    continue
                g_w[-1][:, rows] = (h @ g[rows].T) * mask[:, rows]
                if i > 0 or x_grad:
                    part = (w[:, rows] * mask[:, rows]) @ g[rows]
                    g_in = part if g_in is None else g_in + part
            if g_in is None and (i > 0 or x_grad):  # no live readout row
                g_in = np.zeros_like(h)
            g = g_in
            if i > 0:
                t = h * h
                g *= np.subtract(1.0, t, out=t)
        return g, [*reversed(g_w), *reversed(g_b)]


def _row_runs(live, width):
    """(rows, live) for each run of consecutive dimensions that are all live or
    all dead, as slices of the (m * width)-row readout."""
    runs, start = [], 0
    for t in range(1, len(live) + 1):
        if t == len(live) or live[t] != live[start]:
            runs.append((slice(start * width, t * width), bool(live[start])))
            start = t
    return runs


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
