"""Autoregressive flow layers, stacking, densities, and sampling.

A layer pairs one masked conditioner with one transformer family; its
Jacobian is triangular in the layer's variable order, so the layer
log-determinant is the sum of per-dimension scalar log-derivatives.
Stacks alternate natural and reversed orders. One forward implementation
serves both directions: data -> noise for density estimation and
noise -> sample for energy fitting; only the interpretation differs.
Training runs each layer once over the whole batch (forward_saved: y,
the logdet, and what its adjoint reads), then sweeps the layers' adjoints
back to front (FlowStack.adjoint), each taking the gradients of its y and
of its logdet; the base distributions supply theirs.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from . import transformer as tf
from .conditioner import MadeConditioner
from .errors import DataError, DomainError, NumericError

LOG_2PI = float(np.log(2.0 * np.pi))

# Bytes per row block of FlowLayer.forward. A layer's block holds
# about sum(hidden) + m * width floats per point (its hidden units and its
# readout), so its rows are this budget over that, in whole 16-point tiles,
# kept within the 496 to 1024 rows that were timed: 1024 for dsf at m = 2,
# hidden 64 (about the fastest for a 16384-point dsf density), 624 for ddsf
# (1, 16, 16, 1), 1024 for affine, and 496 from m = 6 up. A BLAS product
# runs the columns past its kernel's last full tile through edge code that
# may sum in another order, so rows that are not a multiple of the tile
# change the last bit of some points (625 rows did, against 1024). See
# CHANGES.md for the sweeps. The row blocks of one call share a readout
# buffer, and the family runs one dimension per call: freeing a whole
# block's family temporaries at once (about 2.4 MB for dsf at m = 2) left
# glibc a heap top past its trim threshold, so every block gave its pages
# back and faulted them in again. FlowLayer.inverse runs the whole batch.
_BLOCK_BYTES = 8 * 1024 * (64 + 2 * 48)


def _block_rows(layer):
    """Points per row block of the layer's forward."""
    floats = sum(layer.conditioner.hidden_sizes) + layer.m * layer.family.width
    return min(1024, max(496, 16 * (_BLOCK_BYTES // (8 * floats * 16))))


def _row_blocks(a, rows):
    """(first row, index) of each block of at most rows rows of an (n, m) array a:
    all of a in one block when it has no rows, or no (n, m) shape for the conditioner."""
    n = a.shape[0] if a.ndim == 2 else 0
    return [(s, slice(s, s + rows)) for s in range(0, n, rows)] or [(0, ...)]


class StandardNormal:
    """Isotropic unit Gaussian base distribution."""

    name = "normal"

    def __init__(self, m: int):
        self.m = int(m)

    def log_prob(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.sum(x * x, axis=1) * (-0.5) - 0.5 * self.m * LOG_2PI

    @staticmethod
    def adjoint(x, g):
        """The gradient in x (n, m) of sum(g * log_prob(x)) for g (n,)."""
        t = (g * -0.5)[:, None] * x
        return t + t

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((n, self.m))


class UniformBase:
    """Uniform base over the open unit cube; used by universality demos."""

    name = "uniform"

    def __init__(self, m: int):
        self.m = int(m)

    def log_prob(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(x.shape[0])
        out[np.any((x <= 0.0) | (x >= 1.0), axis=1)] = -np.inf
        return out

    @staticmethod
    def adjoint(x, g):
        return np.zeros_like(x)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random((n, self.m))


_BASES = {"normal": StandardNormal, "uniform": UniformBase}


class FlowLayer:
    """One autoregressive transformation y_t = tau(c(x_<t), x_t)."""

    def __init__(self, m, kind, d=tf.DSF_DEFAULT_D, ddsf_dims=None,
                 hidden=(64,), order=None, seed=0, name="layer"):
        self.m = int(m)
        self.kind = kind
        self.d = int(d)
        self.name = name
        self.family = tf.family(kind)(d=self.d, dims=ddsf_dims, name=name)
        self.order = tuple(order) if order is not None else tuple(range(1, m + 1))
        self.conditioner = MadeConditioner(
            m, self.family.width, hidden_sizes=hidden, order=self.order,
            out_offset=self.family.offset, seed=seed, name=f"{name}.cond",
        )

    def parameters(self):
        return [*self.conditioner.parameters(), *self.family.params]

    # -- forward ---------------------------------------------------------

    def forward(self, x):
        """x: (n, m) -> (y (n, m), logdet (n,)).

        It runs over row blocks of _block_rows(self) points, whose
        temporaries stay in cache; each block's outputs are the bits of
        evaluating that block alone. The blocks share one readout buffer, and
        the family runs one dimension at a time (see _BLOCK_BYTES). The
        dimension of degree 1 sees no input: its block is taken once per call
        on one (width, 1) column (MadeConditioner.block), which every row
        block passes to the family, and at m = 1, where that is every block,
        the conditioner only checks x. A non-finite x, or a numeric failure,
        names this layer, the dimension and the point of the whole x.
        """
        x = np.asarray(x, dtype=np.float64)
        n = len(x) if x.ndim == 2 else 0  # else the conditioner refuses x
        cond, rows = self.conditioner, _block_rows(self)
        y, ld = np.empty((self.m, n)), np.empty((self.m, n))
        readout = np.empty(self.m * self.family.width * min(n, rows))
        constants = self.family.constants()  # once per call, not per block
        first = self.order.index(1)
        shared = cond.block(x, first)
        for start, block_rows in _row_blocks(x, rows):
            xb = x[block_rows]
            try:
                if self.m > 1:
                    blocks = cond.forward(xb, readout)
                else:  # the one block is shared
                    cond.check(xb)
            except DomainError as err:
                raise self._located(err, start) from None
            for i in range(self.m):
                try:
                    y[i, block_rows], ld[i, block_rows] = self.family.forward(
                        xb[:, i], shared if i == first else blocks[i], constants)
                except (DomainError, NumericError) as err:
                    raise self._located(err, start, dim=i) from None
        return y.T, ld.sum(axis=0)

    def forward_saved(self, x):
        """(y, logdet, saved) for an (n, m) x, with saved what adjoint reads. One
        pass over the whole batch, for training. Unlike forward it does not
        check x: fit checks its data, and noise is finite.

        The block of the dimension of degree 1 gets the bits forward gives it:
        the family decodes that slab to a one-column block's bits (decode's
        shared).
        At m = 1 it is the only block, so the conditioner and the decode run
        on one column, which the kernel broadcasts over the points.
        """
        n, m = x.shape
        cond, fam = self.conditioner, self.family
        try:
            hs, readout = cond.activations(x.T if m > 1 else np.zeros((1, 1)))
            block = readout.reshape(m, fam.width, -1)
            p = fam.decode(block, shared=self.order.index(1))
            y, ld, kernel = fam.core(x.T, p)
        except NumericError as err:
            raise self._located(err) from None
        # an affine logdet is its block's s: one column wide at m = 1
        ld = np.broadcast_to(ld, y.shape).sum(axis=0)
        return y.T, ld, (x, hs, block, p, kernel)

    def adjoint(self, g_y, g_ld, saved):
        """(g_x, gradients of parameters()) for the gradients g_y (n, m) of
        forward_saved's y and g_ld (n,) of its logdet: the family's adjoint,
        chained into the conditioner's. A one-column block (m = 1) gets its
        gradient summed over the points."""
        x, hs, block, p, kernel = saved
        n, m = x.shape
        g_x, g_block, *g_fam = self.family.adjoint(
            g_y.T, np.broadcast_to(g_ld, (m, n)), x.T, block, p, kernel)
        cols = block.shape[-1]
        if cols < n:
            g_block = g_block.sum(axis=-1, keepdims=True)
        g_xc, g_cond = self.conditioner.backward(g_block.reshape(m * self.family.width, cols), hs)
        return (g_xc + g_x).T, [*g_cond, *g_fam]

    # -- inverse ---------------------------------------------------------

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """Recover x with f(x) = y, one dimension and one conditioner block at a time.

        Proceeds in the layer's degree order so each transformer's
        pseudo-parameters are functions of already-recovered coordinates.
        """
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != self.m:
            raise DomainError(f"expected (n, {self.m}) input, got {y.shape}")
        x = np.zeros_like(y)
        constants = self.family.constants()
        for deg in range(1, self.m + 1):
            i = self.order.index(deg)
            target = np.ascontiguousarray(y[:, i])  # the solver reads it at every step
            try:
                x[:, i] = self.family.inverse(target, self.conditioner.block(x, i), constants)
            except NumericError as err:
                raise self._located(err, dim=i) from None
        return x

    def _located(self, err, start=0, dim=None):
        """err, its message prefixed with this layer, dimension and batch point.

        err.index counts from the row block at start: a flat (point, dimension)
        index, or a point of dimension dim. An error without an index is err.
        """
        if err.index is None:
            return err
        point = err.index
        if dim is None:
            point, dim = divmod(point, self.m)
        point += start
        err.args = (f"{self.name}, dimension {dim}, batch point {point}: {err}",)
        err.dim, err.index = dim, point * self.m + dim
        return err

    # -- (de)serialization -------------------------------------------------

    def spec(self) -> dict:
        dims = self.family.dims
        return {
            "kind": self.kind,
            "order": list(self.order),
            "d": self.d,
            "L": len(dims) - 1 if dims else None,
            "dims": list(dims) if dims else None,
            "hidden": list(self.conditioner.hidden_sizes),
        }


class FlowStack:
    """Ordered flow layers over a base distribution."""

    def __init__(self, layers, base="normal"):
        if not layers:
            raise DomainError("a FlowStack needs at least one layer")
        self.m = layers[0].m
        if any(l.m != self.m for l in layers):
            raise DomainError("all layers must share one dimensionality")
        self.layers = list(layers)
        if isinstance(base, str):
            if base not in _BASES:
                raise DomainError(f"unknown base {base!r}")
            base = _BASES[base](self.m)
        self.base = base

    @classmethod
    def build(cls, m, kind, n_layers=1, d=tf.DSF_DEFAULT_D, ddsf_dims=None,
              hidden=(64,), seed=0, base="normal"):
        """Stack with orders reversed on every odd (0-indexed) layer."""
        natural = tuple(range(1, m + 1))
        layers = []
        for i in range(n_layers):
            order = natural if i % 2 == 0 else tuple(reversed(natural))
            layers.append(FlowLayer(
                m, kind, d=d, ddsf_dims=ddsf_dims, hidden=hidden, order=order,
                seed=seed + 1000 * i, name=f"layer{i}",
            ))
        return cls(layers, base=base)

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        names = [p.name for p in out]
        if len(set(names)) != len(names):
            raise DomainError("duplicate parameter names in stack")
        return out

    def forward(self, x):
        """Map through every layer; total logdet is the exact sum."""
        total = None
        for layer in self.layers:
            x, ld = layer.forward(x)
            total = ld if total is None else total + ld
        return x, total

    def forward_saved(self, x):
        """forward for training: (y, logdet, saved), with saved what adjoint reads."""
        total, saved = None, []
        for layer in self.layers:
            x, ld, state = layer.forward_saved(x)
            saved.append(state)
            total = ld if total is None else total + ld
        return x, total, saved

    def adjoint(self, g_y, g_ld, saved):
        """Gradients of parameters() for the gradients g_y (n, m) of forward_saved's
        y and g_ld (n,) of its logdet: one reverse sweep of the layers' adjoints.
        """
        grads = []
        for layer, state in zip(reversed(self.layers), reversed(saved)):
            g_y, layer_grads = layer.adjoint(g_y, g_ld, state)
            grads[:0] = layer_grads
        return grads

    def log_density(self, x):
        """Change-of-variables density of x under base + stack."""
        u, logdet = self.forward(x)
        return self.base.log_prob(u) + logdet

    def transform_noise(self, x):
        """Push base noise forward; returns (y, log q(y))."""
        y, logdet = self.forward(x)
        return y, self.base.log_prob(x) - logdet

    def inverse(self, y: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            y = layer.inverse(y)
        return y

    def sample(self, n: int, seed=0) -> np.ndarray:
        if n < 0:
            raise DomainError(f"sample count must be >= 0, got {n}")
        rng = np.random.default_rng(seed)
        z = self.base.sample(n, rng)
        return self.inverse(z)

    # -- checkpoints -------------------------------------------------------

    def to_json(self) -> dict:
        params = {
            p.name: {"shape": list(p.data.shape), "data": p.data.reshape(-1).tolist()}
            for p in self.parameters()
        }
        return {
            "version": 1,
            "m": self.m,
            "base": self.base.name,
            "layers": [layer.spec() for layer in self.layers],
            "params": params,
        }

    def save(self, path: str):
        payload = json.dumps(self.to_json(), sort_keys=True)
        write_atomic(path, payload)

    @classmethod
    def from_json(cls, doc: dict) -> "FlowStack":
        """Rebuild a stack from to_json output; malformed input is a DataError."""
        version = doc.get("version") if isinstance(doc, dict) else None
        if version != 1:
            raise DataError(f"unsupported checkpoint version {version!r}")
        m = _integers(doc, "m", "checkpoint")
        layers = []
        for i, spec in enumerate(_entry(doc, "layers", "checkpoint")):
            where = f"checkpoint layer {i}"
            kind, dims = _entry(spec, "kind", where), _entry(spec, "dims", where)
            if dims is not None:  # ddsf's widths; to_json writes None for the other kinds
                dims = _integers(spec, "dims", where, many=True)
            d = _integers(spec, "d", where)
            hidden, order = (_integers(spec, key, where, many=True) for key in ("hidden", "order"))
            try:
                layers.append(FlowLayer(
                    m, kind, d=d, ddsf_dims=dims, hidden=hidden,
                    order=order, seed=0, name=f"layer{i}",
                ))
            except (TypeError, ValueError) as err:
                raise DataError(f"{where}: {err}") from None
        stack = cls(layers, base=_entry(doc, "base", "checkpoint"))
        by_name = {p.name: p for p in stack.parameters()}
        saved = _entry(doc, "params", "checkpoint")
        if set(saved) != set(by_name):
            missing = set(by_name) ^ set(saved)
            raise DataError(f"checkpoint parameter names mismatch: {sorted(missing)[:4]}")
        for name, entry in saved.items():
            where = f"checkpoint parameter {name}"
            data, shape = _entry(entry, "data", where), _entry(entry, "shape", where)
            try:
                arr = np.asarray(data, dtype=np.float64).reshape(shape)
            except (TypeError, ValueError):
                raise DataError(f"{where} is malformed") from None
            if arr.shape != by_name[name].data.shape:
                raise DataError(f"checkpoint shape mismatch for {name}")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"{where} has non-finite values")
            by_name[name].data = arr
        return stack

    @classmethod
    def load(cls, path: str) -> "FlowStack":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as err:
                raise DataError(f"unreadable checkpoint {path}: {err}") from None
        return cls.from_json(doc)


def _entry(doc, key, where):
    """doc[key] of a checkpoint mapping, or a DataError naming the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise DataError(f"{where} has no {key!r} entry")
    return doc[key]


def _integers(doc, key, where, many=False):
    """doc[key] of a checkpoint mapping that is an int, or with many a list of
    ints (as a tuple); else a DataError naming the key."""
    value = _entry(doc, key, where)
    items = value if many else [value]
    if not isinstance(items, list) or any(type(v) is not int for v in items):
        kind = "a list of integers" if many else "an integer"
        raise DataError(f"{where}: {key!r} must be {kind}, got {value!r}")
    return tuple(items) if many else value


def write_atomic(path: str, text: str):
    """Write via a temp file + rename so partial files never appear."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
