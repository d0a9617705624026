"""Autoregressive flow layers, stacking, densities, and sampling.

A layer pairs one masked conditioner with one transformer family; its
Jacobian is triangular in the layer's variable order, so the layer
log-determinant is the sum of per-dimension scalar log-derivatives.
Stacks alternate natural and reversed orders. One forward implementation
serves both directions: data -> noise for density estimation and
noise -> sample for energy fitting; only the interpretation differs.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from . import diffgraph as dg
from . import transformer as tf
from .conditioner import MadeConditioner
from .errors import DataError, DomainError, NumericError

LOG_2PI = float(np.log(2.0 * np.pi))


class StandardNormal:
    """Isotropic unit Gaussian base distribution."""

    name = "normal"

    def __init__(self, m: int):
        self.m = int(m)

    def log_prob(self, x):
        return dg.vsum(dg.mul(x, x), axis=1) * (-0.5) - 0.5 * self.m * LOG_2PI

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((n, self.m))


class UniformBase:
    """Uniform base over the open unit cube; used by universality demos."""

    name = "uniform"

    def __init__(self, m: int):
        self.m = int(m)

    def log_prob(self, x):
        if dg.is_value(x):
            return np.zeros(x.shape[0])  # a constant, so no graph node
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(x.shape[0])
        out[np.any((x <= 0.0) | (x >= 1.0), axis=1)] = -np.inf
        return out

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
        """x: (n, m) -> (y (n, m), logdet (n,)); graph iff x is a Value."""
        blocks = self.conditioner.forward(x)  # (n, m, width)
        n = x.shape[0]
        B = n * self.m
        blocks = dg.reshape(blocks, (B, self.family.width))
        try:
            y, ld = self.family.forward(dg.reshape(x, (B,)), blocks)
        except NumericError as err:
            if err.index is None:
                raise
            # the flat layout is (batch point, dimension) row-major
            raise self._located(err, *divmod(err.index, self.m)) from None
        return dg.reshape(y, (n, self.m)), dg.vsum(dg.reshape(ld, (n, self.m)), axis=1)

    # -- inverse ---------------------------------------------------------

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """Recover x with f(x) = y, one dimension per conditioner pass.

        Proceeds in the layer's degree order so each transformer's
        pseudo-parameters are functions of already-recovered coordinates.
        """
        y = np.asarray(y, dtype=np.float64)
        x = np.zeros_like(y)
        for deg in range(1, self.m + 1):
            i = self.order.index(deg)
            blocks = self.conditioner.forward(x)
            try:
                x[:, i] = self.family.inverse(y[:, i], blocks[:, i, :])
            except NumericError as err:
                if err.index is None:
                    raise
                raise self._located(err, err.index, i) from None
        return x

    def _located(self, err, point, dim):
        """err, its message prefixed with this layer, dimension and batch point."""
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
        m = _entry(doc, "m", "checkpoint")
        layers = []
        for i, spec in enumerate(_entry(doc, "layers", "checkpoint")):
            where = f"checkpoint layer {i}"
            kind, d, dims, hidden, order = (
                _entry(spec, key, where) for key in ("kind", "d", "dims", "hidden", "order")
            )
            try:
                layers.append(FlowLayer(
                    m, kind, d=d, ddsf_dims=dims, hidden=tuple(hidden),
                    order=tuple(order), seed=0, name=f"layer{i}",
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
