"""Minimal reverse-accumulation engine over small dense tensors.

A Value wraps a float64 ndarray of rank <= 3 plus enough provenance to
run exact reverse accumulation. Graphs are recorded dynamically, one per
loss evaluation, and become garbage as soon as the caller drops the root,
so training loops never retain per-step memory.

Every public function here (exp, log, sigmoid, softplus, logsumexp, ...)
also accepts plain ndarrays/floats and then computes in numpy without
recording anything. Model code is written once against this interface and
serves both the training path (Values) and the evaluation/inversion path
(arrays). The log-space kernels mirror stablemath bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import stablemath as sm
from .errors import DomainError, InconsistencyError, NumericError

_SUPPORTED_RANK = 3


def _as_data(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim > _SUPPORTED_RANK:
        raise DomainError(f"rank {a.ndim} exceeds supported rank {_SUPPORTED_RANK}")
    return a


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Value:
    """One node of a recorded computation."""

    __slots__ = ("data", "grad", "op", "parents", "_backward")

    # Make ndarray <op> Value defer to our reflected operators instead of
    # numpy building object arrays.
    __array_ufunc__ = None

    def __init__(self, data, op: str = "leaf", parents: tuple = ()):
        self.data = _as_data(data)
        self.grad = None
        self.op = op
        self.parents = parents
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Value(op={self.op!r}, shape={self.data.shape})"

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return vsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return vmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)


class Parameter(Value):
    """A named trainable leaf; registered exactly once per model."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, op="param")
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _lift(x) -> Value:
    return x if isinstance(x, Value) else Value(x, op="const")


def is_value(x) -> bool:
    return isinstance(x, Value)


def _any_value(*xs) -> bool:
    return any(isinstance(x, Value) for x in xs)


# -- core binary/unary ops ---------------------------------------------


def add(a, b):
    if not _any_value(a, b):
        return np.asarray(a, dtype=np.float64) + np.asarray(b, dtype=np.float64)
    a, b = _lift(a), _lift(b)
    out = Value(a.data + b.data, "add", (a, b))

    def bw(g):
        a._accum(_unbroadcast(g, a.data.shape))
        b._accum(_unbroadcast(g, b.data.shape))

    out._backward = bw
    return out


def sub(a, b):
    if not _any_value(a, b):
        return np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    a, b = _lift(a), _lift(b)
    out = Value(a.data - b.data, "sub", (a, b))

    def bw(g):
        a._accum(_unbroadcast(g, a.data.shape))
        b._accum(_unbroadcast(-g, b.data.shape))

    out._backward = bw
    return out


def mul(a, b):
    if not _any_value(a, b):
        return np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)
    a, b = _lift(a), _lift(b)
    out = Value(a.data * b.data, "mul", (a, b))

    def bw(g):
        a._accum(_unbroadcast(g * b.data, a.data.shape))
        b._accum(_unbroadcast(g * a.data, b.data.shape))

    out._backward = bw
    return out


def div(a, b):
    if not _any_value(a, b):
        bd = np.asarray(b, dtype=np.float64)
        if np.any(bd == 0.0):
            raise NumericError("division by zero")
        return np.asarray(a, dtype=np.float64) / bd
    a, b = _lift(a), _lift(b)
    if np.any(b.data == 0.0):
        raise NumericError("division by zero")
    out = Value(a.data / b.data, "div", (a, b))

    def bw(g):
        a._accum(_unbroadcast(g / b.data, a.data.shape))
        b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    out._backward = bw
    return out


def neg(a):
    if not _any_value(a):
        return -np.asarray(a, dtype=np.float64)
    out = Value(-a.data, "neg", (a,))
    out._backward = lambda g: a._accum(-g)
    return out


def exp(a):
    if not _any_value(a):
        return np.exp(np.asarray(a, dtype=np.float64))
    data = np.exp(a.data)
    if not np.all(np.isfinite(data)):
        raise NumericError("exp overflow")
    out = Value(data, "exp", (a,))
    out._backward = lambda g: a._accum(g * out.data)
    return out


def log(a):
    if not _any_value(a):
        ad = np.asarray(a, dtype=np.float64)
        if np.any(ad <= 0.0):
            raise NumericError("log of a nonpositive value")
        return np.log(ad)
    if np.any(a.data <= 0.0):
        raise NumericError("log of a nonpositive value")
    out = Value(np.log(a.data), "log", (a,))
    out._backward = lambda g: a._accum(g / a.data)
    return out


def sigmoid(a):
    if not _any_value(a):
        return sm.sigmoid(a)
    s = sm.sigmoid(a.data)
    out = Value(s, "sigmoid", (a,))
    out._backward = lambda g: a._accum(g * out.data * (1.0 - out.data))
    return out


def tanh(a):
    if not _any_value(a):
        return np.tanh(np.asarray(a, dtype=np.float64))
    t = np.tanh(a.data)
    out = Value(t, "tanh", (a,))
    out._backward = lambda g: a._accum(g * (1.0 - out.data * out.data))
    return out


def softplus(a):
    """Stable log(1+exp(x)) + delta; gradient is sigmoid(x)."""
    if not _any_value(a):
        return sm.softplus(a)
    out = Value(sm.softplus(a.data), "softplus", (a,))
    out._backward = lambda g: a._accum(g * sm.sigmoid(a.data))
    return out


def relu(a):
    if not _any_value(a):
        return np.maximum(np.asarray(a, dtype=np.float64), 0.0)
    out = Value(np.maximum(a.data, 0.0), "relu", (a,))
    out._backward = lambda g: a._accum(g * (a.data > 0.0))
    return out


def sin(a):
    if not _any_value(a):
        return np.sin(np.asarray(a, dtype=np.float64))
    out = Value(np.sin(a.data), "sin", (a,))
    out._backward = lambda g: a._accum(g * np.cos(a.data))
    return out


def logsigmoid(a):
    """-softplus(-x); inherits the softplus delta."""
    return neg(softplus(neg(a))) if _any_value(a) else sm.logsigmoid(a)


def matmul(a, b):
    if not _any_value(a, b):
        return np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DomainError("matmul supports 2-D operands only")
    if a.data.shape[1] != b.data.shape[0]:
        raise DomainError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}"
        )
    out = Value(a.data @ b.data, "matmul", (a, b))

    def bw(g):
        a._accum(g @ b.data.T)
        b._accum(a.data.T @ g)

    out._backward = bw
    return out


# -- reductions ----------------------------------------------------------


def vsum(a, axis=None, keepdims=False):
    if not _any_value(a):
        return np.sum(np.asarray(a, dtype=np.float64), axis=axis, keepdims=keepdims)
    out = Value(np.sum(a.data, axis=axis, keepdims=keepdims), "sum", (a,))

    def bw(g):
        if axis is None:
            a._accum(np.broadcast_to(g, a.data.shape).astype(np.float64))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accum(np.broadcast_to(gg, a.data.shape).astype(np.float64))

    out._backward = bw
    return out


def vmean(a, axis=None, keepdims=False):
    if not _any_value(a):
        return np.mean(np.asarray(a, dtype=np.float64), axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.data.shape[axis]
    return vsum(a, axis=axis, keepdims=keepdims) / float(n)


def logsumexp(a, axis: int = -1, keepdims=False):
    """Stable logsumexp whose gradient is the softmax of the inputs."""
    if not _any_value(a):
        out = sm.logsumexp_over_axis(np.asarray(a, dtype=np.float64), axis)
        return np.expand_dims(out, axis) if keepdims else out
    data = sm.logsumexp_over_axis(a.data, axis)
    out = Value(np.expand_dims(data, axis) if keepdims else data, "logsumexp", (a,))

    def bw(g):
        ref = out.data if keepdims else np.expand_dims(out.data, axis)
        soft = np.exp(a.data - ref)
        gg = g if keepdims else np.expand_dims(g, axis)
        a._accum(gg * soft)

    out._backward = bw
    return out


def logsoftmax(a, axis: int = -1):
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


def log_matvec(log_m, v):
    """Log-space matrix-vector product: LSE_j(log_m[..., i, j] + v[..., j]).

    log_m: shared (rows, cols) or batched (n, rows, cols); v: (n, cols).
    Returns (n, rows). One node whose gradient is the softmax over j.
    """
    mid = tuple(v.shape[:-1]) + (1, v.shape[-1])
    if not _any_value(log_m, v):
        return sm.logsumexp_over_axis(add(log_m, reshape(v, mid)), -1)
    log_m, v = _lift(log_m), _lift(v)
    terms = log_m.data + v.data.reshape(mid)
    out = Value(sm.logsumexp_over_axis(terms, -1), "log_matvec", (log_m, v))

    def bw(g):
        gt = np.expand_dims(g, -1) * np.exp(terms - np.expand_dims(out.data, -1))
        log_m._accum(_unbroadcast(gt, log_m.data.shape))
        v._accum(_unbroadcast(gt, mid).reshape(v.data.shape))

    out._backward = bw
    return out


# -- shape ops -----------------------------------------------------------


def reshape(a, shape):
    if not _any_value(a):
        return np.asarray(a, dtype=np.float64).reshape(shape)
    out = Value(a.data.reshape(shape), "reshape", (a,))
    out._backward = lambda g: a._accum(g.reshape(a.data.shape))
    return out


def take(a, idx):
    """Basic indexing/slicing with scatter-add backward."""
    if not _any_value(a):
        return np.asarray(a, dtype=np.float64)[idx]
    out = Value(a.data[idx], "slice", (a,))

    def bw(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, idx, g)

    out._backward = bw
    return out


# -- graph execution -----------------------------------------------------


def backward(root: Value):
    """Reverse accumulation from a scalar root into every reachable leaf.

    Repeated calls accumulate into .grad; callers zero gradients between
    optimizer steps. Each pass propagates its own gradients in isolation
    (pre-existing .grad values are folded back in afterwards), so running
    the same graph twice exactly doubles every leaf gradient.
    """
    if not isinstance(root, Value):
        raise DomainError("backward requires a Value root")
    if root.data.size != 1:
        raise DomainError(f"backward requires a scalar root, got shape {root.shape}")

    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    prior = [node.grad for node in topo]
    for node in topo:
        node.grad = None

    root._accum(np.ones_like(root.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)

    for node, old in zip(topo, prior):
        if old is not None:
            node.grad = old if node.grad is None else node.grad + old


def zero_grad(params):
    for p in params:
        p.zero_grad()


def check_gradients(loss_fn, params, eps: float = 1e-5) -> float:
    """Max relative gap between reverse-mode and central finite differences.

    loss_fn must be deterministic: it is called repeatedly while single
    coordinates of the parameters are nudged by +-eps.
    """
    if not 1e-6 <= eps <= 1e-4:
        raise DomainError("eps must lie in [1e-6, 1e-4]")
    v1 = float(loss_fn().data)
    v2 = float(loss_fn().data)
    if v1 != v2:
        raise InconsistencyError(
            f"loss closure is not deterministic ({v1!r} != {v2!r})"
        )

    zero_grad(params)
    backward(loss_fn())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            f_plus = float(loss_fn().data)
            flat[i] = keep - eps
            f_minus = float(loss_fn().data)
            flat[i] = keep
            gn = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(gflat[i]), abs(gn), 1e-8)
            worst = max(worst, abs(gflat[i] - gn) / denom)
    zero_grad(params)
    return worst
