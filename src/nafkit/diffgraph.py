"""Minimal reverse-accumulation engine over small dense tensors.

A Value wraps a float64 ndarray of rank <= 3 plus the provenance exact
reverse accumulation needs; graphs are recorded dynamically, one per loss.

Every primitive is one _op call with two functions of arrays: a forward,
which holds the op's domain guard, and a pure adjoint(g, out, *inputs)
returning one gradient per input. Fed only ndarrays/floats, an op returns
the forward's array; fed any Value, it records one node. Model code is
thus written once for the training path (Values) and the evaluation and
inversion path (arrays), which raise the same typed errors. logsumexp
mirrors stablemath bit for bit; log_dot_exp forms log(M @ exp(v)) as a
max-shifted product, as accurate as the logsumexp of log M + v but not
bit-identical to it.

Constants are not nodes: an ndarray or float operand of a recorded op is
read as data, is no parent and gets no gradient. Saved arrays: a forward
whose adjoint needs more than the output returns a tuple (output, *saved)
instead; the node holds the output and its adjoint receives the whole
tuple as `out`. That is the only way an adjoint sees forward state.

Gradients: a node's first incoming gradient is stored as is, so it may
share its array with another node's gradient; it is written in place only
once the node owns it (a later sum, or a buffer take allocated).

Lifetime: no backward closure holds a node other than its parents, so
graphs have no reference cycle and are freed as soon as the caller drops
the root, whatever the cyclic garbage collector does.
"""

from __future__ import annotations

import numpy as np

from . import stablemath as sm
from .errors import DomainError, InconsistencyError, NumericError

_SUPPORTED_RANK = 3
_TINY = np.finfo(np.float64).tiny  # smallest normal float64


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

    __slots__ = ("data", "grad", "op", "parents", "_backward", "_owned")

    # Make ndarray <op> Value defer to our reflected operators instead of
    # numpy building object arrays.
    __array_ufunc__ = None

    def __init__(self, data, op: str = "leaf", parents: tuple = ()):
        self.data = _as_data(data)
        self.grad = None
        self.op = op
        self.parents = parents
        self._backward = None
        self._owned = False  # whether grad is this node's own buffer

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            self.grad, self._owned = g, False
        elif self._owned:
            self.grad += g
        else:
            self.grad, self._owned = self.grad + g, True

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


def is_value(x) -> bool:
    return isinstance(x, Value)


def _any_value(*xs) -> bool:
    return any(isinstance(x, Value) for x in xs)


def _op(name: str, forward, adjoint, *args):
    """Apply one primitive to arrays, or record it when an input is a Value.

    forward(*arrays) returns the output array, or (output, *saved) for an
    adjoint that reads forward intermediates. adjoint(g, out, *arrays),
    with out what the forward returned, gives one gradient per input; it
    sees arrays only, so the recorded closure holds the parents and their
    data but never its own node. Only Value inputs become parents; the
    gradients for the other inputs are dropped.
    """
    if not _any_value(*args):
        out = forward(*(np.asarray(a, dtype=np.float64) for a in args))
        return out[0] if isinstance(out, tuple) else out
    ins = tuple(a.data if isinstance(a, Value) else np.asarray(a, dtype=np.float64)
                for a in args)
    out = forward(*ins)
    live = tuple((i, a) for i, a in enumerate(args) if isinstance(a, Value))
    node = Value(out[0] if isinstance(out, tuple) else out, name,
                 tuple(a for _, a in live))

    def bw(g):
        grads = adjoint(g, out, *ins)
        for i, p in live:
            p._accum(_unbroadcast(grads[i], p.data.shape))

    node._backward = bw
    return node


def _nonzero(b):
    if np.any(b == 0.0):
        raise NumericError("division by zero")
    return b


def _positive(a):
    if np.any(a <= 0.0):
        raise NumericError("log of a nonpositive value")
    return a


def _finite_exp(a):
    with np.errstate(over="ignore"):  # overflow is raised below, typed
        out = np.exp(a)
    if not np.all(np.isfinite(out)):
        raise NumericError("exp overflow")
    return out


def _matmul2d(a, b):
    if a.ndim != 2 or b.ndim != 2:
        raise DomainError("matmul supports 2-D operands only")
    if a.shape[1] != b.shape[0]:
        raise DomainError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    return a @ b


# -- elementwise ops -----------------------------------------------------


def add(a, b):
    return _op("add", np.add, lambda g, out, a, b: (g, g), a, b)


def sub(a, b):
    return _op("sub", np.subtract, lambda g, out, a, b: (g, -g), a, b)


def mul(a, b):
    return _op("mul", np.multiply, lambda g, out, a, b: (g * b, g * a), a, b)


def div(a, b):
    return _op("div", lambda a, b: a / _nonzero(b),
               lambda g, out, a, b: (g / b, -g * a / (b * b)), a, b)


def neg(a):
    return _op("neg", np.negative, lambda g, out, a: (-g,), a)


def exp(a):
    return _op("exp", _finite_exp, lambda g, out, a: (g * out,), a)


def log(a):
    return _op("log", lambda a: np.log(_positive(a)), lambda g, out, a: (g / a,), a)


def sigmoid(a):
    return _op("sigmoid", sm.sigmoid, lambda g, out, a: (g * out * (1.0 - out),), a)


def tanh(a):
    return _op("tanh", np.tanh, lambda g, out, a: (g * (1.0 - out * out),), a)


def softplus(a):
    """Stable log(1+exp(x)) + delta; gradient is sigmoid(x)."""
    return _op("softplus", sm.softplus, lambda g, out, a: (g * sm.sigmoid(a),), a)


def relu(a):
    return _op("relu", lambda a: np.maximum(a, 0.0), lambda g, out, a: (g * (a > 0.0),), a)


def sin(a):
    return _op("sin", np.sin, lambda g, out, a: (g * np.cos(a),), a)


def logsigmoid(a):
    """-softplus(-x); inherits the softplus delta."""
    return neg(softplus(neg(a))) if _any_value(a) else sm.logsigmoid(a)


def matmul(a, b):
    return _op("matmul", _matmul2d, lambda g, out, a, b: (g @ b.T, a.T @ g), a, b)


# -- reductions ----------------------------------------------------------


def _keep(g, axis, keepdims):
    """g with the reduced axis restored, ready to broadcast over the input."""
    return g if keepdims else np.expand_dims(g, axis)


def vsum(a, axis=None, keepdims=False):
    def adjoint(g, out, a):
        gg = g if axis is None else _keep(g, axis, keepdims)
        return (np.broadcast_to(gg, a.shape).astype(np.float64),)

    return _op("sum", lambda a: np.sum(a, axis=axis, keepdims=keepdims), adjoint, a)


def vmean(a, axis=None, keepdims=False):
    if not _any_value(a):
        return np.mean(np.asarray(a, dtype=np.float64), axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.data.shape[axis]
    return vsum(a, axis=axis, keepdims=keepdims) / float(n)


def logsumexp(a, axis: int = -1, keepdims=False):
    """Stable logsumexp whose gradient is the softmax of the inputs."""
    def forward(a):
        out = sm.logsumexp_over_axis(a, axis)
        return np.expand_dims(out, axis) if keepdims else out

    def adjoint(g, out, a):
        return (_keep(g, axis, keepdims) * np.exp(a - _keep(out, axis, keepdims)),)

    return _op("logsumexp", forward, adjoint, a)


def logsoftmax(a, axis: int = -1):
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


def _matvec(mat, v):
    """Row-wise mat @ v[n]: mat shared (rows, cols) or batched (n, rows, cols)."""
    if mat.ndim == 2:
        return v @ mat.T
    return np.matmul(mat, v[..., None])[..., 0]


def _matvec_grads(g, mat, v):
    """Gradients of _matvec(mat, v) for the upstream g: (d mat, d v)."""
    if mat.ndim == 2:
        return g.T @ v, g @ mat
    return g[..., :, None] * v[..., None, :], np.matmul(g[..., None, :], mat)[..., 0, :]


def matvec(mat, v):
    """Row-wise matrix-vector product; mat (rows, cols) or (n, rows, cols), v (n, cols)."""
    return _op("matvec", _matvec, lambda g, out, mat, v: _matvec_grads(g, mat, v), mat, v)


def _shifted_exp(v):
    """exp(v - m) and the row max m, with non-finite maxima taken as 0."""
    m = np.max(v, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.exp(v - m), m


def log_dot_exp(mat, v):
    """log(mat @ exp(v)) per row for a nonnegative mat, shaped as in matvec.

    The max-shifted product log(mat @ exp(v - m)) + m is one BLAS or
    batched product. A row whose shifted product falls below the smallest
    normal float (mat ~0 where v peaks) is recomputed as the logsumexp of
    log(mat) + v, so it keeps full precision, and only a structural zero
    comes back as -inf. The gradient is exp(v_j - out_i) for mat and
    mat_ij exp(v_j - out_i) for v; one that overflows is a NumericError.
    """
    def forward(mat, v):
        if np.any(mat < 0.0):
            raise NumericError("log_dot_exp of a negative matrix entry")
        e, m = _shifted_exp(v)
        p = _matvec(mat, e)
        low = ~(p >= _TINY)
        with np.errstate(divide="ignore"):
            out = np.log(p) + m
            if low.any():
                n, i = np.nonzero(low)
                rows = mat[i] if mat.ndim == 2 else mat[n, i]
                out[low] = sm.logsumexp_over_axis(np.log(rows) + v[n], -1)
        return out

    def adjoint(g, out, mat, v):
        e, m = _shifted_exp(v)
        with np.errstate(over="ignore", invalid="ignore"):
            s = g * np.exp(m - out)
        bad = ~np.isfinite(s)
        if bad.any():
            n = int(np.argmax(bad.any(axis=-1)))
            raise NumericError(f"log_dot_exp gradient overflows at row {n}", index=n)
        g_mat, g_lin = _matvec_grads(s, mat, e)
        return g_mat, e * g_lin

    return _op("log_dot_exp", forward, adjoint, mat, v)


# -- shape ops -----------------------------------------------------------


def reshape(a, shape):
    return _op("reshape", lambda a: a.reshape(shape),
               lambda g, out, a: (g.reshape(a.shape),), a)


def _advanced_index(idx) -> bool:
    """Whether idx holds an array or sequence, which numpy reads as advanced."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return any(isinstance(p, (list, tuple, np.ndarray)) for p in parts)


def take(a, idx):
    """Basic indexing/slicing; backward adds into the parent's gradient in place.

    A recorded take admits basic indices only: an array or list index may
    repeat an entry, which an in-place add would count once.
    """
    if not _any_value(a):
        return np.asarray(a, dtype=np.float64)[idx]
    if _advanced_index(idx):
        raise DomainError(f"take records basic indices only, got {idx!r}")
    out = Value(a.data[idx], "slice", (a,))

    def bw(g):
        if a.grad is None:
            a.grad, a._owned = np.zeros_like(a.data), True
        elif not a._owned:
            a.grad, a._owned = np.array(a.grad, dtype=np.float64), True
        a.grad[idx] += g

    out._backward = bw
    return out


# -- graph execution -----------------------------------------------------


def backward(root: Value):
    """Reverse accumulation from a scalar root into every reachable leaf.

    Repeated calls accumulate into .grad; callers zero gradients between
    optimizer steps. Each pass propagates its own gradients in isolation
    (pre-existing .grad values are folded back in afterwards), so running
    the same graph twice exactly doubles every leaf gradient. A .grad may
    share its array with another node's, so callers rescale it out of place.
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
