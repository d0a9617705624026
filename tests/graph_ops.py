"""A small op-by-op reverse-mode tape: the oracle engine of the composite tests.

The library trains through its layers' hand adjoints and records no graph.
The composites that those adjoints are checked against build the same
transformers from elementary ops, one node each, and this engine
differentiates them.

Every op is one _op call with two functions of arrays: a forward, which
holds the op's domain guard, and a pure adjoint(g, out, *inputs) returning
one gradient per input. Fed only arrays or floats, an op returns the
forward's array; fed any node, it records one Node. A nafkit Parameter is
a leaf node, so the composites read a family's own parameters. Constants
are not nodes: an array or float operand is data and gets no gradient.
A forward whose adjoint needs more than the output returns a tuple
(output, *saved); the node holds the output and its adjoint receives the
whole tuple as `out`.

Lifetime: no backward closure holds its own node, only its parents, so a
graph has no reference cycle and is freed as soon as its root is dropped.
"""

import numpy as np

from nafkit import diffgraph as dg
from nafkit import stablemath as sm
from nafkit import transformer as tf
from nafkit.errors import DomainError, NumericError

_SUPPORTED_RANK = 3


def _as_data(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim > _SUPPORTED_RANK:
        raise DomainError(f"rank {a.ndim} exceeds supported rank {_SUPPORTED_RANK}")
    return a


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Node(dg.Value):
    """One recorded op, or a leaf; its backward maps g to [(parent, gradient)]."""

    __slots__ = ()
    __array_ufunc__ = None  # ndarray <op> Node defers to the reflected operators

    def __init__(self, data, parents=(), backward=None):
        super().__init__(_as_data(data), parents, backward)

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

    def __neg__(self):
        return neg(self)

    def __getitem__(self, idx):
        return take(self, idx)


def _is_node(x):
    return isinstance(x, dg.Value)


def _op(forward, adjoint, *args):
    """Apply one primitive to arrays, or record it when an input is a node."""
    if not any(_is_node(a) for a in args):
        out = forward(*(np.asarray(a, dtype=np.float64) for a in args))
        return out[0] if isinstance(out, tuple) else out
    ins = tuple(a.data if _is_node(a) else np.asarray(a, dtype=np.float64) for a in args)
    out = forward(*ins)
    live = tuple((i, a) for i, a in enumerate(args) if _is_node(a))

    def bw(g):
        grads = adjoint(g, out, *ins)
        return [(p, _unbroadcast(grads[i], p.data.shape)) for i, p in live]

    return Node(out[0] if isinstance(out, tuple) else out, tuple(p for _, p in live), bw)


def _walk(root):
    """Every node reachable from root, parents before children."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents)
    return order


def _leaf_grads(root):
    """{id(leaf): gradient} of a scalar root, for every leaf it reaches."""
    if root.data.size != 1:
        raise DomainError(f"backward requires a scalar root, got shape {root.shape}")
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(_walk(root)):
        if node._backward is not None:
            for p, g in node._backward(grads.pop(id(node))):
                grads[id(p)] = g if id(p) not in grads else grads[id(p)] + g
    return grads


def backward(root):
    """Add the gradient of the scalar root into the .grad of every leaf it reaches."""
    grads = _leaf_grads(root)
    for leaf in _walk(root):
        if leaf._backward is None:
            g = grads[id(leaf)]
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def root(node):
    """node as a nafkit loss root over its leaves, for dg.backward and dg.check_gradients."""
    leaves = [n for n in _walk(node) if n._backward is None]

    def grads():
        by_leaf = _leaf_grads(node)
        return [by_leaf[id(leaf)] for leaf in leaves]

    return dg.Value(node.data, leaves, grads)


# -- elementwise ops -----------------------------------------------------


def add(a, b):
    return _op(np.add, lambda g, out, a, b: (g, g), a, b)


def sub(a, b):
    return _op(np.subtract, lambda g, out, a, b: (g, -g), a, b)


def mul(a, b):
    return _op(np.multiply, lambda g, out, a, b: (g * b, g * a), a, b)


def neg(a):
    return _op(np.negative, lambda g, out, a: (-g,), a)


def _positive(a):
    if np.any(a <= 0.0):
        raise NumericError("log of a nonpositive value")
    return a


def exp(a):
    return _op(tf._finite_exp, lambda g, out, a: (g * out,), a)


def log(a):
    return _op(lambda a: np.log(_positive(a)), lambda g, out, a: (g / a,), a)


def softplus(a):
    """Stable log(1+exp(x)) + delta; gradient is sigmoid(x)."""
    return _op(sm.softplus, lambda g, out, a: (g * sm.sigmoid(a),), a)


def logsigmoid(a):
    """-softplus(-x); inherits the softplus delta."""
    return neg(softplus(neg(a)))


# -- reductions ----------------------------------------------------------


def _keep(g, axis, keepdims):
    """g with the reduced axis restored, ready to broadcast over the input."""
    return g if keepdims else np.expand_dims(g, axis)


def vsum(a, axis=None, keepdims=False):
    def adjoint(g, out, a):
        gg = g if axis is None else _keep(g, axis, keepdims)
        return (np.broadcast_to(gg, a.shape).astype(np.float64),)

    return _op(lambda a: np.sum(a, axis=axis, keepdims=keepdims), adjoint, a)


def logsumexp(a, axis: int = -1, keepdims=False):
    """Stable logsumexp whose gradient is the softmax of the inputs."""
    def forward(a):
        out = sm.logsumexp_over_axis(a, axis)
        return np.expand_dims(out, axis) if keepdims else out

    def adjoint(g, out, a):
        return (_keep(g, axis, keepdims) * np.exp(a - _keep(out, axis, keepdims)),)

    return _op(forward, adjoint, a)


def logsoftmax(a, axis: int = -1):
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


def log_dot_exp(mat, v):
    """log(mat @ exp(v)) per column of v (cols, n) for a nonnegative mat, as one
    op built from the kernels' helpers: the max-shifted product with one log
    per entry, and the logsumexp of log mat + v on an entry below _log_sum's
    floor. Its gradients are exp(v_j - out_i) for mat and mat_ij exp(v_j - out_i)
    for v."""
    def forward(mat, v):
        e, m = tf._shifted_exp(v)
        out, _ = tf._log_sum(mat @ e, m,
                             lambda idx: np.log(mat[idx[-2]]) + tf._points_last(v, idx))
        return out, e, m

    def adjoint(g, out, mat, v):
        out, e, m = out
        s = g * np.exp(m - out)
        return tf._outer_sum(s, e), e * (mat.T @ s)

    return _op(forward, adjoint, mat, v)


# -- shape ops -----------------------------------------------------------


def reshape(a, shape):
    return _op(lambda a: a.reshape(shape), lambda g, out, a: (g.reshape(a.shape),), a)


def take(a, idx):
    """Basic indexing and slicing. A recorded take admits basic indices only:
    an array or list index may repeat an entry, which the scatter would count once."""
    if not _is_node(a):
        return np.asarray(a, dtype=np.float64)[idx]
    parts = idx if isinstance(idx, tuple) else (idx,)
    if any(isinstance(p, (list, tuple, np.ndarray)) for p in parts):
        raise DomainError(f"take records basic indices only, got {idx!r}")

    def bw(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return [(a, full)]

    return Node(a.data[idx], (a,), bw)


# -- nafkit's own adjoints as ops ------------------------------------------


def family_op(fam, x, block):
    """fam's kernel and hand adjoint as one op over x (B,), block (width, B) and
    fam.params, holding (y, logdet) stacked as (2, B)."""
    def forward(x, block, *_):
        p = fam.decode(block)
        y, ld, saved = fam.core(x, p)
        return np.stack([y, ld]), p, saved

    def adjoint(g, out, x, block, *_):
        return fam.adjoint(g[0], g[1], x, block, out[1], out[2])

    return _op(forward, adjoint, x, block, *fam.params)


def layer_op(layer, x, *values):
    """A FlowLayer's training pass, forward_saved then adjoint, as one op over
    x (n, m) and its parameters, whose data are set to values if given:
    (y, logdet), as takes of the op's [y | logdet]."""
    params = layer.parameters()
    m = layer.m

    def forward(x, *vals):
        for p, v in zip(params, vals):
            p.data = v
        y, ld, saved = layer.forward_saved(x)
        return np.column_stack([y, ld]), saved

    def adjoint(g, out, *_):
        g_x, grads = layer.adjoint(g[:, :m], g[:, m], out[1])
        return (g_x, *grads)

    node = _op(forward, adjoint, x, *(values or params))
    return node[:, :m], node[:, m]
