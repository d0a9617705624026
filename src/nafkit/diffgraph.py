"""Trainable parameters, loss roots, and the finite-difference gradient check.

No graph is recorded. A loss is a Value whose parents are the parameters
it depends on and whose backward function returns one gradient per
parent, computed by a fixed reverse sweep (see training.mle_loss and
flow.FlowStack.adjoint): every flow layer's numpy kernel carries its own
hand adjoint, so the sweep runs the layers back to front once.
backward(root) runs that function and adds each gradient into its
parent's .grad.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InconsistencyError


class Value:
    """A float64 array with a .grad: a loss root, or (as Parameter) a leaf.

    A root's backward() returns one gradient array per parent.
    """

    __slots__ = ("data", "grad", "parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"{type(self).__name__}(shape={self.data.shape})"


class Parameter(Value):
    """A named trainable leaf; registered exactly once per model."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def backward(root: Value):
    """Add the gradient of the scalar root into every parent's .grad.

    Repeated calls accumulate; callers zero gradients between optimizer
    steps. A .grad may share its array with another parameter's, so callers
    rescale it out of place.
    """
    if not isinstance(root, Value) or root._backward is None:
        raise DomainError("backward requires a loss root")
    if root.data.size != 1:
        raise DomainError(f"backward requires a scalar root, got shape {root.shape}")
    for p, g in zip(root.parents, root._backward()):
        p.grad = g if p.grad is None else p.grad + g
    root.grad = np.ones_like(root.data)


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
