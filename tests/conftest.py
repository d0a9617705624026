import numpy as np
import pytest

from nafkit import transformer as tf
from nafkit.flow import FlowLayer, FlowStack


def constant_affine_stack(m, mu, s, kind="affine-exp", n_layers=1):
    """Stack whose conditioner outputs the constants (mu, s) everywhere."""
    layers = []
    natural = tuple(range(1, m + 1))
    for i in range(n_layers):
        order = natural if i % 2 == 0 else tuple(reversed(natural))
        layer = FlowLayer(m, kind, order=order, seed=0, name=f"layer{i}")
        for w in layer.conditioner.weights:
            w.data[:] = 0.0
        for b in layer.conditioner.biases:
            b.data[:] = 0.0
        layer.conditioner.biases[-1].data = np.tile([mu, s], m).astype(float)
        layers.append(layer)
    return FlowStack(layers)


def exact_identity_dsf_stack(m, d=16):
    """DSF stack with zeroed conditioner: pseudo-params are the offsets
    (w uniform, a = softplus(softplus_inv(1)), b = 0)."""
    layer = FlowLayer(m, "dsf", d=d, seed=0)
    for w in layer.conditioner.weights:
        w.data[:] = 0.0
    for b in layer.conditioner.biases:
        b.data[:] = 0.0
    return FlowStack([layer])


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def row_gradient_fd(fn, x, g, h=1e-6):
    """Central differences of sum(g * fn(x)) in x (n, dim), for an fn whose
    row i depends on x's row i alone: one pair of calls per column."""
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        step = np.zeros_like(x)
        step[:, j] = h
        out[:, j] = g * (fn(x + step) - fn(x - step)) / (2.0 * h)
    return out


def cwn_log(V, E, X):
    """log sum_j exp(V_ij + X_jn) from the ddsf kernel's CWN product: log P + m,
    and on its low entries, where P is NaN, the logsumexp that their weights
    exp(V_ij + X_jn - logsumexp) were normalized by, read from the largest."""
    (P, m), _, _, low = tf._cwn_product(V, E, X)
    out = np.log(P) + m
    if low is not None:
        idx, u = low
        t = V[idx[-2]] + tf._points_last(X, idx)
        j = np.argmax(u, axis=-1)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):  # zero weights, never the largest
            out[idx] = np.take_along_axis(t - np.log(u), j, axis=-1)[:, 0]
    return out
