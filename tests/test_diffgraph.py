import gc
import math
import warnings
import weakref
import zlib

import numpy as np
import pytest

from nafkit import diffgraph as dg
from nafkit import stablemath as sm
from nafkit.errors import DomainError, InconsistencyError, NumericError


def grad_of(expr_fn, *leaf_values):
    """Build expr from fresh leaves, backprop, return leaf gradients."""
    leaves = [dg.Value(v) for v in leaf_values]
    out = expr_fn(*leaves)
    dg.backward(out)
    return [l.grad for l in leaves]


class TestRecord:
    def test_add(self):
        out = dg.add(dg.Value(2.0), dg.Value(3.0))
        assert float(out.data) == 5.0

    def test_sigmoid(self):
        out = dg.sigmoid(dg.Value(0.0))
        assert float(out.data) == pytest.approx(0.5)

    def test_logsumexp_matches_stablemath(self):
        v = np.array([[0.0, math.log(3.0)]])
        out = dg.logsumexp(dg.Value(v), axis=1)
        assert float(out.data[0]) == pytest.approx(sm.logsumexp(v[0]), abs=1e-12)

    def test_every_spec_kind_is_recordable(self):
        a = dg.Value(np.array([[1.0, 2.0], [3.0, 4.0]]))
        outs = [dg.add(a, a), dg.sub(a, a), dg.mul(a, a), dg.div(a, a), dg.neg(a),
                dg.exp(a), dg.log(a), dg.sigmoid(a), dg.tanh(a), dg.matmul(a, a),
                dg.vsum(a), dg.vmean(a), dg.logsumexp(a, axis=0), dg.softplus(a),
                dg.reshape(a, (4,)), dg.take(a, (slice(None), 0)),
                dg.log_dot_exp(dg.exp(a), a), dg.matvec(a, a)]
        assert all(isinstance(out, dg.Value) for out in outs)

    # Each guard runs on both paths: recorded Values and plain arrays.

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            dg.matmul(dg.Value(np.ones((2, 3))), dg.Value(np.ones((2, 2))))
        with pytest.raises(DomainError):
            dg.matmul(np.ones((2, 3)), np.ones((2, 2)))

    def test_log_pole_rejected(self):
        with pytest.raises(NumericError):
            dg.log(dg.Value(0.0))
        with pytest.raises(NumericError):
            dg.log(np.array([1.0, 0.0]))

    def test_div_pole_rejected(self):
        with pytest.raises(NumericError):
            dg.div(dg.Value(1.0), dg.Value(0.0))
        with pytest.raises(NumericError):
            dg.div(np.array([1.0]), np.array([0.0]))

    def test_exp_overflow_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the typed error, not a RuntimeWarning
            with pytest.raises(NumericError):
                dg.exp(dg.Value(np.array([1000.0])))
            with pytest.raises(NumericError):
                dg.exp(np.array([1000.0]))


OWN_OUTPUT_OPS = [
    ("exp", dg.exp),
    ("sigmoid", dg.sigmoid),
    ("tanh", dg.tanh),
    ("logsumexp", lambda a: dg.logsumexp(a, axis=0)),
    ("log_dot_exp", lambda a: dg.log_dot_exp(dg.exp(a), a)),
]


class TestLifetime:
    """A graph is freed by reference counting alone, with no cycle for the
    cyclic collector to find, even for ops whose adjoint reads their output."""

    @pytest.mark.parametrize("op", [c[1] for c in OWN_OUTPUT_OPS],
                             ids=[c[0] for c in OWN_OUTPUT_OPS])
    def test_graph_freed_when_root_dropped(self, op):
        p = dg.Parameter(np.array([[0.1, -0.2], [0.3, 0.4]]), "p")
        gc.disable()
        try:
            node = op(p)
            data = weakref.ref(node.data)
            loss = dg.vsum(node)
            dg.backward(loss)
            del loss, node
            assert data() is None
        finally:
            gc.enable()
        assert p.grad is not None


class TestBackward:
    def test_power_rule(self):
        (g,) = grad_of(lambda p: p * p, 3.0)
        assert float(g) == pytest.approx(6.0)

    def test_sigmoid_slope_at_zero(self):
        (g,) = grad_of(dg.sigmoid, 0.0)
        assert float(g) == pytest.approx(0.25)

    def test_logsumexp_softmax_gradient(self):
        # analytic softmax of (0, ln 3) is (0.25, 0.75)
        v = dg.Value(np.array([0.0, math.log(3.0)]))
        out = dg.logsumexp(v, axis=0)
        dg.backward(out)
        np.testing.assert_allclose(v.grad, [0.25, 0.75], atol=1e-12)

    def test_scalar_root_required(self):
        v = dg.Value(np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            dg.backward(v + v)

    def test_accumulation_until_zeroed(self):
        p = dg.Parameter(2.0, "p")
        out = p * p
        dg.backward(out)
        first = float(p.grad)
        dg.backward(out)
        assert float(p.grad) == pytest.approx(2 * first)
        p.zero_grad()
        dg.backward(p * p)
        assert float(p.grad) == pytest.approx(first)

    def test_unreachable_parameter_gets_no_gradient(self):
        p = dg.Parameter(1.0, "p")
        q = dg.Parameter(1.0, "q")
        dg.backward(p * 2.0)
        assert q.grad is None  # treated as zero by the optimizer

    def test_sum_of_losses_is_linear(self):
        p = dg.Parameter(np.array([1.0, -2.0, 0.5]), "p")
        l1 = dg.vsum(p * p)
        l2 = dg.vsum(dg.sigmoid(p))
        dg.backward(dg.add(l1, l2))
        combined = p.grad.copy()
        p.zero_grad()
        dg.backward(dg.vsum(p * p))
        g1 = p.grad.copy()
        p.zero_grad()
        dg.backward(dg.vsum(dg.sigmoid(p)))
        g2 = p.grad.copy()
        np.testing.assert_allclose(combined, g1 + g2, atol=1e-12)

    def test_repeat_run_bit_identical(self):
        rng = np.random.default_rng(0)
        p = dg.Parameter(rng.normal(size=(3, 3)), "p")
        x = rng.normal(size=(2, 3))

        def loss():
            return dg.vmean(dg.tanh(dg.matmul(dg.Value(x), p)))

        dg.zero_grad([p])
        dg.backward(loss())
        g1 = p.grad.copy()
        dg.zero_grad([p])
        dg.backward(loss())
        assert np.array_equal(g1, p.grad)


OPS_FD_CASES = [
    ("add", lambda a, b: a + b, 2),
    ("sub", lambda a, b: a - b, 2),
    ("mul", lambda a, b: a * b, 2),
    ("div", lambda a, b: a / (b + 4.0), 2),
    ("neg", lambda a: -a, 1),
    ("exp", dg.exp, 1),
    ("log", lambda a: dg.log(a + 4.0), 1),
    ("sigmoid", dg.sigmoid, 1),
    ("tanh", dg.tanh, 1),
    ("softplus", dg.softplus, 1),
    ("relu", lambda a: dg.relu(a + 0.1), 1),
    ("sin", dg.sin, 1),
    ("logsumexp", lambda a: dg.logsumexp(a, axis=0, keepdims=True), 1),
    ("logsoftmax", lambda a: dg.logsoftmax(a, axis=0), 1),
    ("mean", lambda a: dg.vmean(a, axis=0, keepdims=True), 1),
    ("matmul", lambda a, b: dg.matmul(dg.reshape(a, (1, 3)), dg.reshape(b, (3, 1))), 2),
    ("reshape", lambda a: dg.reshape(a, (3, 1)), 1),
    ("slice", lambda a: a[(slice(0, 2),)], 1),
    ("log_dot_exp", lambda a, b: dg.log_dot_exp(
        dg.exp(dg.reshape(a, (1, 3)) + np.array([[0.0], [0.5]])), dg.reshape(b, (1, 3))), 2),
    ("log_dot_exp-3d", lambda a, b: dg.log_dot_exp(
        dg.exp(dg.reshape(a, (1, 1, 3))), dg.reshape(b, (1, 3))), 2),
    ("matvec", lambda a, b: dg.matvec(
        dg.reshape(a, (1, 3)) + np.array([[0.0], [0.5]]), dg.reshape(b, (1, 3))), 2),
    ("matvec-3d", lambda a, b: dg.matvec(
        dg.reshape(a, (1, 1, 3)), dg.reshape(b, (1, 3))), 2),
]


class TestFiniteDifferencesPerOp:
    """Every op-kind within 1e-4 of central differences on 100 random
    instances with data in [-3, 3], drawn from a seed that is a stable
    function of the op's name (str hashes vary per process)."""

    @pytest.mark.parametrize("name,fn,arity", OPS_FD_CASES, ids=[c[0] for c in OPS_FD_CASES])
    def test_op_matches_central_differences(self, name, fn, arity):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for trial in range(100):
            vals = [rng.uniform(-3, 3, size=3) for _ in range(arity)]
            params = [dg.Parameter(v, f"p{i}") for i, v in enumerate(vals)]
            out_shape = np.shape(fn(*[p.data for p in params]))
            w = rng.normal(size=out_shape)

            def loss():
                return dg.vsum(dg.mul(fn(*params), w))

            dev = dg.check_gradients(loss, params, eps=1e-5)
            assert dev < 1e-4, f"{name} trial {trial}: deviation {dev:.2e}"


class TestMatmulShapes:
    def test_matmul_gradients(self):
        rng = np.random.default_rng(9)
        a = dg.Value(rng.normal(size=(2, 3)))
        b = dg.Value(rng.normal(size=(3, 4)))
        w = rng.normal(size=(2, 4))
        out = dg.vsum(dg.mul(dg.matmul(a, b), w))
        dg.backward(out)
        np.testing.assert_allclose(a.grad, w @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ w, atol=1e-12)

    def test_slice_scatter(self):
        a = dg.Value(np.arange(6.0).reshape(2, 3))
        out = dg.vsum(a[(slice(None), 1)])
        dg.backward(out)
        np.testing.assert_allclose(a.grad, [[0, 1, 0], [0, 1, 0]])

    def test_rank_cap(self):
        with pytest.raises(DomainError):
            dg.Value(np.zeros((2, 2, 2, 2)))


class TestCheckGradients:
    def test_quadratic(self):
        p = dg.Parameter(np.array([1.0, -2.0, 0.5]), "p")
        dev = dg.check_gradients(lambda: dg.vsum(p * p), [p], eps=1e-5)
        assert dev < 1e-7

    def test_nondeterministic_closure_rejected(self):
        p = dg.Parameter(1.0, "p")
        state = {"k": 0.0}

        def wobbly():
            state["k"] += 1.0
            return p * state["k"]

        with pytest.raises(InconsistencyError):
            dg.check_gradients(wobbly, [p], eps=1e-5)

    def test_eps_domain(self):
        p = dg.Parameter(1.0, "p")
        with pytest.raises(DomainError):
            dg.check_gradients(lambda: p * p, [p], eps=1e-3)
