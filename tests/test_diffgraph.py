import gc
import math
import warnings
import weakref
import zlib

import numpy as np
import pytest

import graph_ops as go
from nafkit import diffgraph as dg
from nafkit import stablemath as sm
from nafkit import transformer as tf
from nafkit.errors import DomainError, InconsistencyError, NumericError
from nafkit.flow import FlowLayer, FlowStack
from nafkit.training import mle_loss


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

    def test_logsumexp_matches_stablemath(self):
        v = np.array([[0.0, math.log(3.0)]])
        out = dg.logsumexp(dg.Value(v), axis=1)
        assert float(out.data[0]) == pytest.approx(sm.logsumexp(v[0]), abs=1e-12)

    def test_every_spec_kind_is_recordable(self):
        a = dg.Value(np.array([[1.0, 2.0], [3.0, 4.0]]))
        outs = [dg.add(a, a), dg.sub(a, a), dg.mul(a, a), dg.div(a, a), dg.neg(a),
                go.exp(a), go.log(a),
                dg.vsum(a), dg.vmean(a), dg.logsumexp(a, axis=0), go.softplus(a),
                dg.reshape(a, (4,)), dg.take(a, (slice(None), 0)),
                dg.log_dot_exp(go.exp(a), a)]
        assert all(isinstance(out, dg.Value) for out in outs)

    # Each guard runs on both paths: recorded Values and plain arrays.

    def test_log_pole_rejected(self):
        with pytest.raises(NumericError):
            go.log(dg.Value(0.0))
        with pytest.raises(NumericError):
            go.log(np.array([1.0, 0.0]))

    def test_div_pole_rejected(self):
        with pytest.raises(NumericError):
            dg.div(dg.Value(1.0), dg.Value(0.0))
        with pytest.raises(NumericError):
            dg.div(np.array([1.0]), np.array([0.0]))

    def test_exp_overflow_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the typed error, not a RuntimeWarning
            with pytest.raises(NumericError):
                go.exp(dg.Value(np.array([1000.0])))
            with pytest.raises(NumericError):
                go.exp(np.array([1000.0]))


def family_op(fam, x, block):
    """fam's kernel and hand adjoint as one graph node over x (B,), block
    (width, B) and fam.params, holding (y, logdet) stacked as (2, B)."""
    def forward(x, block, *_):
        p = fam.decode(block)
        y, ld, saved = fam.core(x, p)
        return np.stack([y, ld]), p, saved

    def adjoint(g, out, x, block, *_):
        return fam.adjoint(g[0], g[1], x, block, out[1], out[2])

    return dg._op(type(fam).__name__.lower(), forward, adjoint, x, block, *fam.params)


def tiled(b, k):
    """The (3k, 1) column [b, b, ..., b] of a (3,) b, as recorded ops."""
    return dg.reshape(dg.reshape(b, (1, 1, 3)) * np.ones((1, k, 1)), (3 * k, 1))


def mixed(b, mix):
    """b @ mix for a (3,) b and a (3, k) constant, as a (1, k) row of recorded ops."""
    return dg.vsum(dg.reshape(b, (3, 1)) * mix, axis=0, keepdims=True)


def ddsf_121(v_u, v_w):
    """A dims (1, 2, 1) Ddsf with the given vu and vw, Values or arrays.

    Block columns: layer 0 (1, 2, 2), layer 1 (2, 1, 1).
    """
    fam = tf.Ddsf(dims=(1, 2, 1))
    fam.v_u = [v if dg.is_value(v) else dg.Value(v) for v in v_u]
    fam.v_w = [v if dg.is_value(v) else dg.Value(v) for v in v_w]
    fam.params = [*fam.v_u, *fam.v_w]
    return fam


def layer_case(m, kind, hidden=(4,)):
    """fn(a, b): y and logdet of one FlowLayer, summed per point, at x = a
    mixed into (3, m); each parameter is a fixed random array plus a fixed
    random mix of b, so b's gradient passes through every parameter's."""
    layer = FlowLayer(m, kind, d=2, ddsf_dims=(1, 2, 1), hidden=hidden, seed=0)
    cond, fam = layer.conditioner, layer.family
    rng = np.random.default_rng(zlib.crc32(f"{m} {kind} {hidden}".encode()))
    shapes = [p.shape for p in layer.parameters()]
    bases = [rng.normal(scale=0.5, size=shape) for shape in shapes]
    mixes = [rng.normal(scale=0.5, size=(3, int(np.prod(shape)))) for shape in shapes]
    k = len(cond.weights)

    def fn(a, b):
        vals = [dg.reshape(mixed(b, mix), shape) + base
                for shape, base, mix in zip(shapes, bases, mixes)]
        vals = [v if dg.is_value(v) else dg.Value(v) for v in vals]
        cond.weights, cond.biases, fam.params = vals[:k], vals[k:2 * k], vals[2 * k:]
        if kind == "ddsf":
            half = len(fam.params) // 2
            fam.v_u, fam.v_w = fam.params[:half], fam.params[half:]
        y, ld = layer.forward(dg.reshape(a, (3, 1)) * np.linspace(1.0, -0.5, m))
        return dg.vsum(y, axis=1) + ld

    return fn


def layer_node(m, kind):
    """fn(a): the "layer" node of a fresh FlowLayer at x = a, (n, m) in, (n, m + 1) out."""
    layer = FlowLayer(m, kind, d=2, ddsf_dims=(1, 2, 1), hidden=(4,), seed=0)
    return lambda a: layer.forward(a)[0].parents[0]


OWN_OUTPUT_OPS = [
    ("exp", go.exp),
    ("logsumexp", lambda a: dg.logsumexp(a, axis=0)),
    ("log_dot_exp", lambda a: dg.log_dot_exp(go.exp(a), a)),
    # the layer node of a dsf and of a ddsf layer, not the takes that read y and logdet
    ("dsf", layer_node(2, "dsf")),
    ("ddsf", layer_node(2, "ddsf")),
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
        l2 = dg.vsum(go.softplus(p))
        dg.backward(dg.add(l1, l2))
        combined = p.grad.copy()
        p.zero_grad()
        dg.backward(dg.vsum(p * p))
        g1 = p.grad.copy()
        p.zero_grad()
        dg.backward(dg.vsum(go.softplus(p)))
        g2 = p.grad.copy()
        np.testing.assert_allclose(combined, g1 + g2, atol=1e-12)

    def test_repeat_run_bit_identical(self):
        rng = np.random.default_rng(0)
        p = dg.Parameter(rng.normal(size=(3, 3)), "p")
        x = rng.normal(size=(2, 3))

        def loss():
            # softplus(x @ p), the product as a broadcast sum
            return dg.vmean(go.softplus(dg.vsum(dg.reshape(dg.Value(x), (2, 3, 1)) * p, axis=1)))

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
    ("exp", go.exp, 1),
    ("log", lambda a: go.log(a + 4.0), 1),
    ("softplus", go.softplus, 1),
    ("relu", lambda a: dg.relu(a + 0.1), 1),
    ("sin", dg.sin, 1),
    ("logsumexp", lambda a: dg.logsumexp(a, axis=0, keepdims=True), 1),
    ("logsoftmax", lambda a: go.logsoftmax(a, axis=0), 1),
    ("mean", lambda a: dg.vmean(a, axis=0, keepdims=True), 1),
    ("reshape", lambda a: dg.reshape(a, (3, 1)), 1),
    ("slice", lambda a: a[(slice(0, 2),)], 1),
    ("log_dot_exp", lambda a, b: dg.log_dot_exp(
        go.exp(dg.reshape(a, (1, 3)) + np.array([[0.0], [0.5]])), dg.reshape(b, (3, 1))), 2),
    # each family's kernel and adjoint recorded as one node of y and logdet,
    # summed: x = a at three points; a d = 2 block (w_pre, a_pre, b) mixed from b
    ("dsf", lambda a, b: dg.vsum(family_op(
        tf.Dsf(d=2), a, tiled(b, 2) + np.array([[0.0, 0.5, -0.5]])), axis=0), 2),
    # x = a at three points; a dims (1, 2, 1) block, vu1 and vw0 mixed from b
    ("ddsf", lambda a, b: dg.vsum(family_op(
        ddsf_121([np.ones((2, 1)), mixed(b, np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]]))],
                 [dg.reshape(mixed(b, np.array([[1.0, 0, 0, 0.5], [0, 1.0, 0.5, 0],
                                                 [0, 0, 1.0, -1.0]])), (2, 2)),
                  np.zeros((1, 1))]),
        a, tiled(b, 3) + np.array([[0.0, 0.5, -0.5]])), axis=0), 2),
    # whole flow layers: the conditioner's adjoint chained to each family's
    ("layer-affine-exp", layer_case(2, "affine-exp"), 2),
    ("layer-affine-gate", layer_case(2, "affine-gate"), 2),
    ("layer-dsf", layer_case(2, "dsf"), 2),
    ("layer-ddsf", layer_case(2, "ddsf"), 2),
    ("layer-hidden-8-8", layer_case(2, "dsf", hidden=(8, 8)), 2),
    ("layer-m1", layer_case(1, "dsf"), 2),
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
    def test_slice_scatter(self):
        a = dg.Value(np.arange(6.0).reshape(2, 3))
        out = dg.vsum(a[(slice(None), 1)])
        dg.backward(out)
        np.testing.assert_allclose(a.grad, [[0, 1, 0], [0, 1, 0]])

    def test_rank_cap(self):
        with pytest.raises(DomainError):
            dg.Value(np.zeros((2, 2, 2, 2)))


class TestTake:
    def test_takes_of_one_parent_add_in_place(self):
        a = dg.Value(np.arange(6.0).reshape(2, 3))
        out = dg.vsum(a[(slice(None), 1)] * 2.0) + dg.vsum(a[0]) + dg.vsum(a[:, 1:])
        dg.backward(out)
        np.testing.assert_array_equal(a.grad, [[1, 4, 2], [0, 3, 1]])

    @pytest.mark.parametrize("second,expected", [
        (lambda a: a[1:], [1, 2, 2]),
        (lambda a: a * 2.0, [3, 3, 3]),
    ], ids=["take", "mul"])
    def test_shared_gradient_leaves_the_sibling_alone(self, second, expected):
        # add hands one gradient array to both parents; a's later gradient
        # (from a take or any op) must not be added into b's
        a, b = dg.Value(np.zeros(3)), dg.Value(np.zeros(3))
        dg.backward(dg.vsum(a + b) + dg.vsum(second(a)))
        np.testing.assert_array_equal(a.grad, expected)
        np.testing.assert_array_equal(b.grad, [1, 1, 1])

    @pytest.mark.parametrize("idx", [[0, 0], np.array([1, 0]), (slice(None), [0, 2])],
                             ids=["list", "array", "tuple-with-list"])
    def test_advanced_index_rejected_when_recorded(self, idx):
        a = dg.Value(np.arange(6.0).reshape(2, 3))
        with pytest.raises(DomainError):
            dg.take(a, idx)
        dg.take(a.data, idx)  # the numpy path indexes as numpy does


class TestStructure:
    def test_constant_operand_is_no_node(self):
        p = dg.Parameter(np.zeros(3), "p")
        out = dg.add(p, np.ones(3))
        assert len(out.parents) == 1 and out.parents[0] is p
        dg.backward(dg.vsum(out))
        np.testing.assert_array_equal(p.grad, np.ones(3))
        leaves = [n for n in _graph(out) if not n.parents]
        assert leaves == [p]

    def test_dsf_mle_loss_node_count(self):
        stack = FlowStack.build(m=2, kind="dsf", d=16, hidden=(64,))
        batch = np.random.default_rng(0).normal(size=(32, 2))
        assert len(_graph(mle_loss(batch, stack))) <= 16

    def test_ddsf_records_one_node_per_call(self):
        stack = FlowStack.build(m=2, kind="ddsf", ddsf_dims=(1, 16, 16, 1), hidden=(64,))
        batch = np.random.default_rng(0).normal(size=(32, 2))
        nodes = _graph(mle_loss(batch, stack))
        assert [n.op for n in nodes].count("layer") == 1
        assert len(nodes) <= 22  # the dsf loss's 16, plus the six vu and vw leaves


def _graph(root):
    """Every node reachable from root."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


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
