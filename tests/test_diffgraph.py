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
    """Build expr from fresh oracle leaves, backprop, return leaf gradients."""
    leaves = [go.Node(v) for v in leaf_values]
    go.backward(expr_fn(*leaves))
    return [l.grad for l in leaves]


def small_stack(kind="dsf", n_layers=1, seed=0):
    """A perturbed m = 2 stack of the kind and a (32, 2) batch."""
    stack = FlowStack.build(m=2, kind=kind, n_layers=n_layers, d=4, ddsf_dims=(1, 3, 1),
                            hidden=(8,), seed=seed)
    rng = np.random.default_rng(seed)
    for p in stack.parameters():
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    return stack, rng.normal(size=(32, 2))


class TestRecord:
    """The oracle engine (graph_ops) that the composite tests differentiate with."""

    def test_add(self):
        out = go.add(go.Node(2.0), go.Node(3.0))
        assert float(out.data) == 5.0

    def test_logsumexp_matches_stablemath(self):
        v = np.array([[0.0, math.log(3.0)]])
        out = go.logsumexp(go.Node(v), axis=1)
        assert float(out.data[0]) == pytest.approx(float(sm.logsumexp_over_axis(v[0], 0)),
                                                   abs=1e-12)

    def test_every_spec_kind_is_recordable(self):
        a = go.Node(np.array([[1.0, 2.0], [3.0, 4.0]]))
        outs = [go.add(a, a), go.sub(a, a), go.mul(a, a), go.neg(a), go.exp(a), go.log(a),
                go.vsum(a), go.logsumexp(a, axis=0), go.softplus(a),
                go.reshape(a, (4,)), go.take(a, (slice(None), 0)),
                go.log_dot_exp(go.exp(a), a)]
        assert all(isinstance(out, go.Node) for out in outs)

    # Each guard runs on both paths: recorded nodes and plain arrays.

    def test_log_pole_rejected(self):
        with pytest.raises(NumericError):
            go.log(go.Node(0.0))
        with pytest.raises(NumericError):
            go.log(np.array([1.0, 0.0]))

    def test_exp_overflow_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the typed error, not a RuntimeWarning
            with pytest.raises(NumericError):
                go.exp(go.Node(np.array([1000.0])))
            with pytest.raises(NumericError):
                go.exp(np.array([1000.0]))


def tiled(b, k):
    """The (3k, 1) column [b, b, ..., b] of a (3,) b, as recorded ops."""
    return go.reshape(go.reshape(b, (1, 1, 3)) * np.ones((1, k, 1)), (3 * k, 1))


def mixed(b, mix):
    """b @ mix for a (3,) b and a (3, k) constant, as a (1, k) row of recorded ops."""
    return go.vsum(go.reshape(b, (3, 1)) * mix, axis=0, keepdims=True)


def ddsf_121(v_u, v_w):
    """A dims (1, 2, 1) Ddsf with the given vu and vw, nodes or arrays.

    Block columns: layer 0 (1, 2, 2), layer 1 (2, 1, 1).
    """
    fam = tf.Ddsf(dims=(1, 2, 1))
    fam.v_u = [v if isinstance(v, go.Node) else go.Node(v) for v in v_u]
    fam.v_w = [v if isinstance(v, go.Node) else go.Node(v) for v in v_w]
    fam.params = [*fam.v_u, *fam.v_w]
    return fam


def layer_case(m, kind, hidden=(4,)):
    """fn(a, b): y and logdet of one FlowLayer's training pass, summed per point,
    at x = a mixed into (3, m); each parameter is a fixed random array plus a
    fixed random mix of b, so b's gradient passes through every parameter's."""
    layer = FlowLayer(m, kind, d=2, ddsf_dims=(1, 2, 1), hidden=hidden, seed=0)
    rng = np.random.default_rng(zlib.crc32(f"{m} {kind} {hidden}".encode()))
    shapes = [p.shape for p in layer.parameters()]
    bases = [rng.normal(scale=0.5, size=shape) for shape in shapes]
    mixes = [rng.normal(scale=0.5, size=(3, int(np.prod(shape)))) for shape in shapes]

    def fn(a, b):
        vals = [go.reshape(mixed(b, mix), shape) + base
                for shape, base, mix in zip(shapes, bases, mixes)]
        y, ld = go.layer_op(layer, go.reshape(a, (3, 1)) * np.linspace(1.0, -0.5, m), *vals)
        return go.vsum(y, axis=1) + ld

    return fn


def sweep_case(kind):
    """case(): an mle_loss root over a fresh 2-layer stack of the kind, its
    parameters, and a weak reference to the first layer's saved block."""
    def case():
        stack, batch = small_stack(kind, n_layers=2)
        run, refs = stack.forward_saved, []

        def forward_saved(x):
            y, logdet, saved = run(x)
            refs.append(weakref.ref(saved[0][2]))
            return y, logdet, saved

        stack.forward_saved = forward_saved
        return mle_loss(batch, stack), stack.parameters(), refs[0]

    return case


def op_case(op):
    """case(): the oracle root of sum(op(p)) over a Parameter p, [p], and a weak
    reference to op's output."""
    def case():
        p = dg.Parameter(np.array([[0.1, -0.2], [0.3, 0.4]]), "p")
        node = op(p)
        return go.root(go.vsum(node)), [p], weakref.ref(node.data)

    return case


LIFETIME_CASES = [
    ("exp", op_case(go.exp)),
    ("logsumexp", op_case(lambda a: go.logsumexp(a, axis=0))),
    ("log_dot_exp", op_case(lambda a: go.log_dot_exp(go.exp(a), a))),
    # the training sweep's state, which the loss root alone holds
    ("dsf", sweep_case("dsf")),
    ("ddsf", sweep_case("ddsf")),
]


class TestLifetime:
    """A loss root and what its backward reads are freed by reference counting
    alone, with no cycle for the cyclic collector to find, even for oracle ops
    whose adjoint reads their output."""

    @pytest.mark.parametrize("case", [c[1] for c in LIFETIME_CASES],
                             ids=[c[0] for c in LIFETIME_CASES])
    def test_graph_freed_when_root_dropped(self, case):
        gc.disable()
        try:
            loss, params, data = case()
            dg.backward(loss)
            del loss
            assert data() is None
        finally:
            gc.enable()
        assert all(p.grad is not None for p in params)


class TestBackward:
    def test_power_rule(self):
        (g,) = grad_of(lambda p: p * p, 3.0)
        assert float(g) == pytest.approx(6.0)

    def test_logsumexp_softmax_gradient(self):
        # analytic softmax of (0, ln 3) is (0.25, 0.75)
        (g,) = grad_of(lambda v: go.logsumexp(v, axis=0), np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(g, [0.25, 0.75], atol=1e-12)

    def test_scalar_root_required(self):
        with pytest.raises(DomainError):
            dg.backward(dg.Value(np.array([1.0, 2.0]), (), lambda: []))
        with pytest.raises(DomainError):  # a leaf is no loss root
            dg.backward(dg.Parameter(1.0, "p"))

    def test_accumulation_until_zeroed(self):
        stack, batch = small_stack()
        params = stack.parameters()
        loss = mle_loss(batch, stack)
        dg.backward(loss)
        first = [p.grad.copy() for p in params]
        dg.backward(loss)
        for p, g in zip(params, first):
            assert np.array_equal(p.grad, g + g)
        dg.zero_grad(params)
        dg.backward(mle_loss(batch, stack))
        for p, g in zip(params, first):
            assert p.grad.tobytes() == g.tobytes()

    def test_unreachable_parameter_gets_no_gradient(self):
        p = go.Node(1.0)
        q = dg.Parameter(1.0, "q")
        go.backward(p * 2.0)
        assert q.grad is None  # treated as zero by the optimizer

    def test_sum_of_losses_is_linear(self):
        p = go.Node(np.array([1.0, -2.0, 0.5]))
        l1 = go.vsum(p * p)
        l2 = go.vsum(go.softplus(p))
        go.backward(go.add(l1, l2))
        combined = p.grad.copy()
        p.zero_grad()
        go.backward(go.vsum(p * p))
        g1 = p.grad.copy()
        p.zero_grad()
        go.backward(go.vsum(go.softplus(p)))
        g2 = p.grad.copy()
        np.testing.assert_allclose(combined, g1 + g2, atol=1e-12)

    def test_repeat_run_bit_identical(self):
        stack, batch = small_stack(n_layers=2)
        params = stack.parameters()
        dg.zero_grad(params)
        dg.backward(mle_loss(batch, stack))
        g1 = [p.grad.copy() for p in params]
        dg.zero_grad(params)
        dg.backward(mle_loss(batch, stack))
        assert all(a.tobytes() == p.grad.tobytes() for a, p in zip(g1, params))


OPS_FD_CASES = [
    ("add", lambda a, b: a + b, 2),
    ("sub", lambda a, b: a - b, 2),
    ("mul", lambda a, b: a * b, 2),
    ("neg", lambda a: -a, 1),
    ("exp", go.exp, 1),
    ("log", lambda a: go.log(a + 4.0), 1),
    ("softplus", go.softplus, 1),
    ("logsumexp", lambda a: go.logsumexp(a, axis=0, keepdims=True), 1),
    ("logsoftmax", lambda a: go.logsoftmax(a, axis=0), 1),
    ("reshape", lambda a: go.reshape(a, (3, 1)), 1),
    ("slice", lambda a: a[(slice(0, 2),)], 1),
    ("log_dot_exp", lambda a, b: go.log_dot_exp(
        go.exp(go.reshape(a, (1, 3)) + np.array([[0.0], [0.5]])), go.reshape(b, (3, 1))), 2),
    # each family's kernel and adjoint recorded as one node of y and logdet,
    # summed: x = a at three points; a d = 2 block (w_pre, a_pre, b) mixed from b
    ("dsf", lambda a, b: go.vsum(go.family_op(
        tf.Dsf(d=2), a, tiled(b, 2) + np.array([[0.0, 0.5, -0.5]])), axis=0), 2),
    # x = a at three points; a dims (1, 2, 1) block, vu1 and vw0 mixed from b
    ("ddsf", lambda a, b: go.vsum(go.family_op(
        ddsf_121([np.ones((2, 1)), mixed(b, np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]]))],
                 [go.reshape(mixed(b, np.array([[1.0, 0, 0, 0.5], [0, 1.0, 0.5, 0],
                                                 [0, 0, 1.0, -1.0]])), (2, 2)),
                  np.zeros((1, 1))]),
        a, tiled(b, 3) + np.array([[0.0, 0.5, -0.5]])), axis=0), 2),
    # whole flow layers: the training pass, the conditioner's adjoint chained
    # to each family's
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
            leaves = [go.Node(rng.uniform(-3, 3, size=3)) for _ in range(arity)]
            out_shape = np.shape(fn(*[p.data for p in leaves]))
            w = rng.normal(size=out_shape)

            def loss():
                return go.root(go.vsum(go.mul(fn(*leaves), w)))

            dev = dg.check_gradients(loss, leaves, eps=1e-5)
            assert dev < 1e-4, f"{name} trial {trial}: deviation {dev:.2e}"


class TestMatmulShapes:
    def test_slice_scatter(self):
        a = go.Node(np.arange(6.0).reshape(2, 3))
        go.backward(go.vsum(a[(slice(None), 1)]))
        np.testing.assert_allclose(a.grad, [[0, 1, 0], [0, 1, 0]])

    def test_rank_cap(self):
        with pytest.raises(DomainError):
            go.Node(np.zeros((2, 2, 2, 2)))


class TestTake:
    def test_takes_of_one_parent_add_in_place(self):
        a = go.Node(np.arange(6.0).reshape(2, 3))
        out = go.vsum(a[(slice(None), 1)] * 2.0) + go.vsum(a[0]) + go.vsum(a[:, 1:])
        go.backward(out)
        np.testing.assert_array_equal(a.grad, [[1, 4, 2], [0, 3, 1]])

    @pytest.mark.parametrize("second,expected", [
        (lambda a: a[1:], [1, 2, 2]),
        (lambda a: a * 2.0, [3, 3, 3]),
    ], ids=["take", "mul"])
    def test_shared_gradient_leaves_the_sibling_alone(self, second, expected):
        # add hands one gradient array to both parents; a's later gradient
        # (from a take or any op) must not be added into b's
        a, b = go.Node(np.zeros(3)), go.Node(np.zeros(3))
        go.backward(go.vsum(a + b) + go.vsum(second(a)))
        np.testing.assert_array_equal(a.grad, expected)
        np.testing.assert_array_equal(b.grad, [1, 1, 1])

    @pytest.mark.parametrize("idx", [[0, 0], np.array([1, 0]), (slice(None), [0, 2])],
                             ids=["list", "array", "tuple-with-list"])
    def test_advanced_index_rejected_when_recorded(self, idx):
        a = go.Node(np.arange(6.0).reshape(2, 3))
        with pytest.raises(DomainError):
            go.take(a, idx)
        go.take(a.data, idx)  # the numpy path indexes as numpy does


class TestStructure:
    def test_constant_operand_is_no_node(self):
        p = dg.Parameter(np.zeros(3), "p")
        out = go.add(p, np.ones(3))
        assert len(out.parents) == 1 and out.parents[0] is p
        go.backward(go.vsum(out))
        np.testing.assert_array_equal(p.grad, np.ones(3))
        leaves = [n for n in _graph(out) if not n.parents]
        assert leaves == [p]

    def test_dsf_mle_loss_node_count(self):
        # the loss root and its parents, the stack's four parameters
        stack = FlowStack.build(m=2, kind="dsf", d=16, hidden=(64,))
        batch = np.random.default_rng(0).normal(size=(32, 2))
        loss = mle_loss(batch, stack)
        assert list(loss.parents) == stack.parameters()
        assert len(_graph(loss)) == 5

    def test_ddsf_records_one_node_per_call(self):
        # one backward calls the ddsf layer's adjoint once, and sets each of
        # the root's eleven parents' gradients
        stack = FlowStack.build(m=2, kind="ddsf", ddsf_dims=(1, 16, 16, 1), hidden=(64,))
        batch = np.random.default_rng(0).normal(size=(32, 2))
        fam, calls = stack.layers[0].family, []
        fam.adjoint = lambda *args, run=fam.adjoint: calls.append(1) or run(*args)
        loss = mle_loss(batch, stack)
        assert len(_graph(loss)) == 11
        dg.backward(loss)
        assert len(calls) == 1
        assert all(p.grad is not None for p in loss.parents)


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
        dev = dg.check_gradients(lambda: go.root(go.vsum(go.mul(p, p))), [p], eps=1e-5)
        assert dev < 1e-7

    def test_nondeterministic_closure_rejected(self):
        p = dg.Parameter(1.0, "p")
        state = {"k": 0.0}

        def wobbly():
            state["k"] += 1.0
            return go.root(go.mul(p, state["k"]))

        with pytest.raises(InconsistencyError):
            dg.check_gradients(wobbly, [p], eps=1e-5)

    def test_eps_domain(self):
        p = dg.Parameter(1.0, "p")
        with pytest.raises(DomainError):
            dg.check_gradients(lambda: go.root(go.mul(p, p)), [p], eps=1e-3)
