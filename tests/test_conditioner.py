import numpy as np
import pytest

import graph_ops as go
from nafkit import diffgraph as dg
from nafkit import stablemath as sm
from nafkit import transformer as tf
from nafkit.conditioner import (
    MadeConditioner,
    SOFTNESS_IDENTITY_OFFSET,
    build_masks,
    identity_init,
)
from nafkit.errors import DomainError
from nafkit.flow import FlowLayer, FlowStack
from nafkit.training import TrainConfig, fit, mle_loss


def reachability(mask_set):
    """Boolean (input, output-dim) path matrix through all mask products."""
    reach = mask_set.masks[0].astype(bool)
    for mask in mask_set.masks[1:]:
        reach = reach @ mask.astype(bool)
    return (reach @ mask_set.out_base.astype(bool)) if False else reach @ mask_set.out_base.astype(bool)


class TestBuildMasks:
    def test_m1_output_cut_from_input(self):
        for hidden in ((4,), (8, 8)):
            ms = build_masks(1, hidden)
            assert np.all(ms.masks[0] == 0.0)

    def test_m2_second_dim_sees_only_first(self):
        ms = build_masks(2, (8,), order=(1, 2))
        reach = ms.masks[0].astype(bool) @ ms.out_base.astype(bool)
        assert not reach[0, 0]  # x1 must not feed block 1
        assert not reach[1, 0]
        assert reach[0, 1]      # x1 feeds block 2
        assert not reach[1, 1]  # x2 must not feed block 2

    def test_m3_bruteforce_reachability(self):
        # path from input j to output block t exists iff order[j] < order[t]
        for order in ((1, 2, 3), (3, 1, 2)):
            ms = build_masks(3, (8,), order=order)
            reach = ms.masks[0].astype(bool) @ ms.out_base.astype(bool)
            for j in range(3):
                for t in range(3):
                    assert bool(reach[j, t]) == (order[j] < order[t]), (order, j, t)

    def test_two_hidden_layers_keep_property(self):
        ms = build_masks(4, (10, 7))
        reach = ms.masks[0].astype(bool)
        reach = reach @ ms.masks[1].astype(bool)
        reach = reach @ ms.out_base.astype(bool)
        for j in range(4):
            for t in range(4):
                assert bool(reach[j, t]) == (j < t)

    def test_no_dead_units(self):
        # every hidden unit has an allowed incoming connection (m > 1)
        for m in (2, 3, 5):
            ms = build_masks(m, (9, 5))
            for mask in ms.masks:
                assert np.all(mask.sum(axis=0) >= 1)

    def test_zero_dim_rejected(self):
        with pytest.raises(DomainError):
            build_masks(0, (4,))

    def test_bad_order_rejected(self):
        with pytest.raises(DomainError):
            build_masks(3, (4,), order=(1, 1, 2))


class TestConditionerForward:
    def test_autoregressive_invariance_to_later_coords(self):
        made = MadeConditioner(2, 3, hidden_sizes=(16,), seed=0)
        x = np.array([[0.5, -1.0]])
        x2 = np.array([[0.5, 0.0]])  # perturb x2 by +1
        b1 = made.forward(x)
        b2 = made.forward(x2)
        np.testing.assert_array_equal(b1[0], b2[0])
        np.testing.assert_array_equal(b1[1], b2[1])

    def test_zero_weight_conditioner_outputs_biases(self):
        made = MadeConditioner(3, 2, hidden_sizes=(8,), seed=0)
        for w in made.weights:
            w.data[:] = 0.0
        beta = np.arange(6.0) * 0.1
        made.biases[-1].data = beta.copy()
        out = made.forward(np.random.default_rng(0).normal(size=(4, 3)))
        want = beta.reshape(3, 2) + made.out_offset
        for i in range(4):
            np.testing.assert_allclose(out[..., i], want, atol=1e-15)

    def test_pseudo_jacobian_block_lower_triangular(self):
        # finite-difference Jacobian of blocks wrt x is strictly block
        # lower triangular in the order
        made = MadeConditioner(4, 3, hidden_sizes=(12,), seed=3)
        rng = np.random.default_rng(1)
        for w in made.weights:
            w.data = rng.normal(scale=0.5, size=w.data.shape)
        x0 = rng.normal(size=(1, 4))
        h = 1e-6
        for s in range(4):
            xp, xm = x0.copy(), x0.copy()
            xp[0, s] += h
            xm[0, s] -= h
            diff = (made.forward(xp) - made.forward(xm)) / (2 * h)
            for t in range(4):
                if s >= t:  # natural order: block t may depend on coords < t only
                    assert np.max(np.abs(diff[t, :, 0])) <= 1e-9, (s, t)

    def test_nonfinite_input_rejected(self):
        made = MadeConditioner(2, 2, hidden_sizes=(4,), seed=0)
        with pytest.raises(DomainError):
            made.forward(np.array([[np.nan, 0.0]]))


def cwn_weights(vu, eta):
    """CWN's (B, rows, cols) weights softmax(vu + eta) as the ddsf kernel forms
    them, from its factors exp(vu - rowmax) and exp(eta.T - column max): u @ h
    for each unit vector h, a column broadcast over the B points."""
    vu, eta = np.atleast_2d(vu), np.atleast_2d(eta)
    V = vu - np.max(vu, axis=1, keepdims=True)
    E = np.exp(V)
    cz = tf._cwn_product(V, E, eta.T)
    unit = np.eye(vu.shape[1])
    cols = [tf._cwn_mix(np.broadcast_to(e[:, None], eta.T.shape), E, cz).T for e in unit]
    return np.stack(cols, axis=-1)


def composite_cwn(vu, eta):
    """The same weights spelled out: a row-logsoftmax over a (B, rows, cols) tensor."""
    eta = np.atleast_2d(eta)
    return np.exp(go.logsoftmax(vu + eta[:, None, :], axis=-1))


class TestApplyCwn:
    """The ddsf kernel's factored CWN weights form a row-stochastic matrix."""

    def test_uniform_when_all_zero(self):
        out = cwn_weights(np.zeros((2, 2)), np.zeros(2))
        np.testing.assert_allclose(out, np.full((1, 2, 2), 0.5), atol=1e-12)

    def test_softmax_oracle(self):
        # softmax(ln 3, 0) = (0.75, 0.25)
        out = cwn_weights(np.zeros((1, 2)), np.array([np.log(3.0), 0.0]))
        np.testing.assert_allclose(out, [[[0.75, 0.25]]], atol=1e-12)

    def test_constant_eta_shift_invariance(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(3, 4))
        base = cwn_weights(v, np.zeros(4))
        shifted = cwn_weights(v, np.full(4, 2.7))
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_rows_sum_to_one_extreme_entries(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.uniform(-50, 50, size=(3, 5))
            eta = rng.uniform(-50, 50, size=(4, 5))
            out = cwn_weights(v, eta)
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
            np.testing.assert_allclose(out, composite_cwn(v, eta), atol=1e-12)

    def test_equivalent_to_exp_rescaling(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(2, 3))
        eta = rng.normal(size=(5, 3))
        scaled = np.exp(v) * np.exp(eta)[:, None, :]
        want = scaled / scaled.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(cwn_weights(v, eta), want, rtol=1e-12)
        np.testing.assert_allclose(composite_cwn(v, eta), want, rtol=1e-12)

    def test_length_mismatch(self):
        # dims (1, 2, 1): layer 1 reads 2 eta columns, so a 3-column vu1 is refused
        fam = tf.Ddsf(dims=(1, 2, 1))
        fam.v_u[1].data = np.zeros((1, 3))
        with pytest.raises(DomainError):
            fam.forward(np.zeros(2), np.zeros((9, 2)))


class TestIdentityInit:
    def test_softness_preactivation_constant(self):
        # with zero conditioner weights the softness block is exactly the
        # offset constant, and softplus of it is ~1.000001
        made = MadeConditioner(
            2, 3, hidden_sizes=(8,),
            out_offset=np.array([0.0, SOFTNESS_IDENTITY_OFFSET, 0.0]), seed=0,
        )
        for w in made.weights:
            w.data[:] = 0.0
        for b in made.biases:
            b.data[:] = 0.0
        out = made.forward(np.zeros((1, 2)))
        assert out[0, 1, 0] == pytest.approx(0.5413, abs=1e-4)
        assert sm.softplus(out[0, 1, 0]) == pytest.approx(1.000001, abs=1e-6)

    def test_weights_in_band_biases_small(self):
        made = MadeConditioner(3, 2, hidden_sizes=(16,), seed=7)
        identity_init(made, seed=7)
        for w in made.weights:
            assert np.max(np.abs(w.data)) <= 0.001
        for b in made.biases[:-1]:
            assert np.all(b.data == 0.0)
        assert np.max(np.abs(made.biases[-1].data)) <= 0.001

    def test_dsf_near_identity_on_grid(self):
        # |tau(x) - x| <= 0.05 on a 61-point grid over [-3, 3]
        stack = FlowStack.build(m=1, kind="dsf", d=16, seed=0)
        xs = np.linspace(-3, 3, 61).reshape(-1, 1)
        ys, ld = stack.forward(xs)
        assert np.max(np.abs(ys - xs)) <= 0.05
        assert np.max(np.abs(ld)) <= 0.05  # |log dy/dx| small near identity

    def test_full_stack_near_identity_m4(self):
        for m in (2, 4):
            stack = FlowStack.build(m=m, kind="dsf", d=16, seed=1)
            rng = np.random.default_rng(0)
            x = rng.uniform(-3, 3, size=(64, m))
            y, _ = stack.forward(x)
            assert np.max(np.abs(y - x)) <= 0.1


class TestPseudoParamScaling:
    def test_ddsf_conditioner_width_is_linear_in_d(self):
        # CWN keeps the per-dimension pseudo-parameter count O(L*d)
        d, L = 16, 2
        stack = FlowStack.build(m=2, kind="ddsf", ddsf_dims=(1, d, 1), seed=0)
        width = stack.layers[0].conditioner.out_per_dim
        assert width == (1 + 2 * d) + (d + 2 * 1)
        assert width < L * d * d / 2


class TestDsfPseudoInvariants:
    def test_activation_invariants_hold(self):
        stack = FlowStack.build(m=3, kind="dsf", d=8, seed=2)
        rng = np.random.default_rng(3)
        for p in stack.parameters():
            p.data = p.data + rng.normal(scale=0.5, size=p.data.shape)
        blocks = stack.layers[0].conditioner.forward(rng.normal(size=(5, 3)))
        d = 8
        w = np.exp(sm.logsoftmax_over_axis(blocks[:, :d], 1))
        a = sm.softplus(blocks[:, d: 2 * d])
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w > 0)
        assert np.all(a > 0)


FAMILY_KINDS = ["affine-exp", "affine-gate", "dsf", "ddsf"]


def perturbed_layer(m, kind, hidden, order, seed=0):
    layer = FlowLayer(m, kind, d=3, ddsf_dims=(1, 4, 3, 1), hidden=hidden, order=order, seed=seed)
    rng = np.random.default_rng(seed)
    for p in layer.parameters():
        p.data = p.data + rng.normal(scale=0.5, size=p.shape)
    return layer


class TestLiveRows:
    """The readout runs over the rows its masks let some hidden unit feed."""

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("reverse", [False, True], ids=["natural", "reversed"])
    @pytest.mark.parametrize("hidden", [(), (64,), (32, 32)], ids=["h0", "h64", "h32x32"])
    def test_block_matches_forward(self, kind, m, reverse, hidden):
        # Equal bits at m = 2, where block and forward run the same product. Elsewhere
        # the two readout products may sum in another order (the degree-1 block takes
        # one column, and at m >= 3 forward multiplies several blocks' rows at once),
        # so they agree within two sums' rounding bound, 2 (K + 1) eps per term.
        order = tuple(range(m, 0, -1)) if reverse else None
        cond = perturbed_layer(m, kind, hidden, order, seed=m).conditioner
        w = np.abs(cond.weights[-1].data * cond.masks[-1])
        bias = np.abs(cond.biases[-1].data + np.tile(cond.out_offset, m))
        for n in (1, 37, 777):
            x = np.random.default_rng(n).normal(size=(n, m))
            full = cond.forward(x)
            h = cond.activations(x.T)[0][-1]
            bound = 2 * (len(h) + 1) * np.finfo(float).eps * (w.T @ np.abs(h) + bias[:, None])
            for i in range(m):
                block = cond.block(x, i)
                assert block.shape == (cond.out_per_dim, 1 if cond.order[i] == 1 else n)
                want = full[i]
                got = np.broadcast_to(block, want.shape)
                if m == 2:
                    np.testing.assert_array_equal(got, want)
                else:
                    rows = slice(i * cond.out_per_dim, (i + 1) * cond.out_per_dim)
                    assert np.all(np.abs(got - want) <= bound[rows])

    @pytest.mark.parametrize("m,order", [(2, None), (3, (2, 3, 1)), (5, None)])
    def test_dead_rows_are_bias_plus_offset(self, m, order):
        cond = perturbed_layer(m, "dsf", (16,), order).conditioner
        dead = cond.order.index(1)
        assert list(cond.live) == [t != dead for t in range(m)]
        out = cond.forward(np.random.default_rng(1).normal(size=(50, m)))
        p = cond.out_per_dim
        want = cond.biases[-1].data[dead * p:(dead + 1) * p] + cond.out_offset
        assert out[dead].tobytes() == np.broadcast_to(want[:, None], (p, 50)).tobytes()

    def test_dead_weights_do_not_change_over_a_fit(self):
        stack = FlowStack.build(m=3, kind="dsf", d=4, n_layers=2, hidden=(16,), seed=2)
        before = [layer.conditioner.weights[-1].data.copy() for layer in stack.layers]
        data = np.random.default_rng(3).normal(size=(512, 3))
        fit(stack, TrainConfig(steps=5, batch=128, lr=1e-2), data=data)
        for layer, w0 in zip(stack.layers, before):
            cond = layer.conditioner
            p, dead = cond.out_per_dim, cond.order.index(1)
            rows = slice(dead * p, (dead + 1) * p)
            w = cond.weights[-1].data
            assert w[:, rows].tobytes() == w0[:, rows].tobytes()
            # Adam moves exactly the weights the mask lets through
            np.testing.assert_array_equal(w != w0, cond.masks[-1] != 0.0)

    def test_m1_readout_and_hidden_bias_train(self):
        # At m = 1 no readout row is dead: the hidden units take no input, but
        # tanh(b0) still feeds the readout, so W1 and b0 learn.
        layer = FlowLayer(1, "dsf", d=4, hidden=(8,), seed=0)
        cond = layer.conditioner
        cond.biases[0].data = np.random.default_rng(0).normal(size=8)
        assert list(cond.live) == [True]
        params = layer.parameters()
        dg.zero_grad(params)
        dg.backward(mle_loss(np.random.default_rng(1).normal(size=(64, 1)), FlowStack([layer])))
        assert np.all(cond.weights[0].grad == 0.0)
        assert np.any(cond.weights[1].grad != 0.0) and np.any(cond.biases[0].grad != 0.0)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_backward_matches_finite_differences(self, m):
        layer = perturbed_layer(m, "dsf", (6,), None, seed=m)
        x = np.random.default_rng(m).normal(size=(7, m))
        w = np.random.default_rng(m + 1).normal(size=(7, m))

        def loss():
            y, ld = go.layer_op(layer, x)  # the training pass over the layer's own parameters
            return go.root(go.vsum(go.mul(y, w)) + go.vsum(ld))

        assert dg.check_gradients(loss, layer.conditioner.parameters(), eps=1e-5) < 1e-4
