import math

import numpy as np
import pytest

import graph_ops as go
from conftest import counted_solves, cwn_log
from nafkit import diffgraph as dg
from nafkit import stablemath as sm
from nafkit import transformer as tf
from nafkit.errors import DomainError, NumericError, RangeError, SaturationError
from nafkit.flow import FlowLayer, FlowStack
from nafkit.training import mle_loss

LN2 = math.log(2.0)


def fd_slope(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2 * h)


def a_pre(a):
    """The a_pre entries that softplus decodes to the activated slopes a."""
    return [sm.softplus_inv(v - sm.DELTA) for v in np.atleast_1d(a)]


def affine(kind, mu, s):
    """An affine family of the kind ("exp" or "gate") and its block row (mu, s)."""
    return tf.family(f"affine-{kind}")(), np.array([mu, s])


def dsf(w, a, b):
    """A Dsf family and the block row decoding to simplex w, slopes a, biases b."""
    return tf.Dsf(len(w)), np.concatenate([np.log(w), a_pre(a), b])


def ddsf(layers):
    """A Ddsf family and block row decoding to activated (u, w, a, b) per layer.

    vu = log u and vw = log w, with eta = 0 in the block.
    """
    fam = tf.Ddsf(dims=(1, *(len(a) for _, _, a, _ in layers)))
    row = []
    for (u, w, a, b), vu, vw in zip(layers, fam.v_u, fam.v_w):
        vu.data, vw.data = np.log(u), np.log(w)
        row += [np.zeros(vu.shape[1]), a_pre(a), b]
    return fam, np.concatenate(row)


def scalar_forward(fam, row, x):
    """(y, log dy/dx) as floats at one scalar x; the block row is its one column."""
    (y,), (ld,) = fam.forward(np.array([float(x)]), np.asarray(row)[:, None])
    return float(y), float(ld)


class TestAffine:
    def test_exp_identity(self):
        assert scalar_forward(*affine("exp", 0.0, 0.0), 7.0) == (7.0, 0.0)

    def test_gate_saturates_to_identity(self):
        y, ld = scalar_forward(*affine("gate", 3.0, 50.0), 2.0)
        assert y == pytest.approx(2.0, abs=1e-12)
        assert ld == pytest.approx(0.0, abs=1e-5)

    def test_gate_hand_evaluation(self):
        # 0.5*2 + 0.5*4 = 3; slope sigmoid(0) = 0.5
        fam, row = affine("gate", 4.0, 0.0)
        y, ld = scalar_forward(fam, row, 2.0)
        assert y == pytest.approx(3.0, abs=1e-12)
        assert ld == pytest.approx(-LN2, abs=2e-6)
        fn = tf.forward_closure(fam, row)
        assert math.exp(ld) == pytest.approx(fd_slope(fn, 2.0), rel=1e-5)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            tf.family("affine-cube")


class TestDsfForward:
    def test_single_unit_is_identity(self):
        fam, row = dsf([1.0], [1.0], [0.0])
        for x in (-3.0, 0.0, 2.5):
            y, ld = scalar_forward(fam, row, x)
            assert y == pytest.approx(x, abs=1e-12)
            assert ld == pytest.approx(0.0, abs=1e-12)

    def test_identical_units_collapse(self):
        y, ld = scalar_forward(*dsf([0.5, 0.5], [1.0, 1.0], [0.0, 0.0]), 1.7)
        assert y == pytest.approx(1.7, abs=1e-12)
        assert ld == pytest.approx(0.0, abs=1e-12)

    def test_hand_derived_slope(self):
        # D = 0.5, dy/dx = (0.5*2*0.25 + 0.5*1*0.25) / (0.5*0.5) = 1.5
        fam, row = dsf([0.5, 0.5], [2.0, 1.0], [0.0, 0.0])
        y, ld = scalar_forward(fam, row, 0.0)
        assert y == pytest.approx(0.0, abs=1e-12)
        assert ld == pytest.approx(0.4054651081081644, abs=1e-12)
        fn = tf.forward_closure(fam, row)
        assert math.exp(ld) == pytest.approx(fd_slope(fn, 0.0), rel=1e-7)

    def test_prelogit_stays_open_in_nominal_regime(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = 8
            w = rng.dirichlet(np.ones(d))
            w = np.maximum(w, 1e-12)
            w /= w.sum()
            fam, row = dsf(w, rng.uniform(0.1, 10.0, d), rng.uniform(-10, 10, d))
            y = tf.forward_closure(fam, row)(np.linspace(-30, 30, 41))  # must not raise
            assert np.all(np.isfinite(y))

    def test_saturation_error_names_magnitude(self):
        fn = tf.forward_closure(*dsf([0.5, 0.5], [5.0, 5.0], [0.0, 0.0]))
        with pytest.raises(SaturationError) as exc:
            fn(1e4)
        assert exc.value.magnitude == pytest.approx(1e4)


def composite_dsf(x, block, d):
    """The dsf transformer spelled out in oracle ops (graph_ops), one node per step;
    x (B,) and the block (3d, B), components leading as in the kernel."""
    w_pre, a_pre, b = (go.take(block, (slice(k * d, (k + 1) * d), slice(None)))
                       for k in range(3))
    log_w = go.logsoftmax(w_pre, axis=0)
    a = go.softplus(a_pre)
    C = a * go.reshape(x, (1, x.shape[0])) + b
    ls_pos, ls_neg = go.logsigmoid(C), go.logsigmoid(-C)
    log_num = go.logsumexp(log_w + ls_pos, axis=0)
    log_den = go.logsumexp(log_w + ls_neg, axis=0)
    tf._check_saturation(np.stack([log_num.data, log_den.data]), x.data)
    logdet = go.logsumexp(log_w + go.log(a) + ls_pos + ls_neg, axis=0) - (log_num + log_den)
    return log_num - log_den, logdet


def _lse(t, axis=0):
    """logsumexp of a complex array over axis, shifted by its real max."""
    m = np.max(t.real, axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.sum(np.exp(t - m), axis=axis, keepdims=True)), axis=axis)


def _softplus(z):
    return np.where(z.real > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z))) + sm.DELTA


def dsf_objective(fam, g_y, g_ld):
    """sum(g_y y + g_ld logdet) per point by composite_dsf's log-space formulas,
    on complex x (B,) and block (3d, B); the family has no parameters."""
    d = fam.d

    def objective(x, blk):
        w_pre, a_pre, b = blk[:d], blk[d:2 * d], blk[2 * d:]
        log_w = w_pre - _lse(w_pre)
        a = _softplus(a_pre)
        C = a * x + b
        ls_pos, ls_neg = -_softplus(-C), -_softplus(C)
        log_num, log_den = _lse(log_w + ls_pos), _lse(log_w + ls_neg)
        logdet = _lse(log_w + np.log(a) + ls_pos + ls_neg) - (log_num + log_den)
        return g_y * (log_num - log_den) + g_ld * logdet
    return objective


def ddsf_objective(fam, g_y, g_ld):
    """sum(g_y y + g_ld logdet) per point by composite_ddsf's log-space formulas,
    on complex x (B,) and block (width, B)."""
    def objective(x, blk):
        h, r = x[None, :], np.zeros((1, x.shape[0]))
        for (eta, a_pre, b), vu, vw in zip(fam.slices, fam.v_u, fam.v_w):
            vu, vw = vu.data, vw.data
            X = vu[:, :, None] + blk[eta][None]
            log_u = X - _lse(X, axis=1)[:, None, :]
            log_w = (vw - _lse(vw, axis=1)[:, None])[:, :, None]
            a = _softplus(blk[a_pre])
            C = a * np.sum(np.exp(log_u) * h[None], axis=1) + blk[b]
            ls_pos, ls_neg = -_softplus(-C), -_softplus(C)
            log_num, log_den = _lse(log_w + ls_pos[None], axis=1), _lse(log_w + ls_neg[None], axis=1)
            s = _lse(log_u + r[None], axis=1)
            link = _lse(log_w + (ls_pos + ls_neg + np.log(a) + s)[None], axis=1)
            h, r = log_num - log_den, link - (log_num + log_den)
        return g_y * h[0] + g_ld * r[0]
    return objective


def exact_grads(fam, xs, block, g_y, g_ld):
    """The x and block gradients of sum(g_y y + g_ld logdet), by complex step in
    np.clongdouble (h = 1e-30): the composites' log-space formulas, whose
    rounding in the wider mantissa stays below a float64 ulp. Each point reads
    only its own x and block column, so one evaluation per input row
    differentiates every point at once."""
    h = 1e-30
    objective = (dsf_objective if isinstance(fam, tf.Dsf) else ddsf_objective)(fam, g_y, g_ld)
    x, blk = xs.astype(np.clongdouble), block.astype(np.clongdouble)
    g_x = objective(x + 1j * h, blk).imag / h
    g_block = np.empty(block.shape, dtype=np.longdouble)
    for k in range(block.shape[0]):
        bumped = blk.copy()
        bumped[k] += 1j * h
        g_block[k] = objective(x, bumped).imag / h
    return g_x, g_block


def assert_grads_near_exact(fam, xs, block, g_y, g_ld, ref, got):
    """The kernel's x and block gradients (got[2:4]) lie within 1.5 times the
    composite's (ref[2:4]) largest error from exact_grads, or within 4 ulps of
    the largest exact entry; both errors are printed, in those ulps."""
    if np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant:
        pytest.skip("np.longdouble is float64 here, too narrow for an exact reference")
    exact = exact_grads(fam, xs, block, g_y, g_ld)
    for name, want, comp, have in zip(["x", "block"], exact, ref[2:], got[2:]):
        ulp = np.spacing(float(np.max(np.abs(want))))
        err_comp, err = (float(np.max(np.abs(v - want))) for v in (comp, have))
        print(f"{name}: max |error| composite {err_comp / ulp:.1f} ulps, "
              f"kernel {err / ulp:.1f} ulps")
        assert err <= max(1.5 * err_comp, 4.0 * ulp), name


def op_results(fn, fam, xs, block, g_y, g_ld):
    """y, logdet and the gradients of x, the block and each of fam's parameters."""
    dg.zero_grad(fam.params)
    x, blk = go.Node(xs), go.Node(block)
    y, ld = fn(x, blk)
    go.backward(go.vsum(y * g_y) + go.vsum(ld * g_ld))
    return [y.data, ld.data, x.grad, blk.grad, *(p.grad for p in fam.params)]


def adjoint_results(fam, xs, block, g_y, g_ld):
    """op_results' list from fam's kernel and hand adjoint."""
    p = fam.decode(block)
    y, ld, saved = fam.core(xs, p)
    return [y, ld, *fam.adjoint(g_y, g_ld, xs, block, p, saved)]


def assert_layer_paths_agree(layer, x):
    """A layer's forward (row blocks) and its training pass (the whole batch at
    once) give the same bytes."""
    rng = np.random.default_rng(5)
    for p in layer.parameters():
        p.data = p.data + rng.normal(scale=0.4, size=p.shape)
    y, ld = layer.forward(x)
    y_saved, ld_saved, _ = layer.forward_saved(x)
    assert y.tobytes() == y_saved.tobytes() and ld.tobytes() == ld_saved.tobytes()


class TestDsfOp:
    """The dsf kernel and its hand adjoint against the same transformer built from ops."""

    def test_gradients_match_composite(self):
        rng = np.random.default_rng(21)
        B, d = 256, 16
        # random_params("dsf") scale: w_pre ~ N(0,1), a_pre ~ N(0.5,1), b ~ 2 N(0,1)
        block = np.concatenate([rng.normal(size=(B, d)), rng.normal(size=(B, d)) + 0.5,
                                rng.normal(size=(B, d)) * 2.0], axis=1)
        block[: B // 2, 2 * d] = 30.0 * rng.choice([-1.0, 1.0], size=B // 2)
        block = block.T  # (3d, B): one column per point
        xs = rng.uniform(-3.0, 3.0, size=B)
        g_y, g_ld = rng.normal(size=B), rng.normal(size=B)
        fam = tf.Dsf(d)
        ref = op_results(lambda x, blk: composite_dsf(x, blk, d), fam, xs, block, g_y, g_ld)
        got = adjoint_results(fam, xs, block, g_y, g_ld)
        # y and logdet agree to rounding, not in bytes: the kernel sums the
        # mixture in linear space, the composite in log space
        for want, have in zip(ref[:2], got[:2]):
            np.testing.assert_allclose(have, want, rtol=1e-12, atol=0.0)
        assert_grads_near_exact(fam, xs, block, g_y, g_ld, ref, got)

    def test_floor_straddling_columns_match_composite(self):
        # columns whose D or 1-D sits just above the floor (summed in linear
        # space) or below it (taken in log space), at test_gradients_match_
        # composite's tolerances. logdet = log R - log D - log(1-D) cancels
        # terms down to -700 there, each rounded to its own ulp (1.1e-13) in
        # the linear sum's log, so logdet alone also allows four of those
        # ulps (measured: two). The gradients are held to the exact ones
        rng = np.random.default_rng(51)
        B, d = 132, 8
        fam, block = straddling_dsf(rng, B, d)
        xs = rng.uniform(-1.0, 1.0, size=B)
        assert_straddles(fam, xs, block)
        g_y, g_ld = rng.normal(size=B), rng.normal(size=B)
        ref = op_results(lambda x, blk: composite_dsf(x, blk, d), fam, xs, block, g_y, g_ld)
        got = adjoint_results(fam, xs, block, g_y, g_ld)
        for name, want, have in zip(["y", "logdet"], ref, got):
            atol = 4.0 * np.spacing(700.0) if name == "logdet" else 0.0
            np.testing.assert_allclose(have, want, rtol=1e-12, atol=atol, err_msg=name)
        assert_grads_near_exact(fam, xs, block, g_y, g_ld, ref, got)

    def test_saturated_units_match_composite(self):
        # every unit saturates, half on each side, so each w a s(C) s(-C) and
        # their sum R lie below the floor (taken in log space) while D and 1-D
        # stay near 1/2; at test_gradients_match_composite's tolerances, and
        # the gradients held to the exact ones
        rng = np.random.default_rng(56)
        B, d = 64, 8
        fam, block = saturated_dsf(rng, B, d)
        xs = rng.uniform(-1.0, 1.0, size=B)
        C = sm.softplus(block[d:2 * d]) * xs + block[2 * d:]
        assert np.all(sm.logsigmoid(C) + sm.logsigmoid(-C) < np.log(tf._FLOOR))
        assert min(np.min(pair) for pair in oracle_pairs(fam, xs, block)) > -5.0
        g_y, g_ld = rng.normal(size=B), rng.normal(size=B)
        ref = op_results(lambda x, blk: composite_dsf(x, blk, d), fam, xs, block, g_y, g_ld)
        got = adjoint_results(fam, xs, block, g_y, g_ld)
        assert np.all(ref[1] < -600.0)
        for name, want, have in zip(["y", "logdet"], ref, got):
            np.testing.assert_allclose(have, want, rtol=1e-12, atol=0.0, err_msg=name)
        assert_grads_near_exact(fam, xs, block, g_y, g_ld, ref, got)

    def test_numpy_path_matches_graph_values(self):
        x = np.random.default_rng(3).normal(size=(8, 2))
        assert_layer_paths_agree(FlowLayer(2, "dsf", d=4, hidden=(8,)), x)

    def test_graph_saturation_names_layer_dimension_and_point(self):
        stack = FlowStack.build(m=2, kind="dsf", d=16, seed=0)
        batch = np.array([[0.0, 0.0], [0.1, -0.2], [0.3, 0.1], [0.0, 1e4]])
        with pytest.raises(SaturationError) as exc:
            mle_loss(batch, stack)
        assert str(exc.value).startswith("layer0, dimension 1, batch point 3: ")
        assert (exc.value.dim, exc.value.index) == (1, 7)


def middle_slope_ddsf():
    """A (1, 2, 2, 1) ddsf whose layer 0 maps x near onto itself and whose layer 1's
    slope 10 saturates at |x| = 70.8; layer 2's slope 0.1 keeps its C = 0.1 h
    near +-70.8 there, clear of the log-space composite's guard."""
    return ddsf([(np.ones((2, 1)), np.full((2, 2), 0.5), np.ones(2), np.zeros(2)),
                 (np.full((2, 2), 0.5), np.full((2, 2), 0.5), np.full(2, 10.0), np.zeros(2)),
                 (np.full((1, 2), 0.5), np.ones((1, 1)), np.full(1, 0.1), np.zeros(1))])


def identity_ddsf_layers(d):
    """(u, w, a, b) per layer of a (1, d, 1) ddsf that is the identity map."""
    return [(np.ones((d, 1)), np.full((d, d), 1.0 / d), np.ones(d), np.zeros(d)),
            (np.full((1, d), 1.0 / d), np.ones((1, 1)), np.ones(1), np.zeros(1))]


class TestDdsf:
    def test_single_layer_identity(self):
        fam, row = ddsf([(np.ones((1, 1)), np.ones((1, 1)), np.ones(1), np.zeros(1))])
        y, ld = scalar_forward(fam, row, 0.85)
        assert y == pytest.approx(0.85, abs=1e-12)
        assert ld == pytest.approx(0.0, abs=1e-12)

    def test_two_layer_identity_composition(self):
        fam, row = ddsf(identity_ddsf_layers(2))
        for x in (-2.0, 0.0, 1.3):
            y, ld = scalar_forward(fam, row, x)
            assert y == pytest.approx(x, abs=1e-10)
            assert ld == pytest.approx(0.0, abs=1e-10)

    def test_seeded_random_logdet_matches_fd(self):
        # dims (1, 2, 1), fixed seed, x = 0.3
        fam, row = tf.random_params("ddsf", np.random.default_rng(7), dims=(1, 2, 1))
        _, ld = scalar_forward(fam, row, 0.3)
        fd = fd_slope(tf.forward_closure(fam, row), 0.3)
        assert math.exp(ld) == pytest.approx(fd, rel=1e-5)

    def test_dims_must_chain(self):
        for dims in ((2, 1), (1, 2), (1,), (1, 0, 1)):
            with pytest.raises(DomainError):
                tf.Ddsf(dims=dims)

    def test_one_unit_sublayer_is_affine_bit_for_bit(self):
        # w = [[1]]: log s(C) - log s(-C) = C and its log-derivative is log a,
        # taken without a sigmoid or a log, on every path
        fam, row = ddsf([(np.ones((1, 1)), np.ones((1, 1)), np.full(1, 2.5), np.full(1, -0.7))])
        xs = np.linspace(-400.0, 400.0, 81)
        block = np.broadcast_to(row[:, None], (3, xs.size))
        a = sm.softplus(row[1])
        want_y, want_ld = (a * xs + row[2]).tobytes(), np.full(xs.size, np.log(a)).tobytes()
        p = fam.decode(block)
        for y, ld in (fam.forward(xs, block), fam.core(xs, p)[:2]):
            assert (y.tobytes(), ld.tobytes()) == (want_y, want_ld)
        assert fam.core(xs, p, logdet=False).tobytes() == want_y

    def test_one_unit_sublayer_inverts_past_the_old_guard(self):
        # slope 10 at x = 80: C = 800, whose log(1-D) = -800 the log-space
        # composite's guard rejects, but no log is taken here
        fam, row = ddsf([(np.ones((1, 1)), np.ones((1, 1)), np.full(1, 10.0), np.zeros(1))])
        xs = np.array([80.0, -80.0, 0.5])
        block = np.broadcast_to(row[:, None], (3, xs.size))
        with pytest.raises(SaturationError):
            composite(fam, xs, block)
        ys, _ = fam.forward(xs, block)
        np.testing.assert_allclose(ys, 10.0 * xs, rtol=1e-6)
        np.testing.assert_allclose(fam.inverse(ys, block), xs, rtol=0.0, atol=1e-12)

    def test_saturation_error_carries_layer_index(self):
        fam, row = ddsf([(np.ones((2, 1)), np.full((2, 2), 0.5), np.full(2, 10.0), np.zeros(2)),
                         (np.full((1, 2), 0.5), np.ones((1, 1)), np.ones(1), np.zeros(1))])
        with pytest.raises(SaturationError) as exc:
            scalar_forward(fam, row, 500.0)
        assert exc.value.layer == 0


def composite_ddsf(x, block, fam):
    """The ddsf transformer spelled out in oracle ops (graph_ops), one node per step;
    x (B,) and the block (width, B), components leading as in the kernel.

    CWN's u is formed in full as the (d_out, d_in, B) logsoftmax of
    vu + eta over d_in, u @ h as a sum over that tensor, and
    log(u @ exp r) as a logsumexp over it; each w product is a shared
    log_dot_exp.
    """
    B, cols = x.shape[0], slice(None)
    h, r = go.reshape(x, (1, B)), np.zeros((1, B))
    for li, ((eta, a_pre, b), vu, vw) in enumerate(zip(fam.slices, fam.v_u, fam.v_w)):
        d_out, d_in = vu.shape
        log_u = go.logsoftmax(go.reshape(vu, (d_out, d_in, 1))
                              + go.reshape(block[eta, cols], (1, d_in, B)), axis=1)
        w = go.exp(go.logsoftmax(vw, axis=-1))
        a = go.softplus(block[a_pre, cols])
        C = a * go.vsum(go.exp(log_u) * go.reshape(h, (1, d_in, B)), axis=1) + block[b, cols]
        ls_pos, ls_neg = go.logsigmoid(C), go.logsigmoid(-C)
        log_num, log_den = go.log_dot_exp(w, ls_pos), go.log_dot_exp(w, ls_neg)
        tf._check_saturation(np.stack([log_num.data, log_den.data]), x.data, layer=li)
        h = log_num - log_den
        s = go.logsumexp(log_u + go.reshape(r, (1, d_in, B)), axis=1)
        r = go.log_dot_exp(w, ls_pos + ls_neg + go.log(a) + s) - (log_num + log_den)
    return h[0, cols], r[0, cols]


def random_ddsf(rng, dims, B, scale=1.0):
    """A Ddsf family with N(0, scale) vu and vw, and a (width, B) block at
    random_params scale."""
    fam = tf.Ddsf(dims=dims)
    for p in fam.params:
        p.data = rng.normal(size=p.data.shape) * scale
    block = rng.normal(size=(B, fam.width)) + fam.offset
    for eta, _, b in fam.slices:
        block[:, eta] *= scale
        block[:, b] *= 2.0
    return fam, block.T


# Unit biases that put a column's D or 1-D (log about -|bias|) on both sides of
# the linear sums' floor, log(2**-960) ~ -665.4, and well inside the guard.
FLOOR_LEVELS = (-662.0, -664.5, -666.0, -668.0, -700.0, 662.0, 664.5, 666.0, 668.0, 700.0, 0.0)
UNIT_SLOPE = sm.softplus_inv(1.0 - sm.DELTA)  # the a_pre that softplus decodes to 1


def straddling_dsf(rng, B, d, levels=FLOOR_LEVELS):
    """A Dsf family and a (3d, B) block at random_row scale, but with slopes near
    1 and every unit's bias near its column's level (0 keeps random biases)."""
    fam = tf.Dsf(d)
    block = np.stack([fam.random_row(rng) for _ in range(B)], axis=1)
    level = np.resize(levels, B)
    at = level != 0.0
    block[d:2 * d, at] = UNIT_SLOPE + rng.normal(scale=0.05, size=(d, at.sum()))
    block[2 * d:, at] = level[at] + rng.normal(scale=0.5, size=(d, at.sum()))
    return fam, block


def saturated_dsf(rng, B, d):
    """A Dsf family and a (3d, B) block at random_row scale, but with slopes near
    1 and biases near +700 on half the units and -700 on the other half."""
    fam = tf.Dsf(d)
    block = np.stack([fam.random_row(rng) for _ in range(B)], axis=1)
    block[d:2 * d] = UNIT_SLOPE + rng.normal(scale=0.05, size=(d, B))
    block[2 * d:] = np.resize([700.0, -700.0], d)[:, None] + rng.normal(scale=0.5, size=(d, B))
    return fam, block


def straddling_ddsf(rng, B, dims=(1, 4, 3, 1), levels=FLOOR_LEVELS):
    """random_ddsf's family and block, where in each column one sublayer (in turn,
    or none) has slopes near 1 and biases near the column's level, and every
    later sublayer slopes of 1e-3, which bring its +-700 inputs back near 0."""
    fam, block = random_ddsf(rng, dims, B)
    level = np.resize(levels, B)
    which = np.resize(np.arange(len(fam.slices) + 1), B)
    for li, (_, a_pre, b) in enumerate(fam.slices):
        at, after = (which == li) & (level != 0.0), which < li
        n = at.sum()
        block[a_pre, at] = UNIT_SLOPE + rng.normal(scale=0.05, size=(b.stop - b.start, n))
        block[b, at] = level[at] + rng.normal(scale=0.5, size=(b.stop - b.start, n))
        block[a_pre, after] = sm.softplus_inv(1e-3)
    return fam, block


def composite(fam, xs, block):
    """The (y, logdet) nodes of fam's composite on arrays xs (B,) and block (width, B)."""
    x, blk = go.Node(xs), go.Node(block)
    return composite_dsf(x, blk, fam.d) if isinstance(fam, tf.Dsf) else composite_ddsf(x, blk, fam)


def oracle_pairs(fam, xs, block):
    """The log-space [log D; log(1-D)] of each sublayer, from the composite's own
    guard calls (one for dsf)."""
    pairs = []
    check = tf._check_saturation

    def record(pair, x, layer=None):
        pairs.append(pair)
        check(pair, x, layer)

    tf._check_saturation = record
    try:
        composite(fam, xs, block)
    finally:
        tf._check_saturation = check
    return pairs


def assert_straddles(fam, xs, block):
    """Some entries of the composite's pairs lie below the floor and some above it
    but below -600, so both sides of the floor are exercised."""
    low = np.concatenate([p.ravel() for p in oracle_pairs(fam, xs, block)])
    floor = np.log(tf._FLOOR) - sm.DELTA
    assert np.sum(low < floor) >= 5 and np.sum((low >= floor) & (low < -600.0)) >= 5
    assert np.min(low) > tf.LOG_UNDERFLOW


class TestDdsfOp:
    """The ddsf kernel and its hand adjoint against the same transformer built from ops."""

    def test_gradients_match_composite(self):
        rng = np.random.default_rng(22)
        B = 256
        fam, block = random_ddsf(rng, (1, 16, 16, 1), B)
        xs = rng.uniform(-3.0, 3.0, size=B)
        g_y, g_ld = rng.normal(size=B), rng.normal(size=B)
        ref = op_results(lambda x, blk: composite_ddsf(x, blk, fam), fam, xs, block, g_y, g_ld)
        got = adjoint_results(fam, xs, block, g_y, g_ld)
        names = ["y", "logdet", "x", "block", *(p.name for p in fam.params)]
        worst = {}
        for name, want, have in zip(names, ref, got):
            floor = 1e-12 * np.max(np.abs(want))
            np.testing.assert_allclose(have, want, rtol=1e-9, atol=floor, err_msg=name)
            worst[name] = float(np.max(np.abs(have - want)))
        print("largest differences:", worst)
        assert not np.any(ref[names.index("layer.vu0")])  # a one-column u gets no gradient
        assert not np.any(got[names.index("layer.vu0")])

    def test_one_unit_sublayers_match_composite(self):
        # a width-1 sublayer inside the chain is closed-form too, and the one
        # after it has a one-column u; at test_gradients_match_composite's
        # tolerances, with an exact zero gradient for each one-unit vw
        rng = np.random.default_rng(28)
        B = 64
        fam, block = random_ddsf(rng, (1, 3, 1, 4, 1), B)
        assert [lay["w"] is None for lay in fam.decode(block)] == [False, True, False, True]
        xs = rng.uniform(-3.0, 3.0, size=B)
        g_y, g_ld = rng.normal(size=B), rng.normal(size=B)
        ref = op_results(lambda x, blk: composite_ddsf(x, blk, fam), fam, xs, block, g_y, g_ld)
        got = adjoint_results(fam, xs, block, g_y, g_ld)
        names = ["y", "logdet", "x", "block", *(p.name for p in fam.params)]
        for name, want, have in zip(names, ref, got):
            np.testing.assert_allclose(have, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)),
                                       err_msg=name)
        for name in ("layer.vw1", "layer.vw3"):
            assert not np.any(got[names.index(name)])

    def test_floor_straddling_columns_match_composite(self):
        # each sublayer in turn puts D or 1-D around the floor, at
        # test_gradients_match_composite's tolerances
        rng = np.random.default_rng(52)
        B = 176
        fam, block = straddling_ddsf(rng, B)
        xs = rng.uniform(-1.0, 1.0, size=B)
        assert_straddles(fam, xs, block)
        g_y, g_ld = rng.normal(size=B), rng.normal(size=B)
        ref = op_results(lambda x, blk: composite_ddsf(x, blk, fam), fam, xs, block, g_y, g_ld)
        got = adjoint_results(fam, xs, block, g_y, g_ld)
        names = ["y", "logdet", "x", "block", *(p.name for p in fam.params)]
        for name, want, have in zip(names, ref, got):
            np.testing.assert_allclose(have, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)),
                                       err_msg=name)

    @pytest.mark.parametrize("sublayer", [0, 1])
    def test_saturated_sublayer_matches_composite(self, sublayer):
        # one sublayer's units all saturate, half on each side: every s(C) s(-C)
        # is below the floor, so its chain link's sums are, and each column's
        # link is taken in log space, while D and 1-D stay near 1/2; at
        # test_gradients_match_composite's tolerances
        rng = np.random.default_rng(57 + sublayer)
        B = 64
        fam, block = random_ddsf(rng, (1, 4, 3, 1), B)
        _, a_pre, b = fam.slices[sublayer]
        units = b.stop - b.start
        block[a_pre] = UNIT_SLOPE + rng.normal(scale=0.05, size=(units, B))
        block[b] = np.resize([700.0, -700.0], units)[:, None] + rng.normal(scale=0.5, size=(units, B))
        xs = rng.uniform(-1.0, 1.0, size=B)
        sig = []
        check = tf._sigmoids
        with pytest.MonkeyPatch.context() as mp:  # record each sublayer's C
            mp.setattr(tf, "_sigmoids", lambda C, *w: sig.append(C) or check(C, *w))
            fam.core(xs, fam.decode(block))
        C = sig[sublayer]
        assert np.all(sm.logsigmoid(C) + sm.logsigmoid(-C) < np.log(tf._FLOOR))
        assert np.min(oracle_pairs(fam, xs, block)[sublayer]) > -5.0
        g_y, g_ld = rng.normal(size=B), rng.normal(size=B)
        ref = op_results(lambda x, blk: composite_ddsf(x, blk, fam), fam, xs, block, g_y, g_ld)
        got = adjoint_results(fam, xs, block, g_y, g_ld)
        assert np.all(ref[1] < -600.0)
        names = ["y", "logdet", "x", "block", *(p.name for p in fam.params)]
        for name, want, have in zip(names, ref, got):
            np.testing.assert_allclose(have, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)),
                                       err_msg=name)

    def test_numpy_path_matches_graph_values(self):
        rng = np.random.default_rng(4)
        fam, block = random_ddsf(rng, (1, 6, 5, 1), 32)
        xs = rng.normal(size=32)
        y, _ = fam.forward(xs, block)
        assert y.tobytes() == fam.core(xs, fam.decode(block))[0].tobytes()
        layer = FlowLayer(2, "ddsf", ddsf_dims=(1, 6, 5, 1), hidden=(8,))
        assert_layer_paths_agree(layer, rng.normal(size=(16, 2)))

    def test_graph_saturation_names_layer_dimension_and_point(self):
        stack = FlowStack.build(m=2, kind="ddsf", ddsf_dims=(1, 8, 8, 1), seed=0)
        batch = np.array([[0.0, 0.0], [0.1, -0.2], [0.3, 0.1], [0.0, 1e4]])
        with pytest.raises(SaturationError) as exc:
            mle_loss(batch, stack)
        assert str(exc.value).startswith("layer0, dimension 1, batch point 3: ")
        assert str(exc.value).endswith("in layer 0 (|x| up to 10000)")
        assert (exc.value.layer, exc.value.dim, exc.value.index) == (0, 1, 7)

    def test_normalizer_underflow_rows_in_log_space(self):
        # vu and eta spread over +-800 nats: the shifted normalizers Z and Q
        # of some rows fall below the smallest normal float
        rng = np.random.default_rng(23)
        B, d_out, d_in = 64, 6, 5
        vu = rng.uniform(-800.0, 800.0, size=(d_out, d_in))
        eta = rng.uniform(-800.0, 800.0, size=(B, d_in))
        h, r = rng.normal(size=(B, d_in)) * 3.0, rng.normal(size=(B, d_in)) * 3.0
        V = vu - np.max(vu, axis=1, keepdims=True)
        E = np.exp(V)
        cz, cq = tf._cwn_product(V, E, eta.T), tf._cwn_product(V, E, (eta + r).T)
        # (unit, point) entries recomputed in log space
        assert len(cz[3][0][0]) >= 10 and len(cq[3][0][0]) >= 10
        log_u = sm.logsoftmax_over_axis(vu + eta[:, None, :], -1)
        want_s = sm.logsumexp_over_axis(log_u + r[:, None, :], -1)
        want_uh = np.sum(np.exp(log_u) * h[:, None, :], axis=-1)
        # low products are NaN, and their logs come from their weights' normalizer
        assert np.all(np.isnan(cq[0][0][cq[3][0]])) and np.all(np.isnan(cz[0][0][cz[3][0]]))
        s = cwn_log(V, E, (eta + r).T) - cwn_log(V, E, eta.T)
        np.testing.assert_allclose(s, want_s.T, rtol=1e-12, atol=1e-12)
        # without pieces: the same product and shift, bytes and all, and nothing else
        (p_q, m_q), *pieces = tf._cwn_product(V, E, (eta + r).T, pieces=False)
        assert (p_q.tobytes(), m_q.tobytes()) == (cq[0][0].tobytes(), cq[0][1].tobytes())
        assert pieces == [None, None, None]
        np.testing.assert_allclose(tf._cwn_mix(h.T, E, cz), want_uh.T, rtol=1e-12, atol=1e-12)

    def test_normalizer_underflow_end_to_end(self):
        # the whole op in that regime: values match the composite to 1e-12,
        # and every gradient is finite (warnings fail the suite)
        rng = np.random.default_rng(24)
        fam, block = random_ddsf(rng, (1, 8, 8, 1), 64, scale=800.0 / 1.7)
        xs = rng.uniform(-3.0, 3.0, size=64)
        g_y, g_ld = rng.normal(size=64), rng.normal(size=64)
        ref = op_results(lambda x, blk: composite_ddsf(x, blk, fam), fam, xs, block, g_y, g_ld)
        got = adjoint_results(fam, xs, block, g_y, g_ld)
        for want, have in zip(ref[:2], got[:2]):
            np.testing.assert_allclose(have, want, rtol=1e-12, atol=1e-12)
        assert all(np.all(np.isfinite(g)) for g in got[2:])

    @pytest.mark.parametrize("scale", [1.0, 800.0 / 1.7], ids=["normal", "underflow"])
    def test_leading_axis_matches_each_slab(self, scale):
        # a flow layer runs its m dimensions as a leading axis: (m, width, B)
        # blocks give each slab's values, and parameter gradients summed over slabs
        rng = np.random.default_rng(26)
        fam, block = random_ddsf(rng, (1, 8, 8, 1), 64, scale=scale)
        block = np.stack([block[:, :32], block[:, 32:]])
        xs = rng.uniform(-3.0, 3.0, size=(2, 32))
        g_y, g_ld = rng.normal(size=(2, 32)), rng.normal(size=(2, 32))
        got = adjoint_results(fam, xs, block, g_y, g_ld)
        slabs = [adjoint_results(fam, xs[k], block[k], g_y[k], g_ld[k]) for k in range(2)]
        for i, have in enumerate(got):
            if i < 4:  # y, logdet, x and block: one slab each
                assert have.tobytes() == np.stack([s[i] for s in slabs]).tobytes()
            else:
                # summed in another order: entries that cancel to ~0 keep a residue
                # of a few ulps of the largest terms
                want = slabs[0][i] + slabs[1][i]
                np.testing.assert_allclose(have, want, rtol=1e-9, atol=1e-11 * np.max(np.abs(want)))

    def test_log_space_rows_match_composite(self, monkeypatch):
        # with no product counted normal, every row takes the log-space
        # path, forward and adjoint, and still matches the composite
        monkeypatch.setattr(tf, "_FLOOR", np.inf)
        rng = np.random.default_rng(25)
        fam, block = random_ddsf(rng, (1, 6, 5, 1), 48)
        xs = rng.uniform(-3.0, 3.0, size=48)
        g_y, g_ld = rng.normal(size=48), rng.normal(size=48)
        got = adjoint_results(fam, xs, block, g_y, g_ld)
        assert len(fam.decode(block)[1]["Z"][3][0][0]) == 48 * 5  # every (unit, point) entry
        monkeypatch.undo()
        ref = op_results(lambda x, blk: composite_ddsf(x, blk, fam), fam, xs, block, g_y, g_ld)
        for want, have in zip(ref, got):
            np.testing.assert_allclose(have, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)))


class TestYOnlyMode:
    """The kernels' y-only mode (logdet=False), which the inversion solver runs."""

    @staticmethod
    def assert_same_y(fam, xs, block):
        y = fam.core(xs, fam.decode(block), logdet=False)
        assert y.tobytes() == fam.forward(xs, block)[0].tobytes()

    def test_dsf_y_bits_match_forward(self):
        rng = np.random.default_rng(31)
        fam = tf.Dsf(d=8)
        block = np.stack([fam.random_row(rng) for _ in range(256)], axis=1)
        self.assert_same_y(fam, rng.uniform(-6.0, 6.0, size=256), block)

    def test_ddsf_y_bits_match_forward(self):
        rng = np.random.default_rng(32)
        fam, block = random_ddsf(rng, (1, 16, 16, 1), 256)
        self.assert_same_y(fam, rng.uniform(-6.0, 6.0, size=256), block)

    def test_ddsf_normalizer_underflow(self):
        # the +-800-nat block of TestDdsfOp, whose Z and Q underflow
        rng = np.random.default_rng(24)
        fam, block = random_ddsf(rng, (1, 8, 8, 1), 64, scale=800.0 / 1.7)
        assert any(lay["Z"] is not None and lay["Z"][3] is not None
                   for lay in fam.decode(block))
        self.assert_same_y(fam, rng.uniform(-3.0, 3.0, size=64), block)

    def test_ddsf_log_space_rows(self, monkeypatch):
        monkeypatch.setattr(tf, "_FLOOR", np.inf)  # every row in log space
        rng = np.random.default_rng(25)
        fam, block = random_ddsf(rng, (1, 6, 5, 1), 48)
        self.assert_same_y(fam, rng.uniform(-3.0, 3.0, size=48), block)

    @pytest.mark.parametrize("kind, scale", [("dsf", 1.0), ("ddsf", 1.0), ("ddsf", 800.0 / 1.7)],
                             ids=["dsf", "ddsf", "ddsf-underflow"])
    def test_m2_stack_y_bits_match_density_path(self, kind, scale):
        # a flow layer's (m, width, n) block: the pair stacks ahead of the m
        # axis, and y keeps the density path's bits, the +-800-nat block too
        rng = np.random.default_rng(33)
        if kind == "dsf":
            fam = tf.Dsf(d=8)
            block = np.stack([np.stack([fam.random_row(rng) for _ in range(96)], axis=1)
                              for _ in range(2)])
        else:
            fam, block = random_ddsf(rng, (1, 8, 8, 1), 192, scale=scale)
            block = np.stack([block[:, :96], block[:, 96:]])
            low = [lay["Z"][3] is not None for lay in fam.decode(block) if lay["Z"] is not None]
            assert any(low) == (scale > 1.0)
        xs = rng.uniform(-3.0, 3.0, size=(2, 96))
        self.assert_same_y(fam, xs, block)
        y_node = fam.core(xs, fam.decode(block))[0]
        assert y_node.tobytes() == fam.forward(xs, block)[0].tobytes()

    @pytest.mark.parametrize("family", ["random", "m2-stack", "saturated"])
    def test_dsf_slope_pass(self, family):
        # the Newton solver's pass: y keeps the y-only bits, and dy/dx is
        # exp(logdet) to 1e-12. On saturated units (biases +-700) it lies
        # below _FLOOR, and the solve returns the y-only solve's roots.
        rng = np.random.default_rng(35)
        if family == "saturated":
            fam, block = saturated_dsf(rng, 64, 8)
            xs = rng.uniform(-1.0, 1.0, size=64)
        else:
            fam = tf.Dsf(d=8)
            block = np.stack([fam.random_row(rng) for _ in range(192)], axis=1)
            xs = rng.uniform(-6.0, 6.0, size=192)
            if family == "m2-stack":
                block, xs = np.stack([block[:, :96], block[:, 96:]]), xs.reshape(2, 96)
        p = fam.decode(block)
        y, slope = fam.core(xs, p, a_w=p[2] / p[0])
        assert y.tobytes() == fam.core(xs, p, logdet=False).tobytes()
        np.testing.assert_allclose(slope, np.exp(fam.core(xs, p)[1]), rtol=1e-12, atol=0.0)
        if family == "saturated":
            assert np.all(slope < tf._FLOOR)
            y_only = tf.invert_batch(y, lambda t: fam.core(t, p, logdet=False))
            assert fam.inverse(y, block).tobytes() == y_only.tobytes()

    @pytest.mark.parametrize("make, layer", [
        (lambda: dsf([0.5, 0.5], [5.0, 5.0], [0.0, 0.0]), None),
        (middle_slope_ddsf, 1),
    ], ids=["dsf", "ddsf"])
    def test_same_saturation_error(self, make, layer):
        fam, row = make()
        xs = np.array([0.0, 1.0, 200.0, -3.0, -300.0])
        p = fam.decode(np.broadcast_to(row[:, None], (len(row), 5)))
        errors = []
        for logdet in (True, False):
            with pytest.raises(SaturationError) as exc:
                fam.core(xs, p, logdet=logdet)
            errors.append(exc.value)
        full, y_only = errors
        assert (full.layer, full.index, full.magnitude) == (layer, 2, 300.0)
        assert (y_only.layer, y_only.index, y_only.magnitude) == (layer, 2, 300.0)
        assert str(y_only) == str(full)

    @pytest.mark.parametrize("kind", ["dsf", "ddsf"])
    def test_m2_stack_same_saturation_error(self, kind):
        # on an (m, width, n) block the error names the first saturating
        # entry of x point-major, the same from the training kernel, the
        # density path and the solver's y-only mode
        rng = np.random.default_rng(34)
        if kind == "dsf":
            fam = tf.Dsf(d=4)
            block = np.stack([np.stack([fam.random_row(rng) for _ in range(5)], axis=1)
                              for _ in range(2)])
        else:
            fam, block = random_ddsf(rng, (1, 4, 4, 1), 10)
            block = np.stack([block[:, :5], block[:, 5:]])
        xs = rng.uniform(-1.0, 1.0, size=(2, 5))
        xs[1, 1], xs[0, 3] = 1e5, -2e5
        p = fam.decode(block)
        calls = [lambda: fam.core(xs, p), lambda: fam.forward(xs, block),
                 lambda: fam.core(xs, p, logdet=False)]
        errors = []
        for call in calls:
            with pytest.raises(SaturationError) as exc:
                call()
            errors.append(exc.value)
        for err in errors:
            assert (err.index, err.magnitude, str(err)) == (
                1 * 2 + 1, 2e5, str(errors[0]))
            assert err.layer == (None if kind == "dsf" else 0)


class TestLinearSums:
    """The sigmoid mixtures' sums, taken in linear space above the floor and in
    log space below it: every path gives the same y bits on both sides, and the
    guard is decided on log-space values, as the composites decide it."""

    @pytest.mark.parametrize("kind", ["dsf", "ddsf"])
    def test_floor_straddling_y_bits_match(self, kind):
        # the density path, the training kernel and the solver's y-only mode, per
        # (width, n) slab and on a flow layer's (m, width, n) block
        rng = np.random.default_rng(53)
        fam, block = straddling_dsf(rng, 176, 8) if kind == "dsf" else straddling_ddsf(rng, 176)
        xs = rng.uniform(-1.0, 1.0, size=176)
        assert_straddles(fam, xs, block)
        TestYOnlyMode.assert_same_y(fam, xs, block)
        assert fam.core(xs, fam.decode(block))[0].tobytes() == fam.forward(xs, block)[0].tobytes()
        blocks, xs2 = np.stack([block[:, :88], block[:, 88:]]), xs.reshape(2, 88)
        TestYOnlyMode.assert_same_y(fam, xs2, blocks)
        y2 = fam.core(xs2, fam.decode(blocks))[0]
        for k in range(2):
            assert y2[k].tobytes() == fam.forward(xs2[k], blocks[k])[0].tobytes()

    @pytest.mark.parametrize("make, edge", [
        (lambda: dsf([0.5, 0.5], [1.0, 1.0], [0.0, 0.0]), 708.0),  # the identity
        (middle_slope_ddsf, 70.8),
    ], ids=["dsf", "ddsf"])
    def test_guard_decided_on_log_space_values(self, make, edge):
        # point by point across the guard's edge on either side, then all at
        # once in shuffled order: every path raises where the log-space
        # composite does, with its layer, magnitude, index and message
        fam, row = make()
        grid = edge + np.linspace(-2e-6, 2e-6, 41)
        points = np.concatenate([grid, -grid])
        batches = [points[i:i + 1] for i in range(len(points))]
        batches.append(np.random.default_rng(55).permutation(points))
        raised = []
        for xs in batches:
            block = np.broadcast_to(row[:, None], (len(row), len(xs)))
            p = fam.decode(block)
            want = saturation(lambda: composite(fam, xs, block))
            for call in (lambda: fam.forward(xs, block), lambda: fam.core(xs, p),
                         lambda: fam.core(xs, p, logdet=False)):
                assert saturation(call) == want, xs
            raised.append(want is not None)
        assert 0 < sum(raised[:41]) < 41 and 0 < sum(raised[41:82]) < 41 and raised[-1]

    @pytest.mark.parametrize("kind", ["dsf", "ddsf"])
    def test_unguarded_saturation_keeps_log_space_values(self, kind, monkeypatch):
        # with the guard off (selftest --debug-no-guard), sums far below the
        # floor and past float range still come back as their log-space values.
        # Both adjoints' gradient weights on low entries, exp(t - log sum) from
        # the log-space terms, stay at most 1, so their gradients are as near
        # the exact ones as the composite's, also where 1/D would overflow
        # (log D < -709.78)
        monkeypatch.setattr(tf, "SATURATION_GUARD", False)
        levels = (-750.0, -1000.0, 750.0, 1000.0, 0.0)
        rng = np.random.default_rng(54)
        fam, block = (straddling_dsf(rng, 40, 4, levels) if kind == "dsf"
                      else straddling_ddsf(rng, 40, levels=levels))
        xs = rng.uniform(-1.0, 1.0, size=40)
        pairs = oracle_pairs(fam, xs, block)
        assert min(np.min(pair) for pair in pairs) < -900.0
        got = fam.core(xs, fam.decode(block))[:2]
        for want, have in zip(composite(fam, xs, block), got):
            np.testing.assert_allclose(have, want.data, rtol=1e-9,
                                       atol=1e-12 * np.max(np.abs(want.data)))
        g_y, g_ld = rng.normal(size=40), rng.normal(size=40)
        spelled = (lambda x, blk: composite_dsf(x, blk, fam.d)) if kind == "dsf" else (
            lambda x, blk: composite_ddsf(x, blk, fam))
        ref = op_results(spelled, fam, xs, block, g_y, g_ld)
        assert_grads_near_exact(fam, xs, block, g_y, g_ld, ref,
                                adjoint_results(fam, xs, block, g_y, g_ld))

    @pytest.mark.parametrize("guard, levels", [(True, FLOOR_LEVELS),
                                               (False, (-750.0, -1000.0, 750.0, 1000.0, 0.0))],
                             ids=["guarded", "unguarded"])
    def test_dsf_low_entry_weights_lie_in_unit_interval(self, guard, levels, monkeypatch):
        # the dsf adjoint weights a low entry's units by exp(t - log sum) from the
        # log-space terms _log_sum built, not by the linear sum's reciprocal:
        # each weight lies in [0, 1] and the gradients are finite, also where
        # 1/D overflows (log D < -709.78)
        monkeypatch.setattr(tf, "SATURATION_GUARD", guard)
        rng = np.random.default_rng(57)
        fam, block = straddling_dsf(rng, 40, 4, levels)
        xs = rng.uniform(-1.0, 1.0, size=40)
        deepest = min(np.min(pair) for pair in oracle_pairs(fam, xs, block))
        assert deepest < -709.78 if not guard else tf.LOG_UNDERFLOW < deepest < -690.0
        low, weights = [], tf._weights

        def recorded(v, inv, low_entries, out):
            got = weights(v, inv, low_entries, out)
            if low_entries is not None:
                low.append(np.moveaxis(got, -2, -1)[low_entries[0]])
            return got

        monkeypatch.setattr(tf, "_weights", recorded)
        grads = adjoint_results(fam, xs, block, rng.normal(size=40), rng.normal(size=40))[2:]
        assert len(low) == 2  # the mixture pair's and R's
        assert all(np.all((w >= 0.0) & (w <= 1.0)) for w in low)
        assert all(np.all(np.isfinite(g)) for g in grads)


def saturation(call):
    """(layer, index, magnitude, message) of the SaturationError call raises, or None."""
    try:
        call()
    except SaturationError as err:
        return err.layer, err.index, err.magnitude, str(err)
    return None


class TestOneColumnBlock:
    """A (width, 1) block, which the conditioner gives the dimension of degree 1,
    serves every point: its forward has the bits of that block broadcast over
    the points. A dsf or ddsf inverse starts from one table, not from the
    broadcast block's bracket, so it lands within 1e-12 of that block's; an
    affine inverse is closed-form and keeps the bits."""

    @staticmethod
    def assert_same_bits(fam, row, xs):
        one = np.asarray(row, dtype=float)[:, None]
        wide = np.broadcast_to(one, (len(row), len(xs)))
        for got, want in zip(fam.forward(xs, one), fam.forward(xs, wide)):
            assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes()
        ys = fam.forward(xs, wide)[0]
        back = fam.inverse(ys, wide)
        if isinstance(fam, tf.AffineExp):
            assert fam.inverse(ys, one).tobytes() == back.tobytes()
        assert np.max(np.abs(fam.inverse(ys, one) - back)) <= 1e-12

    @pytest.mark.parametrize("kind", ["affine-exp", "affine-gate", "dsf"])
    def test_same_bits_as_broadcast(self, kind):
        rng = np.random.default_rng(41)
        self.assert_same_bits(*tf.random_params(kind, rng, d=8), rng.uniform(-5, 5, size=300))

    @staticmethod
    def low_entry_ddsf(rng):
        """A ddsf and its block row whose layer 1 has low CWN entries: eta peaks in
        column 0, 800 nats above the others, and two rows of vu put -800 there."""
        fam, row = tf.random_params("ddsf", rng, dims=(1, 4, 3, 1))
        row[fam.slices[1][0]] = [800.0, 0.0, 0.0, 0.0]
        fam.v_u[1].data = np.array([[-800.0, 0, 0, 0], [-800.0, 1, 0, 0], [0.0, 0, 0, 0]])
        assert fam.decode(row[:, None])[1]["Z"][3] is not None
        return fam, row

    def test_ddsf_low_entries_same_bits_as_broadcast(self):
        # the low entries' CWN products underflow and are recomputed, and the
        # one-column block's low entries must stand for every point. (Elsewhere a
        # one-column product may round differently from a wide one.)
        rng = np.random.default_rng(42)
        self.assert_same_bits(*self.low_entry_ddsf(rng), rng.uniform(-5, 5, size=300))

    @pytest.mark.parametrize("kind", ["affine-exp", "affine-gate", "dsf", "ddsf", "ddsf-low"])
    def test_adjoint_matches_broadcast(self, kind):
        # a one-column block's adjoint gives the expanded block's gradients, the
        # block's per point, within 1e-12 (dsf's to the byte), low entries included
        rng = np.random.default_rng(43)
        fam, row = (self.low_entry_ddsf(rng) if kind == "ddsf-low"
                    else tf.random_params(kind, rng, d=8, dims=(1, 4, 3, 1)))
        xs, g_y, g_ld = rng.uniform(-5, 5, size=300), rng.normal(size=300), rng.normal(size=300)
        one = row[:, None]
        got = adjoint_results(fam, xs, one, g_y, g_ld)
        want = adjoint_results(fam, xs, np.repeat(one, xs.size, axis=1), g_y, g_ld)
        for have, ref in zip(got, want):
            have = np.broadcast_to(have, ref.shape)
            if kind == "dsf":
                assert have.tobytes() == ref.tobytes()
            np.testing.assert_allclose(have, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


def shared_family(name):
    """A family and its one block row: random, or with an edge the unit bound meets."""
    rng = np.random.default_rng(51)
    if name == "dsf":
        return tf.random_params("dsf", rng, d=8)
    if name == "ddsf":
        return tf.random_params("ddsf", rng, dims=(1, 16, 16, 1))
    if name == "ddsf-inner-one-unit":
        return tf.random_params("ddsf", rng, dims=(1, 4, 1, 4, 1))
    if name == "dsf-saturated":  # every unit saturated on [-5, 5]
        return dsf(np.full(8, 0.125), 1.0 + rng.uniform(-0.05, 0.05, 8), np.resize([700.0, -700.0], 8))
    if name == "ddsf-saturated":
        fam, row = tf.random_params("ddsf", rng, dims=(1, 8, 8, 1))
        row[fam.slices[0][2]] = np.resize([700.0, -700.0], 8)
        return fam, row
    if name == "dsf-tiny-a":  # a = DELTA: its bound reaches past the cap on both sides
        return tf.Dsf(3), np.concatenate([np.log([0.25, 0.5, 0.25]), [*a_pre([1.0, 2.0]), -50.0],
                                          [0.0, 0.5, 0.3]])
    # w = exp(-800) underflows to 0; its unit's b = -1000 puts the bound's hi at
    # about 1000, where the other units saturate: the table trips the guard
    fam = tf.Dsf(3)
    return fam, np.concatenate([[0.0, 0.0, -800.0], a_pre([1.0, 2.0, 1.0]), [0.0, 0.5, -1000.0]])


SHARED = ["dsf", "ddsf", "ddsf-inner-one-unit", "dsf-tiny-a", "dsf-underflowing-w"]


def raised(call):
    """(type, index, message) of the NumericError call raises."""
    with pytest.raises(NumericError) as exc:
        call()
    return type(exc.value), exc.value.index, str(exc.value)


class TestSharedTable:
    """A one-column block's inverse seats every target from one table over the x
    the unit bound allows, and solves as the broadcast block does from there."""

    @pytest.mark.parametrize("name", [*SHARED, "dsf-saturated", "ddsf-saturated"])
    def test_unit_bound_straddles_every_target(self, name, monkeypatch):
        # with the guard off every x has a log-space value to compare
        monkeypatch.setattr(tf, "SATURATION_GUARD", False)
        fam, row = shared_family(name)
        p = fam.decode(row[:, None])
        for seed in range(5):
            xs = np.random.default_rng(seed).uniform(-5.0, 5.0, size=200)
            ys = fam.core(xs, p, logdet=False)
            grid = tf._grid(ys, fam.units(p))
            assert len(grid) == tf.TABLE and np.all(np.diff(grid) >= 0.0)
            assert grid[0] <= xs.min() and grid[-1] >= xs.max()
            ends = fam.core(grid[[0, -1]], p, logdet=False)
            assert ends[0] <= ys.min() and ends[1] >= ys.max(), (name, seed)

    @pytest.mark.parametrize("name", SHARED)
    def test_same_x_as_repeated_column(self, name):
        fam, row = shared_family(name)
        xs = np.random.default_rng(52).uniform(-5.0, 5.0, size=300)
        one = row[:, None]
        wide = np.repeat(one, xs.size, axis=1)
        ys = fam.forward(xs, wide)[0]
        back = fam.inverse(ys, one)
        assert np.max(np.abs(back - fam.inverse(ys, wide))) <= 1e-12
        np.testing.assert_allclose(fam.forward(back, wide)[0], ys, rtol=0.0, atol=1e-12)

    def test_zero_width_table(self):
        # identical units bound every root of equal targets to one point, and
        # f rounds below y = 0.3 there: the bracket must still grow from it
        fam, row = dsf([0.5, 0.5], [1.0, 1.0], [0.0, 0.0])
        ys = np.full(3, 0.3)
        p = fam.decode(row[:, None])
        assert np.ptp(tf._grid(ys, fam.units(p))) == 0.0
        assert fam.core(np.array([0.3]), p, logdet=False)[0] < 0.3
        assert np.max(np.abs(fam.inverse(ys, row[:, None]) - 0.3)) <= 1e-12

    @pytest.mark.parametrize("kind", ["dsf", "ddsf"])
    def test_empty_batch(self, kind):
        # no target, no table: the unit bound has no smallest or largest target
        fam, row = tf.random_params(kind, np.random.default_rng(54))
        assert fam.inverse(np.empty(0), row[:, None]).shape == (0,)

    def test_table_is_one_forward_evaluation(self, monkeypatch):
        # the table goes through the solver's forward, and seats every target
        solves = counted_solves(monkeypatch)
        fam, row = shared_family("dsf")
        for n in (1, 300):
            xs = np.random.default_rng(53).uniform(-5.0, 5.0, size=n)
            ys = fam.forward(xs, row[:, None])[0]
            solves.clear()
            fam.inverse(ys, row[:, None])
            [calls] = solves
            assert calls[0] == tf.TABLE and calls[1:] == [n] * (len(calls) - 1)
            assert len(calls) <= 5

    @pytest.mark.parametrize("make, ys", [
        # unreachable: slopes of 2e-6 and 3e-6 keep y within +-10 on |x| <= 1e6
        (lambda: dsf([0.5, 0.5], [2e-6, 3e-6], [0.0, 0.0]), [0.2, 10.0, -10.0, 0.1]),
        (lambda: ddsf([(np.ones((2, 1)), np.full((2, 2), 0.5), np.array([2e-6, 3e-6]),
                        np.zeros(2)),
                       (np.full((1, 2), 0.5), np.ones((1, 1)), np.ones(1), np.zeros(1))]),
         [0.2, -10.0, 10.0, 0.1]),
        # past the guard
        (lambda: dsf([0.5, 0.5], [1.0, 1.0], [0.0, 0.0]), [0.0, 1e4, 3.0, 2.0]),
        (middle_slope_ddsf, [0.0, -1e4, 3.0, 2.0]),
        # non-finite targets
        (lambda: dsf([0.5, 0.5], [1.0, 2.0], [0.0, 0.0]), [0.5, np.nan, 0.1, np.inf]),
        (middle_slope_ddsf, [0.5, -np.inf, 0.1, np.nan]),
    ], ids=["range-dsf", "range-ddsf", "saturation-dsf", "saturation-ddsf",
            "nonfinite-dsf", "nonfinite-ddsf"])
    def test_same_error_as_repeated_column(self, make, ys, monkeypatch):
        fam, row = make()
        ys = np.array(ys)
        one = row[:, None]
        solves = counted_solves(monkeypatch)
        got = raised(lambda: fam.inverse(ys, one))
        # a non-finite target raises before any evaluation, the others after the table's
        assert solves[0][:1] == ([tf.TABLE] if np.isfinite(ys).all() else [])
        assert got == raised(lambda: fam.inverse(ys, np.repeat(one, ys.size, axis=1)))
        assert got[1] == 1


def solver_forward(fam, row, slope=True):
    """forward_closure(fam, row) of a Dsf, or with slope the (y, dy/dx) pair
    that Dsf.inverse solves on."""
    if not slope:
        return tf.forward_closure(fam, row)

    def fn(t):
        p = fam.decode(np.broadcast_to(np.asarray(row)[:, None], (len(row), t.size)))
        return tf._dsf_core(t, p, a_w=p[2] / p[0])
    return fn


def with_slope(fn, dfn, slope):
    """fn, or with slope the pair (fn, dfn) that a Newton solve reads."""
    return (lambda t: (fn(t), dfn(t))) if slope else fn


def tanh_slope(t):
    return 1.0 - np.tanh(t) ** 2


# Each error and budget test below runs the y-only (Newton on secant slopes)
# and the slope-returning (Newton on the forward's slopes) solve in turn,
# keeping one test id.
SOLVERS = (False, True)


class TestInvert:
    def test_identity_dsf(self):
        fn = tf.forward_closure(*dsf([1.0], [1.0], [0.0]))
        assert tf.invert_batch([0.37], fn)[0] == pytest.approx(0.37, abs=1e-10)

    def test_affine_exp_closed_form(self):
        fn = tf.forward_closure(*affine("exp", 1.0, math.log(2.0)))
        assert tf.invert_batch([5.0], fn)[0] == pytest.approx(2.0, abs=1e-10)

    def test_round_trip_thousand_points(self):
        fn = tf.forward_closure(*dsf([0.5, 0.5], [2.0, 1.0], [0.0, 0.0]))
        assert tf.invert_batch([0.0], fn)[0] == pytest.approx(0.0, abs=1e-10)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-4, 4, size=1000)
        ys = fn(xs)
        back = tf.invert_batch(ys, fn)
        assert np.max(np.abs(back - xs)) <= 1e-8

    def test_bracket_expansion_beyond_hint(self):
        # y = 250 lies past the table's one cell [-1, 1] (f = 99 and 101): the
        # bracket expands up from that cell, first to hi = 1 + 2 * 2
        fn, seen = tf.forward_closure(*affine("exp", 100.0, 0.0)), []

        def recorded(t):
            seen.append(np.array(t))
            return fn(t)

        assert tf.invert_batch([250.0], recorded, table=np.array([-1.0, 1.0]))[0] == \
            pytest.approx(150.0, abs=1e-8)
        assert seen[0].tolist() == [-1.0, 1.0] and seen[1].tolist() == [5.0]

    def test_range_error_when_unreachable(self):
        for slope in SOLVERS:
            fn = solver_forward(*dsf([0.5, 0.5], [1.0, 1.0], [0.0, 0.0]), slope)
            # identical units make the identity; inversion solves the same
            # guarded forward, which reaches far past 100
            assert tf.invert_batch([100.0], fn)[0] == pytest.approx(100.0, abs=1e-8)
            # tanh stays below 1 on every |x| <= 1e6
            with pytest.raises(RangeError) as exc:
                tf.invert_batch([0.5, 2.0], with_slope(np.tanh, tanh_slope, slope))
            assert exc.value.index == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_target_raises_before_any_evaluation(self, bad):
        for slope in SOLVERS:
            fn, calls = counted(with_slope(np.tanh, tanh_slope, slope))
            with pytest.raises(RangeError) as exc:
                tf.invert_batch([0.5, bad], fn)
            assert exc.value.index == 1 and calls[0] == 0

    def test_reach_is_the_guarded_forward(self):
        # the identity dsf maps |x| up to the guard (about 708) onto itself;
        # a bracket probe past the guard is pulled back, not raised
        for slope in SOLVERS:
            fn = solver_forward(*dsf([0.5, 0.5], [1.0, 1.0], [0.0, 0.0]), slope)
            ys = np.array([-600.0, 3.0, 700.0])
            assert np.max(np.abs(tf.invert_batch(ys, fn) - ys)) <= 1e-8
            with pytest.raises(SaturationError):
                tf.invert_batch([1e4], fn)

    def test_target_past_guard_raises_within_budget(self):
        # a probe that trips the guard also shortens the next step, so
        # the ends close on the guard instead of re-tripping it each time
        for slope in SOLVERS:
            fn, calls = counted(solver_forward(*dsf([0.5, 0.5], [1.0, 1.0], [0.0, 0.0]), slope))
            with pytest.raises(SaturationError):
                tf.invert_batch([1e4], fn)
            assert calls[0] <= 150

    @pytest.mark.parametrize("kind", ["dsf", "ddsf", "dsf-newton"])
    def test_forward_evals_per_call(self, kind):
        fam, row = tf.random_params(kind.split("-")[0], np.random.default_rng(13))
        fn = solver_forward(fam, row) if kind == "dsf-newton" else tf.forward_closure(fam, row)
        xs = np.random.default_rng(0).uniform(-4, 4, size=1000)
        ys = tf.forward_closure(fam, row)(xs)
        counting, calls = counted(fn)
        back = tf.invert_batch(ys, counting)
        assert np.max(np.abs(back - xs)) <= 1e-8
        assert calls[0] <= {"dsf": 11, "ddsf": 10, "dsf-newton": 8}[kind]

    def test_one_evaluation_per_expansion_round(self):
        # entries move down and up in the same rounds: x = -29 takes three
        # rounds (lo: -1, -5, -13, -29), -5 one, 13 two and 29 three; each
        # lands on its target exactly, so no refinement step follows. Two
        # starting evaluations and one per round: 2 + 3 (2 + 2 * 3 with a
        # separate probe for each side)
        fn, calls = counted(lambda t: t)
        ys = np.array([-29.0, -5.0, 13.0, 29.0])
        assert tf.invert_batch(ys, fn).tolist() == ys.tolist()
        assert calls[0] == 2 + 3

    @pytest.mark.parametrize("nan_where", [
        lambda t: t > 0.3,  # at the bracket end x = 1
        # at entry 0's first iterate: Newton's x = 0.2, on the chord's slope too
        lambda t: np.abs(t) < 0.3,
    ], ids=["bracket-end", "iterate"])
    def test_nonfinite_forward_raises(self, nan_where):
        # a table with a non-finite value is dropped: the same error as without
        for slope in SOLVERS:
            fn = with_slope(lambda t: np.where(nan_where(t), np.nan, t), np.ones_like, slope)
            messages = []
            for table in (None, np.linspace(-1.0, 1.0, tf.TABLE)):
                with pytest.raises(NumericError) as exc:
                    tf.invert_batch([0.2, 0.5], fn, table=table)
                assert "entry 0" in str(exc.value)
                assert exc.value.index == 0
                messages.append(str(exc.value))
            assert messages[0] == messages[1]

    def test_large_x_ends_at_ulp_width(self):
        # 1e-12 is below the spacing of floats near 5e5
        fn, calls = counted(tf.forward_closure(*affine("exp", 0.0, 0.0)))
        assert tf.invert_batch([5e5], fn)[0] == 5e5
        assert calls[0] <= 60

    def test_dsf_activates_once_per_inverse(self, monkeypatch):
        calls = []
        activate = tf._dsf_activate
        monkeypatch.setattr(tf, "_dsf_activate", lambda block: calls.append(1) or activate(block))
        rng = np.random.default_rng(5)
        fam, block = tf.Dsf(d=4), rng.normal(size=(50, 12)).T
        xs = rng.uniform(-3.0, 3.0, size=50)
        ys, _ = fam.forward(xs, block)
        calls.clear()
        back = fam.inverse(ys, block)
        assert len(calls) == 1
        assert np.max(np.abs(back - xs)) <= 1e-8

    def test_ddsf_decodes_once_per_inverse(self, monkeypatch):
        rng = np.random.default_rng(6)
        fam, block = random_ddsf(rng, (1, 16, 16, 1), 50)
        xs = rng.uniform(-3.0, 3.0, size=50)
        ys, _ = fam.forward(xs, block)
        decodes, products = [], []
        decode, product = tf._ddsf_decode, tf._cwn_product
        monkeypatch.setattr(tf, "_ddsf_decode", lambda *a: decodes.append(1) or decode(*a))
        monkeypatch.setattr(tf, "_cwn_product", lambda *a: products.append(1) or product(*a))
        back = fam.inverse(ys, block)
        assert len(decodes) == 1
        assert len(products) == 2  # once per CWN layer; layer 0's one-column u has none
        assert np.max(np.abs(back - xs)) <= 1e-8

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(tf, "SOLVER_ITERATIONS", 2)
        for slope in SOLVERS:
            fn = solver_forward(*dsf([0.5, 0.5], [2.0, 1.0], [0.0, 0.0]), slope)
            with pytest.raises(NumericError) as exc:
                tf.invert_batch([0.1, 0.7], fn)
            assert "entry 0" in str(exc.value)
            assert exc.value.index == 0

    def test_bad_slopes_only_cost_bisections(self):
        # slopes of 0, -1, NaN and inf at four of every five entries: those
        # entries bisect, and every root lands where the true slopes put it
        fam, row = tf.random_params("dsf", np.random.default_rng(13))
        fn = solver_forward(fam, row)
        xs = np.random.default_rng(0).uniform(-4, 4, size=1000)
        ys, _ = fn(xs)

        def injected(t):
            y, g = fn(t)
            g[0::5], g[1::5], g[2::5], g[3::5] = 0.0, -1.0, np.nan, np.inf
            return y, g
        back = tf.invert_batch(ys, injected)
        assert np.max(np.abs(back - tf.invert_batch(ys, fn))) <= 1e-12
        assert np.max(np.abs(back - xs)) <= 1e-12

    def test_flat_root_ends_at_the_forward_rounding(self):
        # two steps with a plateau between them: dy/dx is about 7.5e-5 at
        # x = 0, so 16 ulps of y span about 6e-12 of x, and f's rounding
        # there moves Newton's steps past 1e-12. The solve ends once |f - y|
        # is at most 16 ulps of y, within budget: on the forward's slopes
        # 10 evaluations, on secant slopes 14.
        fam, row = dsf([0.45, 0.55], [5.0, 5.0], [-12.5, 12.5])
        fn = solver_forward(fam, row)
        xs = np.array([-0.1, -0.05, 0.0, 0.05, 0.1])
        ys, slopes = fn(xs)
        assert np.all(slopes < 1e-4)
        for slope in SOLVERS:
            counting, calls = counted(fn if slope else tf.forward_closure(fam, row))
            back = tf.invert_batch(ys, counting)
            assert calls[0] <= (10 if slope else 14)
            assert np.all(np.abs(fn(back)[0] - ys) <= 16.0 * np.spacing(np.abs(ys)))
            assert np.max(np.abs(back - xs)) <= 1e-10


def counted(fn):
    """fn wrapped to count its calls in the returned one-element list."""
    calls = [0]

    def wrapped(t):
        calls[0] += 1
        return fn(t)

    return wrapped, calls


def increasing(fn, grid):
    ys = np.array([fn(float(g)) for g in grid])
    return bool(np.all(np.diff(ys) > 0))


class TestCheckMonotone:
    """Strict increase along a grid, evaluated point by point."""

    def test_identity_true(self):
        assert increasing(tf.forward_closure(*dsf([1.0], [1.0], [0.0])), (-3.0, 0.0, 3.0))

    def test_random_dsf_seeds(self):
        grid = np.linspace(-5, 5, 201)
        for s in range(200):
            assert increasing(tf.forward_closure(*tf.random_params("dsf", np.random.default_rng(s))),
                              grid)

    def test_corrupted_slope_detected(self):
        # a negative slope, which softplus never decodes, fed to the kernel
        log_w, a, b = np.log([[0.5], [0.5]]), np.array([[1.0], [-3.0]]), np.array([[-2.0], [2.0]])
        p = (np.exp(log_w), log_w, a, np.zeros((2, 1)), b)
        fn = lambda x: float(tf._dsf_core(np.array([x]), p)[0][0])
        grid = np.linspace(-5, 5, 801)
        assert not increasing(fn, grid)


class TestLogdetProperty:
    @pytest.mark.parametrize("kind", ["affine-exp", "affine-gate", "dsf", "ddsf"])
    def test_logdet_matches_fd_100_seeds(self, kind):
        for s in range(100):
            fam, row = tf.random_params(kind, np.random.default_rng(s))
            x = float(np.random.default_rng(1000 + s).uniform(-3, 3))
            _, ld = scalar_forward(fam, row, x)
            fd = fd_slope(tf.forward_closure(fam, row), x, h=1e-5)
            assert abs(math.exp(ld) - fd) / max(abs(fd), 1e-12) < 1e-4, (kind, s)

    @pytest.mark.parametrize("make", [
        lambda: dsf(np.full(16, 1 / 16), np.ones(16), np.zeros(16)),
        lambda: ddsf(identity_ddsf_layers(16)),
    ], ids=["dsf", "ddsf"])
    def test_identity_parameters_give_identity(self, make):
        fam, row = make()
        for x in np.linspace(-3, 3, 13):
            y, ld = scalar_forward(fam, row, x)
            assert y == pytest.approx(float(x), abs=1e-5)
            assert ld == pytest.approx(0.0, abs=1e-5)
