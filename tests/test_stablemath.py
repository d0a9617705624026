import math

import graph_ops as go
import numpy as np
import pytest
from conftest import cwn_log

from nafkit import stablemath as sm
from nafkit import transformer as tf

LN2 = math.log(2.0)


def logsumexp(v):
    """logsumexp_over_axis of a vector, as a float."""
    return float(sm.logsumexp_over_axis(np.asarray(v, dtype=np.float64), 0))


def logsoftmax(v):
    return sm.logsoftmax_over_axis(np.asarray(v, dtype=np.float64), 0)


class TestLogsumexp:
    def test_two_equal_terms(self):
        assert logsumexp([0.0, 0.0]) == pytest.approx(LN2, abs=1e-12)

    def test_overflow_free_shift(self):
        # naive evaluation overflows; shift invariance forces 1000 + ln 2
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + LN2, abs=1e-9)

    def test_direct_summation_oracle(self):
        # exp(0) + exp(ln 3) = 4
        assert logsumexp([0.0, math.log(3.0)]) == pytest.approx(
            1.3862943611198906, abs=1e-12
        )

    def test_all_neg_inf_returns_neg_inf(self):
        assert logsumexp([-np.inf, -np.inf]) == -np.inf

    def test_extreme_magnitudes(self):
        for x in (1e6, -1e6):
            out = logsumexp([x, x])
            assert np.isfinite(out)
            assert out == pytest.approx(x + LN2, rel=1e-12)

    def test_shift_invariance_property(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            v = rng.uniform(-100, 100, size=rng.integers(1, 10))
            c = float(rng.uniform(-30, 30))
            ref = logsumexp(v) + c
            assert logsumexp(v + c) == pytest.approx(ref, abs=1e-12 * max(1, abs(ref)))


class TestSoftplus:
    def test_zero(self):
        assert sm.softplus(0.0) == pytest.approx(LN2 + 1e-6, abs=1e-15)

    def test_large_positive(self):
        assert sm.softplus(100.0) == pytest.approx(100.0 + 1e-6, rel=1e-12)

    def test_large_negative_oracle(self):
        # high-precision: log1p(exp(-100)) = exp(-100) to double precision
        want = math.exp(-100.0) + 1e-6
        assert sm.softplus(-100.0) == pytest.approx(want, rel=1e-12)

    def test_strictly_positive_and_monotone(self):
        xs = np.linspace(-40, 40, 2001)
        ys = sm.softplus(xs)
        assert np.all(ys > 0)
        assert np.all(np.diff(ys) > 0)

    def test_asymmetry_identity(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-30, 30, size=300):
            assert sm.softplus(x) - sm.softplus(-x) == pytest.approx(
                x, abs=1e-9 + 2 * sm.DELTA
            )

    def test_softplus_inv_round_trip(self):
        for y in (0.1, 0.5, 1.0, 3.0, 20.0):
            assert math.log1p(math.exp(sm.softplus_inv(y))) == pytest.approx(y, rel=1e-12)


class TestSigmoid:
    def test_bits_match_the_split_formula(self):
        xs = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 745.0, -745.0,
                       800.0, -800.0])
        pos = xs >= 0
        split = np.empty_like(xs)
        split[pos] = 1.0 / (1.0 + np.exp(-xs[pos]))
        ex = np.exp(xs[~pos])
        split[~pos] = ex / (1.0 + ex)
        assert sm.sigmoid(xs).tobytes() == split.tobytes()
        pos, neg = sm.sigmoid_pair(xs, np.exp(-np.abs(xs)))
        assert pos.tobytes() == split.tobytes()
        assert neg.tobytes() == sm.sigmoid(-xs).tobytes()
        # the listed points and a spread: a scaled pair from the caller's e is
        # each half's numerator times scale / (1 + e)
        xs = np.concatenate([xs, np.random.default_rng(3).uniform(-40.0, 40.0, 1000)])
        e, scale = np.exp(-np.abs(xs)), np.random.default_rng(4).uniform(0.0, 1.0, xs.size)
        pos, neg = sm.sigmoid_pair(xs, e, scale)
        assert pos.tobytes() == (np.where(xs >= 0, 1.0, e) * (scale / (1.0 + e))).tobytes()
        assert neg.tobytes() == (np.where(xs <= 0, 1.0, e) * (scale / (1.0 + e))).tobytes()

    @pytest.mark.parametrize("shape, order", [((1010,), "C"), ((2, 16, 64), "C"),
                                              ((2, 16, 64), "F"), ((16, 0), "C")],
                             ids=["1-D", "m2-stack", "transposed", "empty"])
    def test_stacked_pairs_equal_separate_calls(self, shape, order):
        rng = np.random.default_rng(4)
        xs = np.asarray(rng.uniform(-40.0, 40.0, size=shape) * 20.0 ** rng.uniform(-1, 1, shape),
                        order=order)
        xs.reshape(-1, order="A")[:5] = [0.0, -0.0, 800.0, -800.0, np.nan] if xs.size else []
        pair = sm.sigmoid_pair(xs, np.exp(-np.abs(xs)))
        assert pair.shape == (2, *shape)
        assert pair[0].tobytes() == np.asarray(sm.sigmoid(xs)).tobytes()
        assert pair[1].tobytes() == np.asarray(sm.sigmoid(-xs)).tobytes()
        # the kernels pass a fresh C-ordered x, and a reduction over a half of
        # its pair sums in the order a single call's result would
        if xs.ndim == 3 and order == "C":
            got = sm.logsumexp_over_axis(pair, -2)[0]
            assert got.tobytes() == sm.logsumexp_over_axis(sm.sigmoid(xs), -2).tobytes()

    def test_scalar_returns_float(self):
        assert type(sm.sigmoid(0.0)) is float
        assert sm.sigmoid(0.0) == 0.5


class TestLogsigmoid:
    def test_zero(self):
        assert sm.logsigmoid(0.0) == pytest.approx(-(LN2 + 1e-6), abs=1e-15)

    def test_saturated_positive(self):
        assert sm.logsigmoid(50.0) == pytest.approx(-1e-6, abs=1e-12)

    def test_negative_oracle(self):
        # log sigmoid(-50) = -50 - log1p(exp(-50)); the tail is ~2e-22
        assert sm.logsigmoid(-50.0) == pytest.approx(-50.0 - 1e-6, abs=1e-12)

    def test_pair_identity(self):
        # log[sigmoid(x)(1-sigmoid(x))] evaluated in its cancellation-free
        # closed form -|x| - 2 log1p(exp(-|x|)); the naive product loses
        # ~4 digits beyond |x| ~ 25
        rng = np.random.default_rng(2)
        for x in rng.uniform(-30, 30, size=200):
            lhs = sm.logsigmoid(x) + sm.logsigmoid(-x)
            want = -abs(x) - 2.0 * math.log1p(math.exp(-abs(x)))
            assert lhs == pytest.approx(want, abs=1e-9 + 2 * sm.DELTA)


class TestLogsoftmax:
    def test_two_equal(self):
        np.testing.assert_allclose(logsoftmax([0.0, 0.0]), [-LN2, -LN2], atol=1e-12)

    def test_constant_vector(self):
        for c in (-7.0, 0.0, 123.0):
            np.testing.assert_allclose(
                logsoftmax([c] * 4), [-math.log(4.0)] * 4, atol=1e-12
            )

    def test_softmax_oracle(self):
        # direct softmax oracle gives probabilities (0.25, 0.75)
        out = logsoftmax([0.0, math.log(3.0)])
        np.testing.assert_allclose(
            out, [-1.3862943611198906, -0.2876820724517809], atol=1e-12
        )

    def test_exponentials_normalize(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            v = rng.uniform(-100, 100, size=rng.integers(1, 12))
            assert np.sum(np.exp(logsoftmax(v))) == pytest.approx(1.0, abs=1e-12)


class TestLogMatrix:
    """The max-shifted log(M @ exp(v)) product from the kernels' helpers
    (graph_ops.log_dot_exp): one log per entry, and _log_sum's logsumexp
    below its floor; v (cols, n), one column per point."""

    def test_identity_product(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(0.5, 3.0, size=(2, 3))
        out = go.log_dot_exp(np.eye(2), np.log(v))
        np.testing.assert_allclose(np.exp(out), v, rtol=1e-12)

    def test_ones_product(self):
        out = go.log_dot_exp(np.ones((2, 2)), np.zeros((2, 1)))
        np.testing.assert_allclose(np.exp(out), [[2.0], [2.0]], rtol=1e-12)

    def test_direct_product_oracle(self):
        # 2*5 + 3*7 = 31
        out = go.log_dot_exp(np.array([[2.0, 3.0]]), np.log([[5.0], [7.0]]))
        assert out[0, 0] == pytest.approx(3.4339872044851463, abs=1e-12)

    def test_structural_zeros_survive(self):
        with np.errstate(divide="ignore"):
            out = go.log_dot_exp(np.array([[0.0, 1.0]]), np.log([[1.0], [0.0]]))
        assert out[0, 0] == -np.inf

    def test_matches_dense_product_property(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.uniform(1e-3, 10.0, size=(3, 4))
            v = rng.uniform(1e-3, 10.0, size=(4, 2))
            want = np.log(a @ v)
            np.testing.assert_allclose(go.log_dot_exp(a, np.log(v)), want, rtol=1e-9)
            # the same product in the ddsf kernel's CWN form, log(exp(V) @ exp(X))
            got = cwn_log(np.log(a), a, np.log(v))
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_matches_logsumexp_reference(self):
        # entries of M spread over 300 decades and v over +-700
        rng = np.random.default_rng(7)
        for _ in range(200):
            mat = rng.uniform(0.0, 1.0, size=(5, 3, 4)) * 10.0 ** rng.uniform(-300, 0, (5, 3, 4))
            v = rng.uniform(-700, 700, size=(5, 4)) * rng.uniform(0, 1, size=(5, 1))
            want = sm.logsumexp_over_axis(np.log(mat[0]) + v[:, None, :], -1)
            np.testing.assert_allclose(go.log_dot_exp(mat[0], v.T), want.T, rtol=1e-13, atol=1e-13)
            # the ddsf kernel's CWN form takes a per-row matrix M_b = E * F_b:
            # here E = mat[0] and F_b = mat[b, 0], both spread over 300 decades
            x = v + np.log(mat[:, 0])
            want = sm.logsumexp_over_axis(np.log(mat[0]) + x[:, None, :], -1)
            got = cwn_log(np.log(mat[0]), mat[0], x.T)
            np.testing.assert_allclose(got, want.T, rtol=1e-13, atol=1e-13)

    def test_underflowed_rows_keep_their_value(self):
        # M is ~0 where v peaks, so the shifted product of rows 0 and 1 is
        # below the smallest normal float; the true values are finite
        mat = np.array([[0.0, 1.0], [1e-320, 1.0], [1.0, 1.0]])
        v = np.array([[0.0, -800.0]])
        with np.errstate(divide="ignore"):
            want = sm.logsumexp_over_axis(np.log(mat) + v[:, None, :], -1)
            out = go.log_dot_exp(mat, v.T)
        assert np.all(np.isfinite(out)) and out[0, 0] == -800.0
        np.testing.assert_allclose(out, want.T, rtol=1e-13)
        with np.errstate(divide="ignore"):
            got = cwn_log(np.log(mat), mat, v.T)
        np.testing.assert_allclose(got, want.T, rtol=1e-13)

    def test_stacked_pair_equals_each_half(self):
        # one product and one _mix_grads call over a stacked pair (2, m, cols,
        # n), as the ddsf adjoint takes its mixture pair, give each half's
        # bits; kept apart, mat's gradients sum as on their own
        rng = np.random.default_rng(8)
        mat = np.exp(sm.logsoftmax_over_axis(rng.normal(size=(6, 6)), 1))
        mat[0, 0] = 1e-308
        v = np.log(rng.uniform(1e-3, 1.0, size=(2, 2, 6, 40)))
        v[1, 0, 1:, :3] = -800.0  # mat ~0 where v peaks: low entries, in log space
        g = rng.normal(size=(2, 2, 6, 40)) * 1e-3

        def mixed(v, g, keep):
            e, m = tf._shifted_exp(v)
            lin = mat @ e
            out, low = tf._log_sum(lin.copy(), m, lambda idx: (
                np.log(mat[idx[-2]]) + tf._points_last(v, idx)))
            return low, (out, *tf._mix_grads(g, (e, lin, low, out), mat, keep))

        low, got = mixed(v, g, 1)
        assert len(low[1]) == 3
        assert got[1].shape == (2, 6, 6)
        for k in range(2):
            half = mixed(v[k], g[k], 0)[1]
            assert all(a[k].tobytes() == b.tobytes() for a, b in zip(got, half))

    def test_associativity_property(self):
        # A(Bv) = (AB)v, with AB formed densely
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = (np.exp(rng.uniform(-5, 5, size=(3, 3))) for _ in range(2))
            v = rng.uniform(-5, 5, size=(3, 1))
            left = go.log_dot_exp(a, go.log_dot_exp(b, v))
            np.testing.assert_allclose(left, go.log_dot_exp(a @ b, v), rtol=1e-9, atol=1e-9)

    def test_stable_at_large_magnitudes(self):
        out = go.log_dot_exp(np.ones((2, 2)), np.array([[1e3, -1e3], [1e3, -1e3]]))
        np.testing.assert_allclose(out, [[1e3 + LN2, -1e3 + LN2]] * 2, atol=1e-9)
