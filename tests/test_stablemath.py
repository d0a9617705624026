import math

import numpy as np
import pytest

from nafkit import diffgraph as dg
from nafkit import stablemath as sm
from nafkit.errors import DomainError, NumericError

LN2 = math.log(2.0)


class TestLogsumexp:
    def test_two_equal_terms(self):
        assert sm.logsumexp([0.0, 0.0]) == pytest.approx(LN2, abs=1e-12)

    def test_overflow_free_shift(self):
        # naive evaluation overflows; shift invariance forces 1000 + ln 2
        assert sm.logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + LN2, abs=1e-9)

    def test_direct_summation_oracle(self):
        # exp(0) + exp(ln 3) = 4
        assert sm.logsumexp([0.0, math.log(3.0)]) == pytest.approx(
            1.3862943611198906, abs=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            sm.logsumexp([])

    def test_all_neg_inf_returns_neg_inf(self):
        assert sm.logsumexp([-np.inf, -np.inf]) == -np.inf

    def test_extreme_magnitudes(self):
        for x in (1e6, -1e6):
            out = sm.logsumexp([x, x])
            assert np.isfinite(out)
            assert out == pytest.approx(x + LN2, rel=1e-12)

    def test_shift_invariance_property(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            v = rng.uniform(-100, 100, size=rng.integers(1, 10))
            c = float(rng.uniform(-30, 30))
            ref = sm.logsumexp(v) + c
            assert sm.logsumexp(v + c) == pytest.approx(ref, abs=1e-12 * max(1, abs(ref)))


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
        np.testing.assert_allclose(sm.logsoftmax([0.0, 0.0]), [-LN2, -LN2], atol=1e-12)

    def test_constant_vector(self):
        for c in (-7.0, 0.0, 123.0):
            np.testing.assert_allclose(
                sm.logsoftmax([c] * 4), [-math.log(4.0)] * 4, atol=1e-12
            )

    def test_softmax_oracle(self):
        # direct softmax oracle gives probabilities (0.25, 0.75)
        out = sm.logsoftmax([0.0, math.log(3.0)])
        np.testing.assert_allclose(
            out, [-1.3862943611198906, -0.2876820724517809], atol=1e-12
        )

    def test_exponentials_normalize(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            v = rng.uniform(-100, 100, size=rng.integers(1, 12))
            assert np.sum(np.exp(sm.logsoftmax(v))) == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            sm.logsoftmax([])


class TestLogMatrix:
    """The max-shifted log(M @ exp(v)) kernel behind the ddsf Jacobian chain."""

    def test_identity_product(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(0.5, 3.0, size=(3, 2))
        out = dg.log_dot_exp(np.eye(2), np.log(v))
        np.testing.assert_allclose(np.exp(out), v, rtol=1e-12)

    def test_ones_product(self):
        out = dg.log_dot_exp(np.ones((2, 2)), np.zeros((1, 2)))
        np.testing.assert_allclose(np.exp(out), [[2.0, 2.0]], rtol=1e-12)

    def test_direct_product_oracle(self):
        # 2*5 + 3*7 = 31
        out = dg.log_dot_exp(np.array([[2.0, 3.0]]), np.log([[5.0, 7.0]]))
        assert out[0, 0] == pytest.approx(3.4339872044851463, abs=1e-12)

    def test_structural_zeros_survive(self):
        with np.errstate(divide="ignore"):
            out = dg.log_dot_exp(np.array([[0.0, 1.0]]), np.log([[1.0, 0.0]]))
        assert out[0, 0] == -np.inf

    def test_matches_dense_product_property(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.uniform(1e-3, 10.0, size=(3, 4))
            v = rng.uniform(1e-3, 10.0, size=(2, 4))
            want = np.log(v @ a.T)
            np.testing.assert_allclose(dg.log_dot_exp(a, np.log(v)), want, rtol=1e-9)
            batched = np.stack([a, a])  # one matrix per row of v
            np.testing.assert_allclose(dg.log_dot_exp(batched, np.log(v)), want, rtol=1e-9)

    def test_matches_logsumexp_reference(self):
        # entries of M spread over 300 decades and v over +-700
        rng = np.random.default_rng(7)
        for _ in range(200):
            mat = rng.uniform(0.0, 1.0, size=(5, 3, 4)) * 10.0 ** rng.uniform(-300, 0, (5, 3, 4))
            v = rng.uniform(-700, 700, size=(5, 4)) * rng.uniform(0, 1, size=(5, 1))
            want = sm.logsumexp_over_axis(np.log(mat) + v[:, None, :], -1)
            np.testing.assert_allclose(dg.log_dot_exp(mat, v), want, rtol=1e-13, atol=1e-13)
            want = sm.logsumexp_over_axis(np.log(mat[0]) + v[:, None, :], -1)
            np.testing.assert_allclose(dg.log_dot_exp(mat[0], v), want, rtol=1e-13, atol=1e-13)

    def test_underflowed_rows_keep_their_value(self):
        # M is ~0 where v peaks, so the shifted product of rows 0 and 1 is
        # below the smallest normal float; the true values are finite
        mat = np.array([[0.0, 1.0], [1e-320, 1.0], [1.0, 1.0]])
        v = np.array([[0.0, -800.0]])
        with np.errstate(divide="ignore"):
            want = sm.logsumexp_over_axis(np.log(mat) + v[:, None, :], -1)
        out = dg.log_dot_exp(mat, v)
        assert np.all(np.isfinite(out)) and out[0, 0] == -800.0
        np.testing.assert_allclose(out, want, rtol=1e-13)
        np.testing.assert_allclose(dg.log_dot_exp(mat[None], v), want, rtol=1e-13)
        # d out / d M there is exp(v_j - out) > 1e308: a typed error, not inf
        v_leaf = dg.Value(np.array([[0.0, -800.0], [0.0, -1.0]]))
        with pytest.raises(NumericError) as exc:
            dg.backward(dg.vsum(dg.log_dot_exp(np.array([[1e-320, 1.0]]), v_leaf)))
        assert exc.value.index == 0

    def test_negative_entry_rejected(self):
        with pytest.raises(NumericError):
            dg.log_dot_exp(np.array([[1.0, -0.5]]), np.zeros((1, 2)))

    def test_associativity_property(self):
        # A(Bv) = (AB)v, with AB formed densely
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = (np.exp(rng.uniform(-5, 5, size=(3, 3))) for _ in range(2))
            v = rng.uniform(-5, 5, size=(1, 3))
            left = dg.log_dot_exp(a, dg.log_dot_exp(b, v))
            np.testing.assert_allclose(left, dg.log_dot_exp(a @ b, v), rtol=1e-9, atol=1e-9)

    def test_stable_at_large_magnitudes(self):
        out = dg.log_dot_exp(np.ones((2, 2)), np.array([[1e3, 1e3], [-1e3, -1e3]]))
        np.testing.assert_allclose(out, [[1e3 + LN2] * 2, [-1e3 + LN2] * 2], atol=1e-9)
