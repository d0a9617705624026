import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from nafkit import universal
from nafkit.errors import DomainError
from nafkit.universal import (
    MonotoneTarget,
    _sigmoid_sum,
    build_sigmoid_approx,
    build_step_approx,
    certify,
    dsf_prelogit_curve,
    identity_target,
    inverse_transform_demo,
    normal_cdf_target,
    sigmoid_mix_target,
    step_eval,
)


class TestMonotoneTarget:
    def test_identity_valid(self):
        tgt = identity_target()
        assert tgt.inverse(0.25) == pytest.approx(0.25, abs=1e-12)

    def test_boundary_conditions_enforced(self):
        with pytest.raises(DomainError):
            MonotoneTarget(fn=lambda x: 0.5 * x, r0=0.0, r1=1.0)

    def test_flat_region_rejected(self):
        with pytest.raises(DomainError):
            MonotoneTarget(fn=lambda x: min(max(2 * x, 0.0), 1.0), r0=0.0, r1=1.0)

    def test_bisection_inverse_matches_scipy(self):
        tgt = normal_cdf_target(span=4.0)
        # independent oracle: renormalized quantile via scipy
        lo, hi = stats.norm.cdf(-4), stats.norm.cdf(4)
        for y in (0.1, 0.5, 0.73):
            want = stats.norm.ppf(lo + y * (hi - lo))
            assert tgt.inverse(y) == pytest.approx(want, abs=1e-9)

    def test_quantiles_seat_in_the_two_point_table(self, monkeypatch):
        # each solve seats its level in the table [r0, r1] by one forward call
        # and refines inside that cell, with no expansion probe; the quantiles
        # are the bits the start [r0, r1] gave as two separate end evaluations
        tgt, invert, seen = normal_cdf_target(), universal.invert_batch, []

        def recording(y, forward, **kwargs):
            calls = []
            seen.append(calls)
            return invert(y, lambda t: calls.append(np.array(t)) or forward(t), **kwargs)

        monkeypatch.setattr(universal, "invert_batch", recording)
        _, b = build_step_approx(tgt, 4)
        assert [float(v).hex() for v in b] == [
            "-0x1.aee014f85ab18p-1", "-0x1.036920036bb4dp-2",
            "0x1.036920036bb51p-2", "0x1.aee014f85ab1bp-1"]
        assert len(seen) == 4
        for calls in seen:
            assert calls[0].tolist() == [tgt.r0, tgt.r1]
            assert all(c.size == 1 and tgt.r0 < c[0] < tgt.r1 for c in calls[1:])


class TestStepApprox:
    def test_identity_n1(self):
        w, b = build_step_approx(identity_target(), 1)
        np.testing.assert_allclose(w, [1.0])
        np.testing.assert_allclose(b, [0.5])
        assert certify(identity_target(), (w, b), 10001) == pytest.approx(0.5, abs=1e-9)

    def test_identity_n6_bound_one_seventh(self):
        tgt = identity_target()
        err = certify(tgt, build_step_approx(tgt, 6), grid_size=10001)
        assert err <= 1.0 / 7.0 + 1e-9

    def test_truncated_normal_n9(self):
        tgt = normal_cdf_target(span=4.0)
        err = certify(tgt, build_step_approx(tgt, 9), grid_size=10001)
        assert err <= 0.1 + 1e-9

    def test_weights_on_simplex(self):
        for n in (1, 4, 9, 19, 49):
            w, b = build_step_approx(identity_target(), n)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w > 0)
            if n >= 2:
                assert w[-1] == pytest.approx(2.0 / (n + 1), abs=1e-15)

    def test_bound_on_random_target_suite(self):
        # twenty random monotone targets, all n: error <= 1/(n+1)
        targets = [sigmoid_mix_target(seed) for seed in range(20)]
        for tgt in targets:
            for n in (1, 4, 9, 19, 49):
                err = certify(tgt, build_step_approx(tgt, n), grid_size=2001)
                assert err <= 1.0 / (n + 1) + 1e-9, (tgt.name, n, err)

    def test_error_nonincreasing_in_n(self):
        tgt = normal_cdf_target()
        errs = [certify(tgt, build_step_approx(tgt, n), 4001) for n in (1, 4, 9, 19, 49)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_flat_target_detected(self):
        stub = SimpleNamespace(inverse=lambda y: 0.5, r0=0.0, r1=1.0)
        with pytest.raises(DomainError):
            build_step_approx(stub, 4)

    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            build_step_approx(identity_target(), 0)


class TestSigmoidApprox:
    def test_small_eps0_matches_steps_away_from_biases(self):
        tgt = identity_target()
        n = 4
        params = build_sigmoid_approx(tgt, n, eps0=1e-6)
        w, b = build_step_approx(tgt, n)
        kappa = float(np.min(np.diff(np.sort(b))))
        xs = np.linspace(0, 1, 5001)
        far = np.min(np.abs(xs[:, None] - b), axis=1) > kappa
        gap = np.abs(_sigmoid_sum(xs[far], *params) - step_eval(xs[far], w, b))
        assert np.max(gap) <= 2e-5

    def test_identity_n6_proof_choice_bound(self):
        # eps0 = 1/(2(n+1)) gives the 3/(n+1) certified bound
        tgt = identity_target()
        n = 6
        params = build_sigmoid_approx(tgt, n, eps0=1.0 / (2 * (n + 1)))
        err = certify(tgt, params, grid_size=10001)
        assert err <= 3.0 / (n + 1) + 1e-9

    def test_default_eps0_is_proof_choice(self):
        tgt = identity_target()
        a = build_sigmoid_approx(tgt, 6)
        b = build_sigmoid_approx(tgt, 6, eps0=1.0 / 14.0)
        np.testing.assert_array_equal(a[1], b[1])

    def test_params_satisfy_dsf_invariants(self):
        w, a, _ = build_sigmoid_approx(normal_cdf_target(), 9)
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(a > 0)

    def test_prelogit_strictly_monotone(self):
        params = build_sigmoid_approx(normal_cdf_target(), 9)
        grid = np.linspace(-4, 4, 501)
        ys = [float(_sigmoid_sum(x, *params)) for x in grid]
        assert np.all(np.diff(ys) > 0)

    def test_error_decreases_with_n(self):
        tgt = normal_cdf_target()
        errs = [certify(tgt, build_sigmoid_approx(tgt, n), 4001) for n in (4, 9, 19, 49)]
        assert errs[-1] < errs[0]
        assert all(e2 <= e1 + 1e-9 for e1, e2 in zip(errs, errs[1:]))

    def test_sigmoid_bound_on_random_suite(self):
        for seed in range(6):
            tgt = sigmoid_mix_target(seed)
            for n in (4, 9, 19):
                err = certify(tgt, build_sigmoid_approx(tgt, n), 2001)
                assert err <= 3.0 / (n + 1) + 1e-9, (tgt.name, n, err)

    def test_n1_rejected(self):
        with pytest.raises(DomainError):
            build_sigmoid_approx(identity_target(), 1)

    def test_eps0_domain(self):
        with pytest.raises(DomainError):
            build_sigmoid_approx(identity_target(), 4, eps0=0.7)


class TestCertify:
    def test_exact_representation_scores_zero(self):
        # a target that IS a one-term sigmoid sum certifies at 0
        tgt = MonotoneTarget(fn=lambda x: 1.0 / (1.0 + math.exp(-x)),
                             r0=-30.0, r1=30.0)
        params = (np.ones(1), np.ones(1), np.zeros(1))
        assert certify(tgt, params, grid_size=10001) <= 1e-9

    def test_grid_size_floor(self):
        with pytest.raises(DomainError):
            certify(identity_target(), build_step_approx(identity_target(), 4), 50)


class TestInverseTransformDemo:
    def test_reports_finite_statistic(self):
        out = inverse_transform_demo(9, n_samples=5000, seed=0)
        assert 0.0 < out["ks_stat"] < 1.0

    def test_statistic_shrinks_with_n(self):
        small = inverse_transform_demo(3, n_samples=20000, seed=0)["ks_stat"]
        large = inverse_transform_demo(49, n_samples=20000, seed=0)["ks_stat"]
        assert large < small

    def test_curve_helper_shapes(self):
        xs = np.linspace(0, 1, 101)
        curve = dsf_prelogit_curve(xs, identity_target(), 6)
        assert curve.shape == (101,)
        assert np.all((curve > 0) & (curve < 1))
