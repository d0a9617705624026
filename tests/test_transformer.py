import math

import numpy as np
import pytest

from nafkit import transformer as tf
from nafkit.errors import DomainError, NumericError, RangeError, SaturationError

LN2 = math.log(2.0)


def fd_slope(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2 * h)


class TestAffine:
    def test_exp_identity(self):
        p = tf.AffineParams(mu=0.0, sigma_pre=0.0)
        assert tf.affine_forward(7.0, p, "exp") == (7.0, 0.0)

    def test_gate_saturates_to_identity(self):
        p = tf.AffineParams(mu=3.0, sigma_pre=50.0)
        y, ld = tf.affine_forward(2.0, p, "gate")
        assert y == pytest.approx(2.0, abs=1e-12)
        assert ld == pytest.approx(0.0, abs=1e-5)

    def test_gate_hand_evaluation(self):
        # 0.5*2 + 0.5*4 = 3; slope sigmoid(0) = 0.5
        p = tf.AffineParams(mu=4.0, sigma_pre=0.0)
        y, ld = tf.affine_forward(2.0, p, "gate")
        assert y == pytest.approx(3.0, abs=1e-12)
        assert ld == pytest.approx(-LN2, abs=2e-6)
        fn = tf.forward_closure("affine-gate", p)
        assert math.exp(ld) == pytest.approx(fd_slope(fn, 2.0), rel=1e-5)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            tf.affine_forward(0.0, tf.AffineParams(0.0, 0.0), "cube")


class TestDsfParams:
    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            tf.DsfParams(w=[0.5, 0.6], a=[1.0, 1.0], b=[0.0, 0.0])
        with pytest.raises(DomainError):
            tf.DsfParams(w=[0.5, 0.5], a=[1.0, -1.0], b=[0.0, 0.0])
        with pytest.raises(DomainError):
            tf.DsfParams(w=[0.5, 0.5], a=[1.0, 1.0], b=[0.0])


class TestDsfForward:
    def test_single_unit_is_identity(self):
        p = tf.DsfParams(w=[1.0], a=[1.0], b=[0.0])
        for x in (-3.0, 0.0, 2.5):
            y, ld = tf.dsf_forward(x, p)
            assert y == pytest.approx(x, abs=1e-12)
            assert ld == pytest.approx(0.0, abs=1e-12)

    def test_identical_units_collapse(self):
        p = tf.DsfParams(w=[0.5, 0.5], a=[1.0, 1.0], b=[0.0, 0.0])
        y, ld = tf.dsf_forward(1.7, p)
        assert y == pytest.approx(1.7, abs=1e-12)
        assert ld == pytest.approx(0.0, abs=1e-12)

    def test_hand_derived_slope(self):
        # D = 0.5, dy/dx = (0.5*2*0.25 + 0.5*1*0.25) / (0.5*0.5) = 1.5
        p = tf.DsfParams(w=[0.5, 0.5], a=[2.0, 1.0], b=[0.0, 0.0])
        y, ld = tf.dsf_forward(0.0, p)
        assert y == pytest.approx(0.0, abs=1e-12)
        assert ld == pytest.approx(0.4054651081081644, abs=1e-12)
        fn = tf.forward_closure("dsf", p)
        assert math.exp(ld) == pytest.approx(fd_slope(fn, 0.0), rel=1e-7)

    def test_prelogit_stays_open_in_nominal_regime(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = 8
            w = rng.dirichlet(np.ones(d))
            w = np.maximum(w, 1e-12)
            w /= w.sum()
            p = tf.DsfParams(w=w, a=rng.uniform(0.1, 10.0, d), b=rng.uniform(-10, 10, d))
            xs = np.linspace(-30, 30, 41)
            y, ld = tf.dsf_forward(xs, p)  # must not raise
            assert np.all(np.isfinite(y))

    def test_saturation_error_names_magnitude(self):
        p = tf.DsfParams(w=[0.5, 0.5], a=[5.0, 5.0], b=[0.0, 0.0])
        with pytest.raises(SaturationError) as exc:
            tf.dsf_forward(1e4, p)
        assert exc.value.magnitude == pytest.approx(1e4)


class TestDdsf:
    def _identity_layers(self, d=2):
        l1 = tf.DdsfLayerParams(u=np.ones((d, 1)), w=np.full((d, d), 1.0 / d),
                                a=np.ones(d), b=np.zeros(d))
        l2 = tf.DdsfLayerParams(u=np.full((1, d), 1.0 / d), w=np.ones((1, 1)),
                                a=np.ones(1), b=np.zeros(1))
        return [l1, l2]

    def test_single_layer_identity(self):
        lay = tf.DdsfLayerParams(u=np.ones((1, 1)), w=np.ones((1, 1)),
                                 a=np.ones(1), b=np.zeros(1))
        y, ld = tf.ddsf_forward(0.85, [lay])
        assert y == pytest.approx(0.85, abs=1e-12)
        assert ld == pytest.approx(0.0, abs=1e-12)

    def test_two_layer_identity_composition(self):
        for x in (-2.0, 0.0, 1.3):
            y, ld = tf.ddsf_forward(x, self._identity_layers())
            assert y == pytest.approx(x, abs=1e-10)
            assert ld == pytest.approx(0.0, abs=1e-10)

    def test_seeded_random_logdet_matches_fd(self):
        # dims (1, 2, 1), fixed seed, x = 0.3
        layers = tf.random_params("ddsf", np.random.default_rng(7), dims=(1, 2, 1))
        y, ld = tf.ddsf_forward(0.3, layers)
        fn = tf.forward_closure("ddsf", layers)
        fd = fd_slope(fn, 0.3)
        assert math.exp(ld) == pytest.approx(fd, rel=1e-5)

    def test_dims_must_chain(self):
        l1 = tf.DdsfLayerParams(u=np.ones((2, 1)), w=np.full((2, 2), 0.5),
                                a=np.ones(2), b=np.zeros(2))
        bad = tf.DdsfLayerParams(u=np.full((1, 3), 1 / 3), w=np.ones((1, 1)),
                                 a=np.ones(1), b=np.zeros(1))
        with pytest.raises(DomainError):
            tf.ddsf_forward(0.0, [l1, bad])

    def test_saturation_error_carries_layer_index(self):
        l1 = tf.DdsfLayerParams(u=np.ones((2, 1)), w=np.full((2, 2), 0.5),
                                a=np.full(2, 10.0), b=np.zeros(2))
        l2 = tf.DdsfLayerParams(u=np.full((1, 2), 0.5), w=np.ones((1, 1)),
                                a=np.ones(1), b=np.zeros(1))
        with pytest.raises(SaturationError) as exc:
            tf.ddsf_forward(500.0, [l1, l2])
        assert exc.value.layer == 0


class TestInvert:
    def test_identity_dsf(self):
        p = tf.DsfParams(w=[1.0], a=[1.0], b=[0.0])
        fn = tf.forward_closure("dsf", p)
        assert tf.invert_batch([0.37], fn)[0] == pytest.approx(0.37, abs=1e-10)

    def test_affine_exp_closed_form(self):
        p = tf.AffineParams(mu=1.0, sigma_pre=math.log(2.0))
        fn = tf.forward_closure("affine-exp", p)
        assert tf.invert_batch([5.0], fn)[0] == pytest.approx(2.0, abs=1e-10)

    def test_round_trip_thousand_points(self):
        p = tf.DsfParams(w=[0.5, 0.5], a=[2.0, 1.0], b=[0.0, 0.0])
        fn = tf.forward_closure("dsf", p)
        assert tf.invert_batch([0.0], fn)[0] == pytest.approx(0.0, abs=1e-10)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-4, 4, size=1000)
        ys = fn(xs)
        back = tf.invert_batch(ys, fn)
        assert np.max(np.abs(back - xs)) <= 1e-8

    def test_bracket_expansion_beyond_hint(self):
        p = tf.AffineParams(mu=100.0, sigma_pre=0.0)
        fn = tf.forward_closure("affine-exp", p)
        assert tf.invert_batch([250.0], fn, -1.0, 1.0)[0] == pytest.approx(150.0, abs=1e-8)

    def test_range_error_when_unreachable(self):
        p = tf.DsfParams(w=[0.5, 0.5], a=[1.0, 1.0], b=[0.0, 0.0])
        fn = tf.forward_closure("dsf", p)
        # identical units make the identity; inversion solves the same
        # guarded forward, which reaches far past 100
        assert tf.invert_batch([100.0], fn)[0] == pytest.approx(100.0, abs=1e-8)
        # tanh stays below 1 on every |x| <= 1e6
        with pytest.raises(RangeError) as exc:
            tf.invert_batch([0.5, 2.0], np.tanh)
        assert exc.value.index == 1

    def test_reach_is_the_guarded_forward(self):
        # the identity dsf maps |x| up to the guard (about 708) onto itself;
        # a bracket probe past the guard is pulled back, not raised
        p = tf.DsfParams(w=[0.5, 0.5], a=[1.0, 1.0], b=[0.0, 0.0])
        fn = tf.forward_closure("dsf", p)
        ys = np.array([-600.0, 3.0, 700.0])
        assert np.max(np.abs(tf.invert_batch(ys, fn) - ys)) <= 1e-8
        with pytest.raises(SaturationError):
            tf.invert_batch([1e4], fn)

    def test_target_past_guard_raises_within_budget(self):
        # a probe that trips the guard also shortens the next step, so
        # the ends close on the guard instead of re-tripping it each time
        p = tf.DsfParams(w=[0.5, 0.5], a=[1.0, 1.0], b=[0.0, 0.0])
        fn, calls = counted(tf.forward_closure("dsf", p))
        with pytest.raises(SaturationError):
            tf.invert_batch([1e4], fn)
        assert calls[0] <= 150

    @pytest.mark.parametrize("kind", ["dsf", "ddsf"])
    def test_forward_evals_per_call(self, kind):
        params = tf.random_params(kind, np.random.default_rng(13))
        fn = tf.forward_closure(kind, params)
        xs = np.random.default_rng(0).uniform(-4, 4, size=1000)
        ys = fn(xs)
        counting, calls = counted(fn)
        back = tf.invert_batch(ys, counting)
        assert np.max(np.abs(back - xs)) <= 1e-8
        assert calls[0] <= 20

    @pytest.mark.parametrize("nan_where", [
        lambda t: t > 0.3,  # at the bracket end x = 1
        lambda t: np.abs(t) < 0.1,  # at the first iterate, the midpoint x = 0
    ], ids=["bracket-end", "iterate"])
    def test_nonfinite_forward_raises(self, nan_where):
        with pytest.raises(NumericError) as exc:
            tf.invert_batch([0.2, 0.5], lambda t: np.where(nan_where(t), np.nan, t))
        assert "entry 0" in str(exc.value)
        assert exc.value.index == 0

    def test_large_x_ends_at_ulp_width(self):
        # 1e-12 is below the spacing of floats near 5e5
        fn, calls = counted(tf.forward_closure("affine-exp", tf.AffineParams(0.0, 0.0)))
        assert tf.invert_batch([5e5], fn)[0] == 5e5
        assert calls[0] <= 60

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(tf, "SOLVER_ITERATIONS", 2)
        p = tf.DsfParams(w=[0.5, 0.5], a=[2.0, 1.0], b=[0.0, 0.0])
        with pytest.raises(NumericError) as exc:
            tf.invert_batch([0.1, 0.7], tf.forward_closure("dsf", p))
        assert "entry 0" in str(exc.value)
        assert exc.value.index == 0


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
        p = tf.DsfParams(w=[1.0], a=[1.0], b=[0.0])
        assert increasing(tf.forward_closure("dsf", p), (-3.0, 0.0, 3.0))

    def test_random_dsf_seeds(self):
        grid = np.linspace(-5, 5, 201)
        for s in range(200):
            p = tf.random_params("dsf", np.random.default_rng(s))
            assert increasing(tf.forward_closure("dsf", p), grid)

    def test_corrupted_slope_detected(self):
        p = tf.DsfParams(w=[0.5, 0.5], a=[1.0, 1.0], b=[-2.0, 2.0])
        p.a[1] = -3.0  # violate positivity after construction
        grid = np.linspace(-5, 5, 801)
        assert not increasing(tf.forward_closure("dsf", p), grid)


class TestLogdetProperty:
    @pytest.mark.parametrize("kind", ["affine-exp", "affine-gate", "dsf", "ddsf"])
    def test_logdet_matches_fd_100_seeds(self, kind):
        for s in range(100):
            params = tf.random_params(kind, np.random.default_rng(s))
            fn = tf.forward_closure(kind, params)
            x = float(np.random.default_rng(1000 + s).uniform(-3, 3))
            if kind == "affine-exp":
                _, ld = tf.affine_forward(x, params, "exp")
            elif kind == "affine-gate":
                _, ld = tf.affine_forward(x, params, "gate")
            elif kind == "dsf":
                _, ld = tf.dsf_forward(x, params)
            else:
                _, ld = tf.ddsf_forward(x, params)
            fd = fd_slope(fn, x, h=1e-5)
            assert abs(math.exp(ld) - fd) / max(abs(fd), 1e-12) < 1e-4, (kind, s)

    @pytest.mark.parametrize("kind", ["dsf", "ddsf"])
    def test_identity_parameters_give_identity(self, kind):
        if kind == "dsf":
            p = tf.DsfParams(w=np.full(16, 1 / 16), a=np.ones(16), b=np.zeros(16))
            fwd = lambda x: tf.dsf_forward(x, p)
        else:
            d = 16
            l1 = tf.DdsfLayerParams(u=np.ones((d, 1)), w=np.full((d, d), 1 / d),
                                    a=np.ones(d), b=np.zeros(d))
            l2 = tf.DdsfLayerParams(u=np.full((1, d), 1 / d), w=np.ones((1, 1)),
                                    a=np.ones(1), b=np.zeros(1))
            fwd = lambda x: tf.ddsf_forward(x, [l1, l2])
        for x in np.linspace(-3, 3, 13):
            y, ld = fwd(float(x))
            assert y == pytest.approx(float(x), abs=1e-5)
            assert ld == pytest.approx(0.0, abs=1e-5)
