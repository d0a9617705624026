import importlib.util
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import (constant_affine_stack, counted_solves, exact_identity_dsf_stack,
                      row_gradient_fd)
import nafkit
from nafkit import diffgraph as dg
from nafkit import flow
from nafkit import transformer as tf
from nafkit.errors import DataError, DomainError, NumericError, RangeError, SaturationError
from nafkit.flow import FlowLayer, FlowStack, StandardNormal, UniformBase
from nafkit.training import mle_loss

LOG_2PI = math.log(2.0 * math.pi)


class TestLayerForward:
    def test_identity_init_near_identity(self):
        stack = FlowStack.build(m=2, kind="dsf", d=16, seed=0)
        x = np.array([[0.3, -1.2]])
        y, ld = stack.forward(x)
        assert np.max(np.abs(y - x)) <= 0.1
        assert abs(float(ld[0])) <= 0.1

    def test_m1_layer_matches_bare_transformer(self):
        layer = FlowLayer(1, "dsf", d=4, seed=0)
        for w in layer.conditioner.weights:
            w.data[:] = 0.0
        for b in layer.conditioner.biases:
            b.data[:] = 0.0
        # encode pseudo-params through the output bias (plus offsets)
        w_pre = np.array([0.3, -0.2, 0.1, 0.0])
        a_pre_raw = np.array([0.4, 0.0, -0.3, 0.2])
        b_vec = np.array([0.5, -1.0, 0.0, 2.0])
        layer.conditioner.biases[-1].data = np.concatenate([w_pre, a_pre_raw, b_vec])
        fam = tf.Dsf(4)
        block = np.concatenate([w_pre, a_pre_raw, b_vec]) + fam.offset
        xs = np.array([[0.7], [-2.1], [0.0]])
        y_layer, ld_layer = FlowStack([layer]).forward(xs)
        y_ref, ld_ref = fam.forward(xs[:, 0], np.broadcast_to(block[:, None], (fam.width, 3)))
        np.testing.assert_allclose(y_layer[:, 0], y_ref, atol=1e-12)
        np.testing.assert_allclose(ld_layer, ld_ref, atol=1e-12)

    @pytest.mark.parametrize("kind", ["affine-exp", "affine-gate", "dsf", "ddsf"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_triangular_jacobian(self, kind, m, rng):
        layer = FlowLayer(m, kind, d=6, ddsf_dims=(1, 4, 1), hidden=(12,), seed=m)
        for p in layer.parameters():
            p.data = p.data + rng.normal(scale=0.4, size=p.data.shape)
        x0 = rng.normal(size=(1, m))
        h = 1e-6
        for s in range(m):
            xp, xm = x0.copy(), x0.copy()
            xp[0, s] += h
            xm[0, s] -= h
            diff = (layer.forward(xp)[0] - layer.forward(xm)[0]) / (2 * h)
            for t in range(m):
                if s > t:  # strictly above the diagonal in natural order
                    assert abs(diff[0, t]) <= 1e-9

    def test_reversed_order_layer_flips_triangle(self, rng):
        m = 3
        layer = FlowLayer(m, "dsf", d=4, order=(3, 2, 1), seed=9)
        for p in layer.parameters():
            p.data = p.data + rng.normal(scale=0.4, size=p.data.shape)
        x0 = rng.normal(size=(1, m))
        h = 1e-6
        for s in range(m):
            xp, xm = x0.copy(), x0.copy()
            xp[0, s] += h
            xm[0, s] -= h
            diff = (layer.forward(xp)[0] - layer.forward(xm)[0]) / (2 * h)
            for t in range(m):
                if s < t:  # reversed order: dependence runs the other way
                    assert abs(diff[0, t]) <= 1e-9


class TestLogDensity:
    def test_identity_stack_m1_at_zero(self):
        stack = constant_affine_stack(1, 0.0, 0.0)
        got = stack.log_density(np.array([[0.0]]))
        assert got[0] == pytest.approx(-0.5 * LOG_2PI, abs=1e-12)

    def test_identity_stack_m2(self):
        stack = constant_affine_stack(2, 0.0, 0.0)
        got = stack.log_density(np.array([[1.0, -1.0]]))
        assert got[0] == pytest.approx(-LOG_2PI - 1.0, abs=1e-12)

    def test_dsf_identity_params_close(self):
        stack = exact_identity_dsf_stack(2)
        got = stack.log_density(np.array([[1.0, -1.0]]))
        assert got[0] == pytest.approx(-LOG_2PI - 1.0, abs=1e-4)

    def test_affine_change_of_variables(self):
        # log p(x) = log N(1 + 2x; 0, 1) + ln 2 at x = 0
        stack = constant_affine_stack(1, 1.0, math.log(2.0))
        got = stack.log_density(np.array([[0.0]]))
        want = -0.5 * LOG_2PI - 0.5 + math.log(2.0)
        assert got[0] == pytest.approx(want, abs=1e-12)

    def test_change_of_variables_self_consistency(self, rng):
        stack = FlowStack.build(m=2, kind="dsf", d=8, seed=4)
        for p in stack.parameters():
            p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
        x = rng.normal(size=(50, 2))
        u, ld = stack.forward(x)
        direct = stack.base.log_prob(u) + ld
        np.testing.assert_allclose(stack.log_density(x), direct, atol=1e-12)

    def test_stack_logdet_is_sum_of_layer_logdets(self, rng):
        stack = FlowStack.build(m=2, kind="dsf", d=6, n_layers=3, seed=5)
        for p in stack.parameters():
            p.data = p.data + rng.normal(scale=0.2, size=p.data.shape)
        x = rng.normal(size=(10, 2))
        total = np.zeros(10)
        h = x
        for layer in stack.layers:
            h, ld = layer.forward(h)
            total = total + ld
        _, ld_stack = stack.forward(x)
        np.testing.assert_array_equal(ld_stack, total)

    def test_untrained_identity_density_normalizes(self):
        stack = exact_identity_dsf_stack(1)
        xs = np.linspace(-10, 10, 4001).reshape(-1, 1)
        mass = np.trapezoid(np.exp(stack.log_density(xs)), xs[:, 0])
        assert 0.99 <= mass <= 1.01


class TestSampling:
    def test_identity_stack_samples_are_base_draws(self):
        stack = constant_affine_stack(2, 0.0, 0.0)
        samples = stack.sample(100, seed=3)
        z = StandardNormal(2).sample(100, np.random.default_rng(3))
        np.testing.assert_allclose(samples, z, atol=1e-8)

    def test_affine_closed_form_inverse_distribution(self):
        # data x with 1 + 2x ~ N(0,1): mean -0.5, sd 0.5
        stack = constant_affine_stack(1, 1.0, math.log(2.0))
        n = 20000
        samples = stack.sample(n, seed=7)
        assert samples.mean() == pytest.approx(-0.5, abs=3 * 0.5 / math.sqrt(n))
        assert samples.std() == pytest.approx(0.5, abs=0.02)

    def test_forward_inverse_round_trip(self, rng):
        stack = FlowStack.build(m=2, kind="dsf", d=8, n_layers=2, seed=6)
        for p in stack.parameters():
            p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
        z = rng.normal(size=(200, 2))
        x = stack.inverse(z)
        z_back, _ = stack.forward(x)
        assert np.max(np.abs(z_back - z)) <= 1e-6

    @pytest.mark.parametrize("kind", ["affine-exp", "affine-gate"])
    def test_affine_analytic_inverse_is_exact(self, kind, rng):
        stack = FlowStack.build(m=2, kind=kind, n_layers=2, seed=3)
        for p in stack.parameters():
            p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
        z = rng.normal(size=(200, 2))
        z_back, _ = stack.forward(stack.inverse(z))
        assert np.max(np.abs(z_back - z)) <= 1e-12

    def test_ddsf_stack_sampling_round_trip(self, rng):
        stack = FlowStack.build(m=2, kind="ddsf", ddsf_dims=(1, 4, 1),
                                hidden=(12,), seed=21)
        for p in stack.parameters():
            p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
        z = rng.normal(size=(100, 2))
        z_back, _ = stack.forward(stack.inverse(z))
        assert np.max(np.abs(z_back - z)) <= 1e-6
        samples = stack.sample(200, seed=4)
        assert np.all(np.isfinite(stack.log_density(samples)))

    @pytest.mark.parametrize("kind,dims", [("dsf", None), ("ddsf", (1, 16, 16, 1))])
    def test_tail_points_round_trip(self, kind, dims):
        # inversion evaluates the guarded forward, so tails the density
        # path scores come back too
        stack = FlowStack.build(m=2, kind=kind, ddsf_dims=dims, seed=0)
        x = np.array([[0.0, 28.0], [-40.0, -40.0]])
        z, _ = stack.forward(x)
        assert np.max(np.abs(stack.inverse(z) - x)) <= 1e-6

    def test_unreachable_inverse_names_layer_and_dimension(self):
        stack = FlowStack.build(m=2, kind="affine-exp", seed=0)
        with pytest.raises(RangeError) as exc:
            stack.inverse(np.array([[0.0, 0.0], [0.0, 1e7]]))
        assert str(exc.value).startswith("layer0, dimension 1, batch point 1: ")
        assert exc.value.dim == 1

    def test_saturated_inverse_names_layer_dimension_and_sample(self):
        stack = FlowStack.build(m=2, kind="dsf", seed=0)
        with pytest.raises(SaturationError) as exc:
            stack.inverse(np.array([[0.0, 0.0], [1e7, 0.0]]))
        assert str(exc.value).startswith("layer0, dimension 0, batch point 1: ")
        assert (exc.value.dim, exc.value.index) == (0, 2)

    def test_unconverged_inverse_names_layer_dimension_and_sample(self, monkeypatch):
        # one step: layer1's dimension 1, solved first from its shared table,
        # converges in two
        monkeypatch.setattr(tf, "SOLVER_ITERATIONS", 1)
        stack = FlowStack.build(m=2, kind="dsf", n_layers=2, seed=0)
        with pytest.raises(NumericError) as exc:
            stack.inverse(np.array([[0.0, 0.0], [0.3, 0.7]]))
        assert str(exc.value).startswith("layer1, dimension 1, batch point 0: ")
        assert (exc.value.dim, exc.value.index) == (1, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["affine-exp", "affine-gate", "dsf", "ddsf"])
    def test_nonfinite_target_names_layer_dimension_and_sample(self, kind, bad):
        # layer1 (reversed order) inverts first, dimension 1 before dimension 0
        stack = FlowStack.build(m=2, kind=kind, n_layers=2, seed=0)
        with pytest.raises(RangeError) as exc:
            stack.inverse(np.array([[0.0, 0.0], [bad, 0.0]]))
        assert str(exc.value).startswith("layer1, dimension 0, batch point 1: ")
        assert (exc.value.dim, exc.value.index) == (0, 2)

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 1, 2)])
    def test_wrong_shaped_target_rejected(self, shape):
        with pytest.raises(DomainError):
            FlowStack.build(m=2, kind="dsf", seed=0).inverse(np.zeros(shape))

    def test_sample_logdensity_finite(self, rng):
        stack = FlowStack.build(m=2, kind="dsf", d=8, seed=8)
        for p in stack.parameters():
            p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
        samples = stack.sample(500, seed=1)
        assert np.all(np.isfinite(stack.log_density(samples)))

    def test_sampling_determinism(self):
        stack = FlowStack.build(m=2, kind="dsf", d=8, seed=2)
        np.testing.assert_array_equal(stack.sample(64, seed=5), stack.sample(64, seed=5))

    def test_sampling_density_self_consistency(self, rng):
        # mean log-density over model samples within 3 standard errors of
        # the negative entropy estimated from the same draws through the
        # sampling path (base log-prob minus forward logdet)
        stack = FlowStack.build(m=2, kind="dsf", d=8, seed=12)
        for p in stack.parameters():
            p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
        n = 10000
        z = stack.base.sample(n, np.random.default_rng(44))
        x = stack.inverse(z)
        _, ld = stack.forward(x)
        # log q(x) along the sampling path: log p0(z) + logdet at x
        neg_entropy_est = np.mean(stack.base.log_prob(z) + ld)
        direct = stack.log_density(x)
        se = direct.std() / np.sqrt(n)
        assert abs(np.mean(direct) - neg_entropy_est) <= 3 * se + 1e-6


class TestNonfiniteInput:
    @pytest.mark.parametrize("call", ["forward", "log_density", "transform_noise"])
    def test_error_names_layer_dimension_and_point(self, call):
        # point 1500 lies in the second row block; the error counts from the whole input
        stack = FlowStack.build(m=2, kind="dsf", n_layers=2, seed=0)
        x = np.random.default_rng(0).normal(size=(2000, 2))
        x[1500, 1] = np.nan
        with pytest.raises(DomainError) as exc:
            getattr(stack, call)(x)
        assert str(exc.value).startswith("layer0, dimension 1, batch point 1500: ")
        assert (exc.value.dim, exc.value.index) == (1, 1500 * 2 + 1)


class TestTransformNoise:
    def test_identity(self):
        stack = constant_affine_stack(2, 0.0, 0.0)
        x = np.array([[0.5, -0.25]])
        y, logq = stack.transform_noise(x)
        np.testing.assert_array_equal(y, x)
        assert logq[0] == pytest.approx(float(stack.base.log_prob(x)[0]), abs=1e-12)

    def test_affine_hand_computation(self):
        # s = ln 2, mu = 0, x = 1: y = 2, log q = log N(1;0,1) - ln 2
        stack = constant_affine_stack(1, 0.0, math.log(2.0))
        y, logq = stack.transform_noise(np.array([[1.0]]))
        assert y[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert logq[0] == pytest.approx(-0.5 * LOG_2PI - 0.5 - math.log(2.0), abs=1e-12)

    def test_forward_inverse_density_consistency(self, rng):
        # log q(y) recomputed through the inverse path agrees
        stack = FlowStack.build(m=2, kind="dsf", d=8, seed=11)
        for p in stack.parameters():
            p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
        x = rng.normal(size=(100, 2))
        y, logq = stack.transform_noise(x)
        x_hat = stack.inverse(y)
        _, ld_hat = stack.forward(x_hat)
        logq_hat = stack.base.log_prob(x_hat) - ld_hat
        np.testing.assert_allclose(logq_hat, logq, atol=1e-6)


class TestBases:
    def test_uniform_logprob(self):
        base = UniformBase(2)
        x = np.array([[0.5, 0.5], [1.5, 0.5]])
        out = base.log_prob(x)
        assert out[0] == 0.0
        assert out[1] == -np.inf

    def test_normal_adjoint_matches_central_differences(self, rng):
        base = StandardNormal(3)
        x, g = rng.normal(size=(5, 3)) * 2.0, rng.normal(size=5)
        np.testing.assert_allclose(base.adjoint(x, g), row_gradient_fd(base.log_prob, x, g),
                                   rtol=1e-7, atol=1e-9)
        inside = rng.uniform(0.1, 0.9, size=(5, 3))
        assert not np.any(UniformBase(3).adjoint(inside, g))


class TestCheckpoint:
    def test_round_trip_preserves_forward(self, tmp_path, rng):
        stack = FlowStack.build(m=2, kind="ddsf", ddsf_dims=(1, 4, 1), seed=3)
        for p in stack.parameters():
            p.data = p.data + rng.normal(scale=0.2, size=p.data.shape)
        path = str(tmp_path / "ckpt.json")
        stack.save(path)
        loaded = FlowStack.load(path)
        x = rng.normal(size=(8, 2))
        np.testing.assert_array_equal(stack.forward(x)[0], loaded.forward(x)[0])
        np.testing.assert_array_equal(stack.forward(x)[1], loaded.forward(x)[1])

    def test_version_field_checked(self, tmp_path):
        stack = FlowStack.build(m=1, kind="dsf", d=4, seed=0)
        doc = stack.to_json()
        doc["version"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            FlowStack.load(str(path))

    def test_header_records_layout(self):
        stack = FlowStack.build(m=3, kind="dsf", d=8, n_layers=2, seed=0)
        doc = stack.to_json()
        assert doc["m"] == 3
        assert doc["base"] == "normal"
        assert doc["layers"][0]["order"] == [1, 2, 3]
        assert doc["layers"][1]["order"] == [3, 2, 1]  # reversed on odd layers

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            FlowLayer(2, "spline", seed=0)


R = 1024  # rows per block of each layer of perturbed_stack


def perturbed_stack(kind, seed=0):
    """A 2-layer m = 2 stack of the kind, its parameters moved off the identity.

    Its hidden layer is sized so that a layer holds 160 floats per point, as
    dsf's at m = 2, hidden 64 does: every kind then runs in blocks of R rows.
    """
    width = tf.family(kind)(d=4, dims=(1, 4, 4, 1)).width
    stack = FlowStack.build(m=2, kind=kind, n_layers=2, d=4, ddsf_dims=(1, 4, 4, 1),
                            hidden=(160 - 2 * width,), seed=seed)
    assert [flow._block_rows(layer) for layer in stack.layers] == [R, R]
    rng = np.random.default_rng(seed + 100)
    for p in stack.parameters():
        p.data = p.data + rng.normal(scale=0.2, size=p.shape)
    return stack


def traced_peak(call, *args, **kwargs):
    """Peak bytes that tracemalloc sees allocated during call(*args, **kwargs)."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRowBlocks:
    """Arrays run through each layer in row blocks of flow._block_rows points."""

    def test_rows_follow_the_byte_budget(self):
        rows = {}
        for kind, m, hidden in (("affine-exp", 2, 64), ("dsf", 1, 64), ("dsf", 2, 64),
                                ("ddsf", 2, 64), ("ddsf", 2, 512), ("dsf", 43, 64)):
            layer = FlowLayer(m, kind, ddsf_dims=(1, 16, 16, 1), hidden=(hidden,))
            floats = hidden + m * layer.family.width
            rows[kind, m, hidden] = n = flow._block_rows(layer)
            assert n % 16 == 0 and 496 <= n <= 1024
            assert n * floats * 8 <= flow._BLOCK_BYTES or n == 496
        # dsf at m = 2, hidden 64 keeps 1024 rows; the hidden units count too,
        # and blocks stay within the timed 496 to 1024 rows
        assert rows == {("affine-exp", 2, 64): 1024, ("dsf", 1, 64): 1024,
                        ("dsf", 2, 64): 1024, ("ddsf", 2, 64): 624,
                        ("ddsf", 2, 512): 496, ("dsf", 43, 64): 496}

    @pytest.mark.parametrize("n", [0, 1, R - 1, R, R + 1, int(2.5 * R)])
    @pytest.mark.parametrize("kind", ["affine-exp", "dsf", "ddsf"])
    def test_same_bytes_as_each_block_alone(self, kind, n):
        stack = perturbed_stack(kind)
        x = np.random.default_rng(n).normal(size=(n, 2))
        y, _ = stack.forward(x)
        calls = {
            "log_density": lambda a: (stack.log_density(a),),
            "transform_noise": stack.transform_noise,
        }
        for name, call in calls.items():
            whole = call(x)
            parts = [call(x[s:s + R]) for s in range(0, max(n, 1), R)]
            for got, *pieces in zip(whole, *parts):
                assert got.shape == ((n,) if got.ndim == 1 else (n, 2)), name
                assert got.tobytes() == np.concatenate(pieces).tobytes(), name
        assert np.max(np.abs(stack.inverse(y) - x), initial=0.0) <= 1e-8

    @pytest.mark.parametrize("call", ["transform_noise", "log_density"])
    def test_peak_memory_holds_one_block(self, call):
        # Blocks free their temporaries: past two blocks the peak grows only by
        # the extra points' outputs, 2 (m + 1) floats per point per layer (each
        # block's y and logdet, and their concatenation), plus 64 KiB of slack.
        m, layers = 2, 2
        stack = FlowStack.build(m=m, kind="ddsf", n_layers=layers, ddsf_dims=(1, 16, 16, 1),
                                seed=0)
        rows = flow._block_rows(stack.layers[0])
        fn = getattr(stack, call)
        peaks = {}
        for blocks in (2, 8):
            x = np.random.default_rng(blocks).normal(size=(blocks * rows, m))
            fn(x)
            peaks[blocks] = traced_peak(fn, x)
        extra = 6 * rows * layers * 2 * (m + 1) * 8
        assert peaks[8] - peaks[2] <= extra + 65536, (peaks, extra)

    def test_density_kernel_keeps_no_adjoint_state(self):
        # the kernel without adjoint keeps no saved list and builds no CWN
        # pieces (0.68x of the saved-state peak; 0.75x if it built them)
        layer = FlowLayer(2, "ddsf", ddsf_dims=(1, 16, 16, 1), seed=0)
        x = np.random.default_rng(0).normal(size=(flow._block_rows(layer), 2))
        fam, p = layer.family, layer.family.decode(layer.conditioner.forward(x))
        y, ld, saved = fam.core(x.T, p, adjoint=False)
        assert saved is None
        with_state = traced_peak(fam.core, x.T, p)
        assert traced_peak(fam.core, x.T, p, adjoint=False) <= 0.71 * with_state
        y_node, ld_node, _ = fam.core(x.T, p)
        assert y.tobytes() == y_node.tobytes() and ld.tobytes() == ld_node.tobytes()

    def test_parameter_arrays_once_per_call(self, monkeypatch):
        # V, E and w depend on vu and vw alone: each layer call takes them once,
        # not once per row block (forward) or per dimension (inverse)
        stack = perturbed_stack("ddsf")
        calls = []
        constants = tf._ddsf_constants
        monkeypatch.setattr(tf, "_ddsf_constants", lambda *a: calls.append(1) or constants(*a))
        x = np.random.default_rng(7).normal(size=(int(2.5 * R), 2))
        y, _ = stack.forward(x)
        assert len(calls) == len(stack.layers)
        calls.clear()
        stack.inverse(y[:16])
        assert len(calls) == len(stack.layers)

    def test_cwn_product_without_pieces_builds_no_reciprocal(self):
        # pieces=False skips 1/P: its peak is lower by about P's bytes
        rng = np.random.default_rng(0)
        V = rng.normal(size=(16, 16))
        V -= V.max(axis=1, keepdims=True)
        X = rng.normal(size=(2, 16, 624))
        with_pieces = traced_peak(tf._cwn_product, V, np.exp(V), X)
        log_only = traced_peak(tf._cwn_product, V, np.exp(V), X, pieces=False)
        assert log_only <= with_pieces - 0.9 * X.nbytes, (log_only, with_pieces)

    @pytest.mark.parametrize("kind", ["dsf", "ddsf"])
    def test_errors_name_the_global_point(self, kind):
        stack = FlowStack.build(m=2, kind=kind, ddsf_dims=(1, 8, 8, 1), seed=0)
        rows = flow._block_rows(stack.layers[0])
        x = np.random.default_rng(1).normal(size=(2 * rows, 2))
        x[rows + 3, 1] = 1e4
        y = x.copy()
        y[rows + 3, 1] = 1e7
        # inverse runs the whole batch, and names the same point
        for call, arg in ((stack.log_density, x), (stack.inverse, y)):
            with pytest.raises(NumericError) as exc:
                call(arg)
            assert f"dimension 1, batch point {rows + 3}: " in str(exc.value)
            assert (exc.value.dim, exc.value.index) == (1, (rows + 3) * 2 + 1)


def shared_block_layer(kind, m, seed=0, name="layer"):
    """An m-dimensional layer of the kind in reversed order (its dimension of
    degree 1 is the last), its parameters moved off the identity."""
    layer = FlowLayer(m, kind, d=4, ddsf_dims=(1, 4, 3, 1), hidden=(8,),
                      order=tuple(range(m, 0, -1)), seed=seed, name=name)
    rng = np.random.default_rng(seed + 10)
    for p in layer.parameters():
        p.data = p.data + rng.normal(scale=0.4, size=p.shape)
    return layer


KINDS = ["affine-exp", "affine-gate", "dsf", "ddsf"]


class TestSharedBlock:
    """The dimension of degree 1 sees no input: densities and training take its
    block on one column that every point shares, as sampling does."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_density_decodes_one_column(self, kind, m, monkeypatch):
        # the (width, 1) column is decoded once per call, and every row block's
        # density of it gives an expanded (width, n) block's outputs: dsf's to
        # the byte. The other dimensions' blocks go to forward row block by row block.
        layer = shared_block_layer(kind, m)
        fam, first = layer.family, layer.order.index(1)
        widths, columns, decode, density = [], [], fam.decode, fam.density

        def recorded_decode(block, constants=None, shared=None):
            if block.shape[-1] == 1:
                columns.append(block)
            return decode(block, constants, shared)

        # forward and the expanded block's outputs go through the unrecorded methods
        def recorded_density(x, p):
            widths.append((fam.width, 1))
            got = density(x, p)
            wide = forward(x, np.repeat(columns[-1], len(x), axis=1))
            for have, want in zip(got, wide):
                have = np.broadcast_to(have, want.shape)
                if kind == "dsf":
                    assert have.tobytes() == want.tobytes()
                np.testing.assert_allclose(have, want, rtol=1e-12, atol=1e-12)
            return got

        def forward(x, block, constants=None):
            return density(x, decode(block, constants))

        def recorded_forward(x, block, constants=None):
            widths.append(block.shape)
            return forward(x, block, constants)

        monkeypatch.setattr(fam, "decode", recorded_decode)
        monkeypatch.setattr(fam, "density", recorded_density)
        monkeypatch.setattr(fam, "forward", recorded_forward)
        rows = flow._block_rows(layer)
        n = rows + 37
        layer.forward(np.random.default_rng(m).normal(size=(n, m)))
        assert len(columns) == 1
        assert widths == [(fam.width, 1 if i == first else min(rows, n - s))
                          for s in range(0, n, rows) for i in range(m)]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [1, 3])
    def test_training_pass_has_the_density_bytes(self, kind, m):
        layer = shared_block_layer(kind, m, seed=m)
        x = np.random.default_rng(3).normal(size=(300, m))
        y, ld = layer.forward(x)
        y_saved, ld_saved, _ = layer.forward_saved(x)
        assert y.tobytes() == y_saved.tobytes() and ld.tobytes() == ld_saved.tobytes()

    @pytest.mark.parametrize("kind", ["affine-exp", "affine-gate"])
    def test_m1_affine_logdet_per_point(self, kind):
        # an affine logdet is its block's s, one column wide at m = 1
        layer = shared_block_layer(kind, 1)
        x = np.random.default_rng(4).normal(size=(7, 1))
        _, ld = layer.forward(x)
        y_saved, ld_saved, _ = layer.forward_saved(x)
        assert ld.shape == (7,) and y_saved.shape == (7, 1) and ld_saved.shape == (7,)
        assert FlowStack([layer]).log_density(x).shape == (7,)
        assert ld.tobytes() == ld_saved.tobytes() and np.all(ld == ld[0])

    def test_m1_nonfinite_input_names_layer_dimension_and_point(self):
        stack = FlowStack.build(m=1, kind="dsf", n_layers=2, seed=0)
        x = np.random.default_rng(0).normal(size=(2000, 1))
        x[1500, 0] = np.inf
        for call in (stack.forward, stack.log_density, stack.transform_noise):
            with pytest.raises(DomainError) as exc:
                call(x)
            assert str(exc.value).startswith("layer0, dimension 0, batch point 1500: ")
            assert (exc.value.dim, exc.value.index) == (0, 1500)

    @pytest.mark.parametrize("kind", KINDS)
    def test_m1_gradients(self, kind):
        # the whole conditioner runs on one column, and its gradient is summed
        # over the points first; the input weights are masked and stay at 0
        stack = FlowStack([shared_block_layer(kind, 1, seed=s, name=f"layer{s}") for s in (1, 2)])
        batch, params = np.random.default_rng(5).normal(size=(6, 1)), stack.parameters()
        assert dg.check_gradients(lambda: mle_loss(batch, stack), params, eps=1e-5) < 1e-4
        dg.zero_grad(params)
        dg.backward(mle_loss(batch, stack))
        for layer in stack.layers:
            w0 = layer.conditioner.weights[0]
            assert not layer.conditioner.masks[0].any() and np.all(w0.grad == 0.0)


def perfbench_workloads():
    """perfbench/workloads.py, loaded by path (perfbench is not a package)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sample_solves(solves, stack, seeds, draws, tol):
    """The forward evaluations of each solve of stack.sample(draws) at each
    seed, from counted_solves' list, once every draw round-trips within tol."""
    solves.clear()
    for s in seeds:
        x = stack.sample(draws, seed=s)
        noise = np.random.default_rng(s).standard_normal((draws, stack.m))
        np.testing.assert_allclose(stack.forward(x)[0], noise, rtol=0.0, atol=tol)
    return [len(sizes) for sizes in solves]


class TestHeldOutSolves:
    """The held-out inversions of the energy-ddsf-fourmode benchmark round: its
    ddsf stack after the round's 40-step energy fit, and the held-out batches of
    workload seeds 1-5 (training uses one fixed seed, so the stack is shared)."""

    # Forward evaluations, each y-only, of each of those solves (two per batch:
    # one per dimension) with one probe per bracketing round and safeguarded
    # Newton steps on secant slopes; with a probe for each side a bracket that
    # grows costs one more per round, and the inverse quadratic interpolation
    # refine took 8. The first dimension's block is one column that every point
    # shares: its solve starts from one table (one evaluation) where a bracket
    # took 6. A faster solver may lower these, but no solve may take more.
    EVALUATIONS = {seed: [3, 6, 3, 6] for seed in range(1, 6)}

    def test_no_solve_takes_more_evaluations(self, monkeypatch):
        wl = perfbench_workloads()
        bench = wl.EnergyDdsfFourMode()
        state = bench.setup(nafkit, 1, None)
        stack = state["stack"]
        nafkit.fit(stack, nafkit.TrainConfig(loss="energy", steps=bench.FIT_STEPS, batch=wl.BATCH,
                                             lr=wl.LR, seed=bench.TRAIN_SEED),
                   target=state["target"])
        solves = counted_solves(monkeypatch)
        for seed, want in self.EVALUATIONS.items():
            solves.clear()
            for points in bench.setup(nafkit, seed, None)["heldout"]:
                x = stack.inverse(points)
                np.testing.assert_allclose(stack.forward(x)[0], points, rtol=0.0,
                                           atol=wl.ROUNDTRIP_TOL)
            got = [len(sizes) for sizes in solves]
            assert len(got) == len(want), (seed, got)
            assert all(c <= w for c, w in zip(got, want)), (seed, got)


class TestSampleSolves:
    """The sampling inversions of the mle-dsf-grid benchmark round: for each
    workload seed 1-5, which draws the stack, its data and its fit, the dsf
    stack after the round's 300-step MLE fit, sampled at the round's four seeds."""

    # Forward evaluations, each a y-and-slope pass, of each of those solves (two
    # per sample call: one per dimension) with one probe per bracketing round
    # and safeguarded Newton steps. The first dimension's one-column block
    # starts its solve from one table: 4 where a bracket from [-1, 1] took 9-10.
    # A faster solver may lower these, but no solve may take more; y-only, by
    # inverse quadratic interpolation, they took 11-12 and 15-17.
    EVALUATIONS = {
        1: [4, 14, 4, 14, 4, 14, 4, 15],
        2: [4, 14, 4, 14, 4, 13, 4, 14],
        3: [4, 14, 4, 14, 4, 14, 4, 14],
        4: [4, 14, 4, 14, 4, 13, 4, 14],
        5: [4, 13, 4, 14, 4, 15, 4, 14],
    }

    def test_no_solve_takes_more_evaluations(self, monkeypatch):
        wl = perfbench_workloads()
        bench = wl.MleDsfGrid()
        solves = counted_solves(monkeypatch)
        for seed, want in self.EVALUATIONS.items():
            state = bench.setup(nafkit, seed, None)
            stack = state["stack"]
            nafkit.fit(stack, nafkit.TrainConfig(loss="mle", steps=bench.FIT_STEPS, batch=wl.BATCH,
                                                 lr=wl.LR, seed=seed), data=state["train"])
            got = sample_solves(solves, stack, state["sample_seeds"], bench.SAMPLE_DRAWS,
                                wl.ROUNDTRIP_TOL)
            assert len(got) == len(want), (seed, got)
            assert all(c <= w for c, w in zip(got, want)), (seed, got)


class TestStoredSampleSolves:
    """The sampling inversions of the sample-ddsf benchmark round: the stored
    2-layer ddsf checkpoint (read only), sampled at the two seeds that each
    workload seed 1-5 draws, as its CLI `sample` calls do."""

    # Forward evaluations, each y-only, of each of those solves (four per sample
    # call: one per layer and dimension, the last layer first) with one probe
    # per bracketing round and safeguarded Newton steps on secant slopes. A
    # faster solver may lower these, but no solve may take more; the inverse
    # quadratic interpolation refine took 8-9 and 14-15 (seed 1: 9, 14, 9, 15,
    # 9, 14, 9, 15). The second dimension's forward is nearly flat on [-1, 1]
    # and steep beyond, so secant steps bisect out of the plateau first. The
    # first dimension's one-column block starts from one table: 4 evaluations
    # where a bracket from [-1, 1] took 6-8.
    EVALUATIONS = {
        1: [4, 16, 4, 17, 4, 17, 4, 18],
        2: [4, 17, 4, 18, 4, 17, 4, 17],
        3: [4, 17, 4, 18, 4, 17, 4, 18],
        4: [4, 17, 4, 17, 4, 17, 4, 17],
        5: [4, 18, 4, 17, 4, 17, 4, 17],
    }

    def test_no_solve_takes_more_evaluations(self, monkeypatch, tmp_path):
        wl = perfbench_workloads()
        bench = wl.SampleDdsf()
        solves = counted_solves(monkeypatch)
        for seed, want in self.EVALUATIONS.items():
            state = bench.setup(nafkit, seed, str(tmp_path))
            stack = state["stack"]
            got = sample_solves(solves, stack, state["sample_seeds"], bench.SAMPLE_DRAWS,
                                wl.ROUNDTRIP_TOL)
            assert len(got) == len(want), (seed, got)
            assert all(c <= w for c, w in zip(got, want)), (seed, got)
