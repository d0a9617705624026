import math

import numpy as np
import pytest

from conftest import constant_affine_stack
from nafkit import diffgraph as dg
from nafkit.errors import DomainError, NumericError
from nafkit.flow import FlowStack
from nafkit.targets import TargetSpec, get_target
from nafkit.training import Adam, TrainConfig, clip_global_norm, energy_loss, fit, mle_loss

LOG_2PI = math.log(2.0 * math.pi)
STD_NORMAL_ENTROPY = 0.5 * math.log(2.0 * math.pi * math.e)  # ~1.4189385332


def normal_target(m, mu=0.0):
    def logp(y):
        sq = dg.vsum(dg.mul(dg.sub(y, mu), dg.sub(y, mu)), axis=1)
        return dg.mul(sq, -0.5) - 0.5 * m * LOG_2PI

    return TargetSpec(name=f"normal-{mu}", dim=m, log_density=logp)


class TestMleLoss:
    def test_identity_stack_m1(self):
        stack = constant_affine_stack(1, 0.0, 0.0)
        loss = mle_loss(np.array([[0.0]]), stack)
        assert float(loss.data) == pytest.approx(0.5 * LOG_2PI, abs=1e-12)

    def test_identity_stack_m2(self):
        stack = constant_affine_stack(2, 0.0, 0.0)
        loss = mle_loss(np.array([[1.0, -1.0]]), stack)
        assert float(loss.data) == pytest.approx(LOG_2PI + 1.0, abs=1e-12)

    def test_affine_constant_layer(self):
        stack = constant_affine_stack(1, 0.0, math.log(2.0))
        loss = mle_loss(np.array([[0.0]]), stack)
        assert float(loss.data) == pytest.approx(0.5 * LOG_2PI - math.log(2.0), abs=1e-12)

    def test_batch_order_invariance(self, rng):
        stack = FlowStack.build(m=2, kind="dsf", d=8, seed=0)
        batch = rng.normal(size=(64, 2))
        a = float(mle_loss(batch, stack).data)
        b = float(mle_loss(batch[::-1].copy(), stack).data)
        assert a == pytest.approx(b, abs=1e-12)

    def test_saturation_names_point_index(self):
        from nafkit.errors import SaturationError

        stack = FlowStack.build(m=2, kind="dsf", d=8, seed=0)
        batch = np.array([[0.0, 0.0], [0.1, -0.2], [0.0, 1e9]])
        with pytest.raises(SaturationError) as exc:
            mle_loss(batch, stack)
        assert "point 2" in str(exc.value)
        assert exc.value.dim == 1


class TestEnergyLoss:
    def test_identity_vs_own_base_is_zero(self):
        stack = constant_affine_stack(2, 0.0, 0.0)
        loss = energy_loss(100000, stack, normal_target(2), seed=0)
        assert abs(float(loss.data)) <= 0.02

    def test_gaussian_kl_oracle(self):
        # KL(N(0,1) || N(2,1)) = 0.5*(1 + 4 - 1 - 0) = 2.0
        stack = constant_affine_stack(1, 0.0, 0.0)
        n = 100000
        loss = energy_loss(n, stack, normal_target(1, mu=2.0), seed=0)
        assert float(loss.data) == pytest.approx(2.0, abs=3.0 / math.sqrt(n))

    def test_gradient_matches_fd_with_frozen_noise(self):
        stack = constant_affine_stack(1, 0.0, 0.0)
        params = [stack.layers[0].conditioner.biases[-1]]
        dev = dg.check_gradients(
            lambda: energy_loss(64, stack, normal_target(1, mu=2.0), seed=11),
            params, eps=1e-4,
        )
        assert dev < 1e-3

    def test_nonfinite_target_names_sample(self):
        stack = constant_affine_stack(1, 0.0, 0.0)

        def bad_logp(y):
            data = y.data if dg.is_value(y) else y
            out = np.where(data[:, 0] > 0, -np.inf, -1.0)
            return dg.Value(out) if dg.is_value(y) else out

        tgt = TargetSpec(name="bad", dim=1, log_density=bad_logp)
        with pytest.raises(NumericError) as exc:
            energy_loss(64, stack, tgt, seed=0)
        assert "sample" in str(exc.value)


class TestAdam:
    def test_first_step_is_lr_sized(self):
        p = dg.Parameter(np.array([0.0]), "p")
        p.grad = np.array([1.0])
        opt = Adam([p], lr=0.1)
        opt.step()
        assert p.data[0] == pytest.approx(-0.1, abs=1e-8)

    def test_zero_gradient_keeps_parameters(self):
        p = dg.Parameter(np.array([1.5]), "p")
        p.grad = np.array([0.0])
        Adam([p], lr=0.1).step()
        assert p.data[0] == 1.5

    def test_constant_gradient_second_step(self):
        # hand-iterated recurrences: both bias-corrected steps are ~lr
        p = dg.Parameter(np.array([0.0]), "p")
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        first = -float(p.data[0])
        p.grad = np.array([1.0])
        opt.step()
        second = -float(p.data[0]) - first
        assert first == pytest.approx(0.1, abs=1e-6)
        assert second == pytest.approx(0.1, abs=1e-6)

    def test_nonfinite_gradient_names_parameter(self):
        p = dg.Parameter(np.array([0.0]), "conv.W3")
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError) as exc:
            Adam([p]).step()
        assert "conv.W3" in str(exc.value)

    def test_monotone_descent_on_quadratic(self):
        p = dg.Parameter(np.array([3.0, -2.0]), "p")
        opt = Adam([p], lr=0.01)
        losses = []
        for _ in range(50):
            dg.zero_grad([p])
            loss = dg.vsum(p * p)
            losses.append(float(loss.data))
            dg.backward(loss)
            opt.step()
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestClipGlobalNorm:
    def test_shared_gradient_array_scaled_once(self):
        # add gives p and q one gradient array; each is scaled exactly once
        p, q = dg.Parameter(np.zeros(2), "p"), dg.Parameter(np.zeros(2), "q")
        dg.backward(dg.vsum((p + q) * 3.0))
        norm = clip_global_norm([p, q], 1.0)
        assert norm == pytest.approx(6.0)
        np.testing.assert_allclose(p.grad, [0.5, 0.5])
        np.testing.assert_allclose(q.grad, [0.5, 0.5])


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(loss="contrastive")
        with pytest.raises(DomainError):
            TrainConfig(lr=-1.0)
        with pytest.raises(DomainError):
            TrainConfig(beta1=1.0)
        with pytest.raises(DomainError):
            TrainConfig(batch=0)

    def test_as_dict_round_trips_every_field(self):
        cfg = TrainConfig(loss="energy", steps=7, batch=3, lr=0.5, beta1=0.8, beta2=0.99,
                          eps=1e-6, seed=9, grad_clip=None, polyak=0.95)
        assert TrainConfig(**cfg.as_dict()) == cfg


class TestFit:
    def test_identity_init_reaches_normal_entropy(self, rng):
        data = rng.normal(size=(4000, 1))
        stack = FlowStack.build(m=1, kind="dsf", d=16, seed=0)
        trace = fit(stack, TrainConfig(loss="mle", steps=200, batch=256, lr=1e-3,
                                       seed=0), data=data)
        assert trace[-1][1] == pytest.approx(STD_NORMAL_ENTROPY, abs=0.05)

    def test_lr_zero_full_batch_trace_constant(self, rng):
        data = rng.normal(size=(128, 1))
        stack = FlowStack.build(m=1, kind="dsf", d=8, seed=0)
        trace = fit(stack, TrainConfig(loss="mle", steps=20, batch=128, lr=0.0,
                                       seed=0), data=data)
        losses = [l for _, l in trace]
        # constant up to float reassociation of the reshuffled batch mean
        assert max(losses) - min(losses) <= 1e-12

    def test_bit_identical_traces(self, rng):
        data = rng.normal(size=(512, 2))
        t1 = fit(FlowStack.build(m=2, kind="dsf", d=8, seed=3),
                 TrainConfig(loss="mle", steps=30, batch=64, seed=3), data=data)
        t2 = fit(FlowStack.build(m=2, kind="dsf", d=8, seed=3),
                 TrainConfig(loss="mle", steps=30, batch=64, seed=3), data=data)
        assert t1 == t2

    def test_energy_traces_bit_identical(self):
        tgt = get_target("four-mode")
        t1 = fit(FlowStack.build(m=2, kind="dsf", d=8, seed=4),
                 TrainConfig(loss="energy", steps=20, batch=32, seed=4), target=tgt)
        t2 = fit(FlowStack.build(m=2, kind="dsf", d=8, seed=4),
                 TrainConfig(loss="energy", steps=20, batch=32, seed=4), target=tgt)
        assert t1 == t2

    def test_dsf_beats_affine_on_bimodal_mixture(self, rng):
        # modes +-2, sd 0.3; exact entropy by numeric integration
        n = 6000
        comp = rng.integers(0, 2, size=n) * 4.0 - 2.0
        data = (comp + 0.3 * rng.standard_normal(n)).reshape(-1, 1)
        xs = np.linspace(-6, 6, 8001)
        dens = 0.5 * (np.exp(-((xs - 2) ** 2) / (2 * 0.09)) +
                      np.exp(-((xs + 2) ** 2) / (2 * 0.09))) / math.sqrt(2 * math.pi * 0.09)
        entropy = np.trapezoid(-dens * np.log(np.maximum(dens, 1e-300)), xs)

        cfg = TrainConfig(loss="mle", steps=1200, batch=256, lr=1e-2, seed=0)
        dsf = FlowStack.build(m=1, kind="dsf", d=16, seed=0)
        fit(dsf, cfg, data=data)
        nll_dsf = float(-np.mean(dsf.log_density(data)))

        aff = FlowStack.build(m=1, kind="affine-exp", n_layers=6, seed=0)
        fit(aff, cfg, data=data)
        nll_aff = float(-np.mean(aff.log_density(data)))

        assert nll_dsf >= entropy - 0.1  # sanity: cannot beat the entropy
        assert nll_aff >= nll_dsf + 0.2

    def test_requires_matching_inputs(self):
        stack = FlowStack.build(m=2, kind="dsf", d=4, seed=0)
        with pytest.raises(DomainError):
            fit(stack, TrainConfig(loss="mle", steps=1), data=None)
        with pytest.raises(DomainError):
            fit(stack, TrainConfig(loss="energy", steps=1), target=None)
        with pytest.raises(DomainError):
            fit(stack, TrainConfig(loss="mle", steps=1, batch=64),
                data=np.zeros((8, 2)))

    def test_nonfinite_row_rejected_by_index(self, rng):
        data = rng.normal(size=(64, 2))
        data[17, 1] = np.inf
        with pytest.raises(DomainError) as exc:
            fit(FlowStack.build(m=2, kind="dsf", d=4, seed=0),
                TrainConfig(loss="mle", steps=1, batch=16), data=data)
        assert "row 17" in str(exc.value)

    def test_polyak_installs_averaged_weights(self, rng):
        data = rng.normal(size=(256, 1))
        live = FlowStack.build(m=1, kind="dsf", d=4, seed=1)
        avg = FlowStack.build(m=1, kind="dsf", d=4, seed=1)
        cfg = TrainConfig(loss="mle", steps=40, batch=64, seed=1)
        fit(live, cfg, data=data)
        cfg_avg = TrainConfig(loss="mle", steps=40, batch=64, seed=1, polyak=0.9)
        fit(avg, cfg_avg, data=data)
        diffs = [float(np.max(np.abs(a.data - b.data)))
                 for a, b in zip(live.parameters(), avg.parameters())]
        assert max(diffs) > 0  # averaging actually changed the endpoint
