import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import constant_affine_stack
from nafkit import diffgraph as dg
from nafkit import stablemath as sm
from nafkit.errors import DomainError, NumericError
from nafkit.flow import FlowStack
from nafkit.targets import TargetSpec, get_target
from nafkit.training import Adam, TrainConfig, clip_global_norm, energy_loss, fit, mle_loss

LOG_2PI = math.log(2.0 * math.pi)
STD_NORMAL_ENTROPY = 0.5 * math.log(2.0 * math.pi * math.e)  # ~1.4189385332


def normal_target(m, mu=0.0):
    def logp(y):
        return np.sum((y - mu) * (y - mu), axis=1) * -0.5 - 0.5 * m * LOG_2PI

    def adjoint(y, g):
        return g[:, None] * (mu - y)

    return TargetSpec(name=f"normal-{mu}", dim=m, log_density=logp, adjoint=adjoint)


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
            return np.where(y[:, 0] > 0, -np.inf, -1.0)

        tgt = TargetSpec(name="bad", dim=1, log_density=bad_logp,
                         adjoint=lambda y, g: np.zeros_like(y))
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
            loss = dg.Value(np.sum(p.data * p.data), [p], lambda: [2.0 * p.data])
            losses.append(float(loss.data))
            dg.backward(loss)
            opt.step()
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestClipGlobalNorm:
    def test_shared_gradient_array_scaled_once(self):
        # a root may give p and q one gradient array; each is scaled exactly once
        p, q = dg.Parameter(np.zeros(2), "p"), dg.Parameter(np.zeros(2), "q")
        shared = np.full(2, 3.0)
        dg.backward(dg.Value(0.0, [p, q], lambda: [shared, shared]))
        assert p.grad is q.grad
        norm = clip_global_norm([p, q], 1.0)
        assert norm == pytest.approx(6.0)
        np.testing.assert_allclose(p.grad, [0.5, 0.5])
        np.testing.assert_allclose(q.grad, [0.5, 0.5])

    def test_overflowing_squares_clip_to_the_bound(self):
        # a finite gradient whose sum of squares overflows has a finite norm, and
        # is scaled to grad_clip, not to 0 by grad_clip / inf
        p = dg.Parameter(np.zeros(3), "p")
        dg.backward(dg.Value(0.0, [p], lambda: [np.array([1e160, -3e159, 2.0])]))
        grad_clip = TrainConfig().grad_clip
        norm = clip_global_norm([p], grad_clip)
        assert norm == pytest.approx(math.hypot(1e160, 3e159), rel=1e-15)
        assert np.linalg.norm(p.grad) == pytest.approx(grad_clip, rel=1e-15)
        assert p.grad[0] > 0.0 > p.grad[1]


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
        with pytest.raises(DomainError):
            TrainConfig(steps=0)

    @pytest.mark.parametrize("clip", [0.0, -1.0, float("nan"), float("inf")])
    def test_grad_clip_must_be_finite_and_positive(self, clip):
        with pytest.raises(DomainError, match="grad_clip"):
            TrainConfig(grad_clip=clip)
        assert TrainConfig(grad_clip=None).grad_clip is None  # clipping off
        assert TrainConfig(grad_clip=1e-3).grad_clip == 1e-3

    @pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf")])
    def test_lr_must_be_finite_and_nonnegative(self, lr):
        with pytest.raises(DomainError, match="lr must be finite and >= 0"):
            TrainConfig(lr=lr)
        assert TrainConfig(lr=0.0).lr == 0.0  # frozen runs stay expressible

    @pytest.mark.parametrize("eps", [0.0, -1e-8, float("nan"), float("inf")])
    def test_eps_must_be_finite_and_positive(self, eps):
        # eps = 0 divides 0 by 0 in the first step for every parameter whose
        # gradient is exactly 0, such as a masked conditioner weight
        with pytest.raises(DomainError, match="eps must be finite and > 0"):
            TrainConfig(eps=eps)
        assert TrainConfig(eps=1e-12).eps == 1e-12

    @pytest.mark.parametrize("polyak", [-0.1, 1.0, 1.5, float("nan")])
    def test_polyak_must_lie_in_unit_interval(self, polyak):
        with pytest.raises(DomainError, match="polyak"):
            TrainConfig(polyak=polyak)
        assert TrainConfig(polyak=0.0).polyak == 0.0
        assert TrainConfig(polyak=None).polyak is None

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


SWEEP_CASES = [
    # (id, kind, layers, m, loss, target)
    ("mle-affine-exp-x2", "affine-exp", 2, 2, "mle", None),
    ("mle-dsf", "dsf", 1, 2, "mle", None),
    ("mle-ddsf", "ddsf", 1, 2, "mle", None),
    ("energy-ddsf-four-mode", "ddsf", 1, 2, "energy", "four-mode"),
    ("energy-dsf-sine-posterior", "dsf", 1, 1, "energy", "sine-posterior"),
]


def counted(fn, calls, key):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


class TestSweep:
    """A training step is one forward pass and one reverse sweep of the layers' adjoints."""

    @pytest.mark.parametrize("kind,layers,m,loss,target", [c[1:] for c in SWEEP_CASES],
                             ids=[c[0] for c in SWEEP_CASES])
    def test_one_step_runs_each_adjoint_once(self, monkeypatch, kind, layers, m, loss, target):
        stack = FlowStack.build(m=m, kind=kind, n_layers=layers, d=4, ddsf_dims=(1, 4, 4, 1),
                                hidden=(8,), seed=0)
        calls, sets = Counter(), Counter()
        for i, layer in enumerate(stack.layers):
            for owner, attr in ((layer.family, "adjoint"), (layer.conditioner, "backward"),
                                (layer.conditioner, "forward")):
                setattr(owner, attr, counted(getattr(owner, attr), calls, (i, attr)))
        # count the gradient arrays that backward sets, per parameter
        slot, in_backward = dg.Value.grad, [False]

        def set_grad(node, g):
            if in_backward[0] and isinstance(node, dg.Parameter):
                sets[node.name] += 1
            slot.__set__(node, g)

        def traced_backward(root, run=dg.backward):
            in_backward[0] = True
            try:
                run(root)
            finally:
                in_backward[0] = False

        monkeypatch.setattr(dg.Value, "grad", property(slot.__get__, set_grad))
        monkeypatch.setattr(dg, "backward", traced_backward)
        data = np.random.default_rng(0).normal(size=(64, m))
        fit(stack, TrainConfig(loss=loss, steps=1, batch=64, seed=0),
            data=data if loss == "mle" else None,
            target=get_target(target) if target else None)
        for i in range(layers):
            assert calls[(i, "adjoint")] == 1 and calls[(i, "backward")] == 1
            assert calls[(i, "forward")] == 0
        assert sets == Counter({p.name: 1 for p in stack.parameters()})

    @pytest.mark.parametrize("loss", ["mle", "energy"])
    def test_previous_step_freed_before_next_forward(self, loss):
        # a step's loss root holds every layer's saved state; fit drops it once
        # its value is in the trace, so no two steps' states coexist at the peak
        # of a forward pass (reference counting alone, no cycle collection)
        stack = FlowStack.build(m=2, kind="dsf", d=4, hidden=(8,), seed=0)
        run, refs, held = stack.forward_saved, [], []

        def forward_saved(x):
            held.append(sum(r() is not None for r in refs))
            y, logdet, saved = run(x)
            refs.append(weakref.ref(saved[0][2]))  # the first layer's block
            return y, logdet, saved

        stack.forward_saved = forward_saved
        data = np.random.default_rng(0).normal(size=(64, 2))
        gc.disable()
        try:
            fit(stack, TrainConfig(loss=loss, steps=3, batch=32, seed=0),
                data=data if loss == "mle" else None,
                target=get_target("four-mode") if loss == "energy" else None)
        finally:
            gc.enable()
        assert held == [0, 0, 0]

    def test_dsf_reverse_sweep_takes_no_logsumexp(self, monkeypatch):
        # the dsf adjoint reads its weights from the kernel's linear sums: with
        # no entry below the floor, each layer's forward takes one logsumexp
        # (w's softmax) and the reverse sweep none
        stack = FlowStack.build(m=2, kind="dsf", n_layers=2, d=4, hidden=(8,), seed=0)
        calls = Counter()
        monkeypatch.setattr(sm, "logsumexp_over_axis",
                            counted(sm.logsumexp_over_axis, calls, "logsumexp"))
        loss = mle_loss(np.random.default_rng(0).normal(size=(64, 2)), stack)
        assert calls["logsumexp"] == 2
        dg.backward(loss)
        assert calls["logsumexp"] == 2

    def test_target_without_adjoint_fails_before_any_step(self):
        stack = FlowStack.build(m=2, kind="dsf", d=4, seed=0)
        before = [p.data.copy() for p in stack.parameters()]
        calls = Counter()
        tgt = TargetSpec(name="no-gradient", dim=2,
                         log_density=counted(get_target("four-mode").log_density, calls, "logp"))
        with pytest.raises(DomainError, match="'no-gradient'"):
            fit(stack, TrainConfig(loss="energy", steps=3), target=tgt)
        assert calls["logp"] == 0
        assert all(np.array_equal(a, p.data) for a, p in zip(before, stack.parameters()))

    @pytest.mark.parametrize("kind,layers", [("affine-exp", 3), ("dsf", 2), ("ddsf", 2)])
    def test_stacked_gradients_match_central_differences(self, kind, layers):
        # the sweep chains each layer's x gradient into the layer before it
        stack = FlowStack.build(m=2, kind=kind, n_layers=layers, d=3, ddsf_dims=(1, 3, 1),
                                hidden=(6,), seed=1)
        rng = np.random.default_rng(layers)
        for p in stack.parameters():
            p.data = p.data + rng.normal(scale=0.3, size=p.shape)
        batch, params = rng.normal(size=(6, 2)), stack.parameters()
        assert dg.check_gradients(lambda: mle_loss(batch, stack), params, eps=1e-5) < 1e-4
        target = get_target("four-mode")
        assert dg.check_gradients(lambda: energy_loss(6, stack, target, seed=3), params,
                                  eps=1e-5) < 1e-4
