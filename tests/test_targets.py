import math

import numpy as np
import pytest
from scipy import stats

from conftest import row_gradient_fd
from nafkit import stablemath as sm
from nafkit.errors import DomainError
from nafkit.targets import (
    count_modes,
    four_mode_energy,
    gaussian_grid,
    get_target,
    registry_names,
    sine_posterior,
)


class TestGaussianGrid:
    def test_k1_density_at_mean(self):
        tgt = gaussian_grid(1, sd=0.5)
        want = -math.log(2 * math.pi * 0.25)
        assert tgt.log_density(np.array([[0.0, 0.0]]))[0] == pytest.approx(want, abs=1e-12)

    def test_k2_modes_at_corners(self):
        tgt = gaussian_grid(2, sd=0.5)
        assert sorted(tgt.modes) == [(-5.0, -5.0), (-5.0, 5.0), (5.0, -5.0), (5.0, 5.0)]

    def test_k2_sign_symmetry(self):
        tgt = gaussian_grid(2, sd=0.5)
        pt = np.array([1.3, 2.7])
        base = tgt.log_density(pt.reshape(1, 2))[0]
        for flip in ([-1, 1], [1, -1], [-1, -1]):
            got = tgt.log_density((pt * flip).reshape(1, 2))[0]
            assert got == pytest.approx(base, abs=1e-12)

    def test_k5_means_evenly_spaced(self):
        tgt = gaussian_grid(5)
        xs = sorted({m[0] for m in tgt.modes})
        np.testing.assert_allclose(xs, [-5.0, -2.5, 0.0, 2.5, 5.0], atol=1e-12)

    def test_exact_sampler_quadrants(self):
        tgt = gaussian_grid(2, sd=0.5)
        draws = tgt.sampler(100000, np.random.default_rng(0))
        for sx in (1, -1):
            for sy in (1, -1):
                frac = np.mean((draws[:, 0] * sx > 0) & (draws[:, 1] * sy > 0))
                assert frac == pytest.approx(0.25, abs=0.01)

    def test_sampler_matches_density_chi2(self):
        # per-quadrant counts vs expected quarter shares on 1e5 draws
        tgt = gaussian_grid(2, sd=0.5)
        draws = tgt.sampler(100000, np.random.default_rng(1))
        counts = [
            np.sum((draws[:, 0] * sx > 0) & (draws[:, 1] * sy > 0))
            for sx in (1, -1)
            for sy in (1, -1)
        ]
        chi2 = sum((c - 25000.0) ** 2 / 25000.0 for c in counts)
        assert chi2 < stats.chi2.ppf(0.999, df=3)

    def test_density_normalizes(self):
        for k in (1, 2):
            tgt = gaussian_grid(k, sd=0.5)
            axis = np.linspace(-9, 9, 601)
            gx, gy = np.meshgrid(axis, axis, indexing="ij")
            pts = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
            dens = np.exp(tgt.log_density(pts)).reshape(601, 601)
            mass = np.trapezoid(np.trapezoid(dens, axis, axis=1), axis)
            assert mass == pytest.approx(1.0, abs=1e-3)

    def test_density_normalizes_dense_grids(self):
        # coarser certified grid for the many-mode layouts
        for k in (5, 10):
            tgt = gaussian_grid(k, sd=0.5)
            axis = np.linspace(-9, 9, 801)
            gx, gy = np.meshgrid(axis, axis, indexing="ij")
            pts = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
            dens = np.exp(tgt.log_density(pts)).reshape(801, 801)
            mass = np.trapezoid(np.trapezoid(dens, axis, axis=1), axis)
            assert mass == pytest.approx(1.0, abs=1e-3)

    def test_k0_rejected(self):
        with pytest.raises(DomainError):
            gaussian_grid(0)

    @pytest.mark.parametrize("name", ["grid-k2", "grid-k5", "four-mode"])
    def test_adjoint_matches_central_differences(self, name):
        tgt = get_target(name)
        rng = np.random.default_rng(2)
        means = np.asarray(tgt.meta["means"])
        near = means[rng.integers(0, len(means), size=40)] + rng.normal(size=(40, 2)) * 0.5
        far = rng.uniform(15.0, 40.0, size=(40, 2)) * rng.choice([-1.0, 1.0], size=(40, 2))
        # far out, some components' responsibilities underflow to exactly 0
        a = -np.sum((far[:, None, :] - means) ** 2, axis=-1) / (2 * tgt.meta["sd"] ** 2)
        assert np.any(np.exp(a - sm.logsumexp_over_axis(a, -1)[:, None]) == 0.0)
        for x in (near, far):
            g = rng.normal(size=len(x))
            want = row_gradient_fd(tgt.log_density, x, g)
            np.testing.assert_allclose(tgt.adjoint(x, g), want, rtol=1e-6,
                                       atol=1e-7 * np.max(np.abs(want)))


class TestFourMode:
    def test_point_symmetry(self):
        tgt = four_mode_energy()
        a = tgt.log_density(np.array([[2.0, 2.0]]))[0]
        b = tgt.log_density(np.array([[-2.0, -2.0]]))[0]
        assert a == pytest.approx(b, abs=1e-12)

    def test_grid_search_maxima_near_declared_modes(self):
        tgt = four_mode_energy()
        axis = np.linspace(-4, 4, 101)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
        dens = tgt.log_density(pts).reshape(101, 101)
        # local maxima over the interior
        for i in range(1, 100):
            for j in range(1, 100):
                window = dens[i - 1: i + 2, j - 1: j + 2]
                if dens[i, j] == window.max() and dens[i, j] > dens.max() - 1.0:
                    pt = np.array([axis[i], axis[j]])
                    dist = min(np.linalg.norm(pt - np.array(m)) for m in tgt.modes)
                    assert dist <= 0.1

    def test_origin_below_modes(self):
        tgt = four_mode_energy()
        at_origin = tgt.log_density(np.zeros((1, 2)))[0]
        for m in tgt.modes:
            assert at_origin < tgt.log_density(np.array([m]))[0]

    def test_declared_unnormalized_surrogate(self):
        tgt = four_mode_energy()
        assert not tgt.normalized
        assert tgt.meta["surrogate"] is True


class TestSinePosterior:
    def test_all_zero_data_makes_f0_maximal(self):
        tgt = sine_posterior()
        grid = np.linspace(0, 2, 501).reshape(-1, 1)
        vals = tgt.log_density(grid)
        assert vals[0] == pytest.approx(vals.max(), abs=1e-9)

    def test_mode_degeneracy(self):
        # all four declared modes share the maximal likelihood
        tgt = sine_posterior()
        vals = tgt.log_density(np.array([[0.0], [0.6], [1.2], [1.8]]))
        np.testing.assert_allclose(vals, vals[0], atol=1e-9)

    def test_grid_search_modes(self):
        tgt = sine_posterior()
        grid = np.linspace(0, 2, 2001)
        vals = tgt.log_density(grid.reshape(-1, 1))
        found = []
        for i in range(1, 2000):
            if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1] and vals[i] > vals.max() - 2:
                found.append(grid[i])
        found.append(grid[0])  # boundary mode
        for mode in (0.0, 0.6, 1.2, 1.8):
            assert min(abs(f - mode) for f in found) <= 0.05

    def test_barrier_outside_support(self):
        tgt = sine_posterior()
        inside = tgt.log_density(np.array([[1.0]]))[0]
        outside = tgt.log_density(np.array([[2.5]]))[0]
        assert np.isfinite(outside)
        assert outside < inside - 1e4  # quadratic barrier dominates

    @pytest.mark.parametrize("lo,hi", [(-0.5, -0.01), (0.01, 1.99), (2.01, 2.5)],
                             ids=["below-support", "inside", "above-support"])
    def test_adjoint_matches_central_differences(self, lo, hi):
        # the barrier's quadratic pieces on either side, the likelihood inside
        tgt = sine_posterior()
        rng = np.random.default_rng(0)
        x, g = rng.uniform(lo, hi, size=(50, 1)), rng.normal(size=50)
        want = row_gradient_fd(tgt.log_density, x, g)
        np.testing.assert_allclose(tgt.adjoint(x, g), want, rtol=1e-6,
                                   atol=1e-7 * np.max(np.abs(want)))


class TestCountModes:
    def test_all_samples_at_one_mode(self):
        tgt = four_mode_energy()
        samples = np.tile([2.0, 2.0], (50, 1))
        frac = count_modes(samples, tgt, radius=0.5)
        assert frac[0] == 1.0
        assert np.all(frac[1:] == 0.0)

    def test_grid_sampler_covers_equally(self):
        tgt = gaussian_grid(2, sd=0.5)
        draws = tgt.sampler(10000, np.random.default_rng(3))
        frac = count_modes(draws, tgt, radius=1.5)
        np.testing.assert_allclose(frac, 0.25, atol=0.02)

    def test_uniform_samples_area_ratio(self):
        # disc area / box area = pi * 0.25 / 144 per mode
        tgt = four_mode_energy()
        rng = np.random.default_rng(4)
        samples = rng.uniform(-6, 6, size=(100000, 2))
        frac = count_modes(samples, tgt, radius=0.5)
        np.testing.assert_allclose(frac, math.pi * 0.25 / 144.0, atol=0.003)

    def test_requires_modes(self):
        tgt = gaussian_grid(2)
        tgt.modes = None
        with pytest.raises(DomainError):
            count_modes(np.zeros((3, 2)), tgt, radius=1.0)

    def test_one_dimensional_modes(self):
        tgt = sine_posterior()
        samples = np.array([[0.01], [0.61], [1.19], [1.81], [1.0]])
        frac = count_modes(samples, tgt, radius=0.05)
        np.testing.assert_allclose(frac, 0.2)


class TestRegistry:
    def test_names(self):
        assert registry_names() == ["four-mode", "grid-k10", "grid-k2", "grid-k5",
                                    "sine-posterior"]

    def test_lookup_and_unknown(self):
        assert get_target("grid-k2").dim == 2
        with pytest.raises(DomainError) as exc:
            get_target("grid-k3")
        assert "registry" in str(exc.value)
