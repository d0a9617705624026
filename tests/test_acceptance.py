"""Acceptance gate: one test per criterion, stated tolerances, one
printed PASS/FAIL line each (run with -s to watch them stream).

The experiment criteria (7-9) drive the CLI end to end and read back the
emitted artifacts; the property criteria run the library directly.
"""

import json
import math
import time

import numpy as np
import pytest

from nafkit import diffgraph as dg
from nafkit import transformer as tf
from nafkit.cli import main, read_data_csv
from nafkit.flow import FlowLayer, FlowStack
from nafkit.targets import count_modes, get_target
from nafkit.training import TrainConfig, energy_loss, fit, mle_loss
from nafkit.universal import build_step_approx, certify, identity_target, sigmoid_mix_target

ALL_KINDS = ("affine-exp", "affine-gate", "dsf", "ddsf")


def report(num, ok, detail, budget_s=None, elapsed=None):
    stamp = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s/{budget_s:.0f}s]" if budget_s else ""
    print(f"criterion {num:>2}: {stamp}  {detail}{timing}")
    assert ok, f"criterion {num}: {detail}"
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def grid_runs(tmp_path_factory):
    """Criterion 7 training runs (DSF and affine baseline), via the CLI."""
    root = tmp_path_factory.mktemp("grid")
    t0 = time.time()
    dsf_out = root / "dsf"
    code = main(["fit-density", "--target", "grid-k2", "--model", "dsf", "--d", "16",
                 "--steps", "5000", "--lr", "0.01", "--seed", "1",
                 "--train-n", "10000", "--val-n", "2000", "--out", str(dsf_out)])
    assert code == 0
    aff_out = root / "affine"
    code = main(["fit-density", "--target", "grid-k2", "--model", "affine",
                 "--stack", "6", "--steps", "5000", "--lr", "0.01", "--seed", "1",
                 "--train-n", "10000", "--val-n", "2000", "--out", str(aff_out)])
    assert code == 0
    return {"dsf": dsf_out, "affine": aff_out, "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def energy_runs(tmp_path_factory):
    """Criterion 8 training runs (DSF and affine baseline), via the CLI."""
    root = tmp_path_factory.mktemp("energy")
    t0 = time.time()
    outs = {}
    for model, extra in (("dsf", []), ("affine", ["--stack", "6"])):
        out = root / model
        code = main(["fit-energy", "--target", "four-mode", "--model", model,
                     "--steps", "5000", "--lr", "0.01", "--seed", "3",
                     "--samples", "10000", "--mode-radius", "1.5",
                     "--out", str(out)] + extra)
        assert code == 0
        outs[model] = out
    outs["elapsed"] = time.time() - t0
    return outs


def test_criterion_1_monotonicity():
    t0 = time.time()
    grid = np.linspace(-5.0, 5.0, 201)
    violations = 0
    for kind in ALL_KINDS:
        for s in range(1000):
            ys = tf.forward_closure(*tf.random_params(kind, np.random.default_rng(s)))(grid)
            if np.any(np.diff(ys) <= 0):
                violations += 1
    report(1, violations == 0,
           f"strict increase, 1000 seeds x 4 kinds, 201-point grid; "
           f"{violations} violations", 30.0, time.time() - t0)


def test_criterion_2_logdet_exactness():
    t0 = time.time()
    h = 1e-5
    worst = 0.0
    for kind in ALL_KINDS:
        for s in range(100):
            fam, row = tf.random_params(kind, np.random.default_rng(40_000 + s))
            x = float(np.random.default_rng(50_000 + s).uniform(-3, 3))
            _, (ld,) = fam.forward(np.array([x]), row[:, None])
            fn = tf.forward_closure(fam, row)
            fd = (fn(x + h) - fn(x - h)) / (2 * h)
            worst = max(worst, abs(math.exp(ld) - fd) / max(abs(fd), 1e-12))
    report(2, worst <= 1e-4,
           f"exp(logdet) vs central differences, 100 seeds x 4 kinds; "
           f"max rel err {worst:.2e}", 30.0, time.time() - t0)


def test_criterion_3_gradient_exactness():
    t0 = time.time()
    rng = np.random.default_rng(42)
    stack = FlowStack.build(m=2, kind="dsf", d=8, hidden=(16,), seed=1)
    for p in stack.parameters():
        p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
    batch = rng.normal(size=(6, 2))
    params = stack.parameters()
    dev_mle = dg.check_gradients(lambda: mle_loss(batch, stack), params, eps=1e-4)
    target = get_target("four-mode")
    dev_energy = dg.check_gradients(
        lambda: energy_loss(12, stack, target, seed=7), params, eps=1e-4)
    ok = dev_mle <= 1e-3 and dev_energy <= 1e-3
    report(3, ok, f"DSF stack m=2: mle dev {dev_mle:.2e}, "
                  f"energy (frozen noise) dev {dev_energy:.2e}", 60.0, time.time() - t0)


def test_criterion_4_invertibility():
    t0 = time.time()
    worst = 0.0
    for kind in ALL_KINDS:
        rng = np.random.default_rng(7)
        xs = rng.uniform(-4, 4, size=1000)
        fam, row = tf.random_params(kind, np.random.default_rng(13))
        block = np.broadcast_to(row[:, None], (row.size, xs.size))
        ys, _ = fam.forward(xs, block)
        back = fam.inverse(ys, block)
        worst = max(worst, float(np.max(np.abs(back - xs))))
    stack = FlowStack.build(m=2, kind="dsf", d=16, seed=0)
    samples = stack.sample(10000, seed=9)
    finite = bool(np.all(np.isfinite(stack.log_density(samples))))
    ok = worst <= 1e-8 and finite
    report(4, ok, f"round trip max err {worst:.2e} over 1000 x per kind; "
                  f"10^4-sample logpdf finite: {finite}", 60.0, time.time() - t0)


def test_criterion_5_triangular_jacobian():
    t0 = time.time()
    h = 1e-6
    worst = 0.0
    for kind in ALL_KINDS:
        for m in (2, 3, 4):
            layer = FlowLayer(m, kind, d=6, ddsf_dims=(1, 4, 1), hidden=(12,),
                              seed=m * 17)
            rng = np.random.default_rng(m)
            for p in layer.parameters():
                p.data = p.data + rng.normal(scale=0.4, size=p.data.shape)
            x0 = rng.normal(size=(1, m))
            for s in range(m):
                xp, xm = x0.copy(), x0.copy()
                xp[0, s] += h
                xm[0, s] -= h
                diff = (layer.forward(xp)[0] - layer.forward(xm)[0]) / (2 * h)
                for t in range(m):
                    if s > t:
                        worst = max(worst, abs(float(diff[0, t])))
    report(5, worst <= 1e-9,
           f"off-triangle finite differences, m in {{2,3,4}} x 4 kinds; "
           f"max {worst:.2e}", 30.0, time.time() - t0)


def test_criterion_6_step_bound_certificates():
    t0 = time.time()
    worst_slack = -1.0
    for seed in range(20):
        tgt = sigmoid_mix_target(seed)
        for n in (1, 4, 9, 19, 49):
            err = certify(tgt, build_step_approx(tgt, n), grid_size=2001)
            slack = err - 1.0 / (n + 1)
            worst_slack = max(worst_slack, slack)
    ident = identity_target()
    err6 = certify(ident, build_step_approx(ident, 6), grid_size=10001)
    ok = worst_slack <= 1e-9 and err6 <= 1.0 / 7.0 + 1e-9
    report(6, ok, f"step error <= 1/(n+1) on 20 targets (max slack {worst_slack:.1e}); "
                  f"identity n=6 err {err6:.4f} <= 1/7", 30.0, time.time() - t0)


def test_criterion_7_gaussian_grid_fit(grid_runs):
    t0 = time.time()
    # exact mixture NLL by numeric integration (the oracle)
    tgt = get_target("grid-k2")
    axis = np.linspace(-9, 9, 601)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
    logp = tgt.log_density(pts).reshape(601, 601)
    dens = np.exp(logp)
    exact_nll = float(np.trapezoid(np.trapezoid(
        np.where(dens > 0, -dens * logp, 0.0), axis, axis=1), axis))

    dsf_nll = json.loads((grid_runs["dsf"] / "metrics.json").read_text())["val_nll"]
    aff_nll = json.loads((grid_runs["affine"] / "metrics.json").read_text())["val_nll"]

    stack = FlowStack.load(str(grid_runs["dsf"] / "checkpoint.json"))
    cov = count_modes(stack.sample(10000, seed=99), tgt, radius=1.5)

    # trained-model sample round trip: f(f^-1(z)) = z within 1e-6
    z = stack.base.sample(2000, np.random.default_rng(5))
    z_back, _ = stack.forward(stack.inverse(z))
    rt = float(np.max(np.abs(z_back - z)))

    elapsed = grid_runs["elapsed"] + (time.time() - t0)
    ok = (dsf_nll <= exact_nll + 0.3 and aff_nll >= dsf_nll + 0.2
          and bool(np.all(cov >= 0.15)) and rt <= 1e-6)
    report(7, ok,
           f"exact NLL {exact_nll:.4f}; DSF val {dsf_nll:.4f} "
           f"(gap {dsf_nll - exact_nll:+.4f} <= 0.3); affine val {aff_nll:.4f} "
           f"(margin {aff_nll - dsf_nll:+.4f} >= 0.2); "
           f"mode coverage {np.round(cov, 3).tolist()} all >= 0.15; "
           f"round trip {rt:.1e} <= 1e-6",
           600.0, elapsed)


def test_criterion_8_four_mode_energy(energy_runs):
    t0 = time.time()
    dsf_cov = json.loads((energy_runs["dsf"] / "mode_coverage.json").read_text())
    aff_cov = json.loads((energy_runs["affine"] / "mode_coverage.json").read_text())
    dsf_fracs = np.array(list(dsf_cov["fractions"].values()))
    aff_fracs = np.array(list(aff_cov["fractions"].values()))
    elapsed = energy_runs["elapsed"] + (time.time() - t0)
    ok = bool(np.all(dsf_fracs >= 0.10) and np.min(aff_fracs) < 0.05)
    report(8, ok,
           f"DSF fractions {np.round(dsf_fracs, 3).tolist()} all >= 0.10; "
           f"affine min fraction {np.min(aff_fracs):.3f} < 0.05",
           600.0, elapsed)


def find_histogram_peaks(hist, centers, prominence=0.05):
    peaks = []
    n = len(hist)
    for i in range(n):
        left = hist[i - 1] if i > 0 else -1.0
        right = hist[i + 1] if i < n - 1 else -1.0
        if hist[i] >= left and hist[i] >= right and hist[i] > prominence * hist.max():
            peaks.append(float(centers[i]))
    return peaks


def test_criterion_9_sine_posterior(tmp_path):
    t0 = time.time()
    out = tmp_path / "sine"
    code = main(["fit-energy", "--target", "sine-posterior", "--model", "dsf",
                 "--d", "16", "--steps", "30000", "--lr", "0.001", "--seed", "5",
                 "--samples", "10000", "--out", str(out)])
    assert code == 0
    rows = read_data_csv(str(out / "histogram.csv"), expect_header=True)
    peaks = find_histogram_peaks(rows[:, 1], rows[:, 0])
    modes = (0.0, 0.6, 1.2, 1.8)
    matched = [m for m in modes if any(abs(p - m) <= 0.1 for p in peaks)]
    elapsed = time.time() - t0
    report(9, len(matched) >= 3,
           f"histogram peaks {np.round(peaks, 2).tolist()} match "
           f"{len(matched)}/4 of {modes} within 0.1", 300.0, elapsed)


def test_criterion_10_normalization():
    # train a small 1-D model, then integrate its density
    rng = np.random.default_rng(0)
    comp = rng.integers(0, 2, size=4000) * 4.0 - 2.0
    data = (comp + 0.3 * rng.standard_normal(4000)).reshape(-1, 1)
    stack = FlowStack.build(m=1, kind="dsf", d=16, seed=0)
    fit(stack, TrainConfig(loss="mle", steps=1200, batch=256, lr=1e-2, seed=0),
        data=data)
    t0 = time.time()
    xs = np.linspace(-10, 10, 4001).reshape(-1, 1)
    mass = float(np.trapezoid(np.exp(stack.log_density(xs)), xs[:, 0]))
    report(10, 0.99 <= mass <= 1.01,
           f"trained 1-D model integrates to {mass:.6f} on [-10,10] x 4001",
           10.0, time.time() - t0)


def test_criterion_11_determinism(tmp_path):
    # identical seeds -> byte-identical metrics for the 7-9 pipelines
    # (reduced step counts; the pipelines are step-count agnostic)
    def run_pair(name, argv):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out)
        m1 = (outs[0] / "metrics.json").read_bytes()
        m2 = (outs[1] / "metrics.json").read_bytes()
        extra = True
        if (outs[0] / "samples.csv").exists():
            extra = (outs[0] / "samples.csv").read_bytes() == (outs[1] / "samples.csv").read_bytes()
        return m1 == m2 and extra

    ok_7 = run_pair("grid", ["fit-density", "--target", "grid-k2", "--model", "dsf",
                             "--d", "16", "--steps", "300", "--lr", "0.01",
                             "--seed", "1", "--train-n", "2000", "--val-n", "500"])
    ok_8 = run_pair("energy", ["fit-energy", "--target", "four-mode", "--model",
                               "dsf", "--steps", "300", "--lr", "0.01",
                               "--seed", "3", "--samples", "2000"])
    ok_9 = run_pair("sine", ["fit-energy", "--target", "sine-posterior", "--model",
                             "dsf", "--steps", "300", "--lr", "0.001", "--seed", "5",
                             "--samples", "2000"])
    report(11, ok_7 and ok_8 and ok_9,
           f"byte-identical reruns: grid {ok_7}, four-mode {ok_8}, sine {ok_9}")
