"""Fast property suites behind the `selftest` CLI command.

Each suite re-derives its expectations from independent oracles (direct
summation, finite differences, round trips, dense-grid bounds) and
returns (passed, detail). The whole battery runs in well under two
minutes so it can gate builds.
"""

from __future__ import annotations

import numpy as np

from . import diffgraph as dg
from . import stablemath as sm
from . import transformer as tf
from .errors import SaturationError
from .flow import FlowStack
from .targets import get_target
from .training import energy_loss, mle_loss
from .universal import (
    build_step_approx,
    certify,
    identity_target,
    normal_cdf_target,
    sigmoid_mix_target,
)


def suite_stablemath(rng: np.random.Generator):
    """Shift invariance, softmax normalization, log-product agreement."""
    for _ in range(200):
        v = rng.uniform(-100, 100, size=rng.integers(1, 9))
        c = float(rng.uniform(-50, 50))
        lse = float(sm.logsumexp_over_axis(v, 0))
        if abs(float(sm.logsumexp_over_axis(v + c, 0)) - (lse + c)) > 1e-12 * max(1.0, abs(lse)):
            return False, f"logsumexp shift invariance broke on {v}"
        if abs(np.sum(np.exp(sm.logsoftmax_over_axis(v, 0))) - 1.0) > 1e-12:
            return False, "logsoftmax exponentials do not sum to 1"
    for _ in range(100):
        a = rng.uniform(0.1, 10.0, size=(3, 4))
        v = rng.uniform(0.1, 10.0, size=(4, 2))
        (P, m), *_ = tf._cwn_product(np.log(a), a, np.log(v), pieces=False)
        want = np.log(a @ v)
        if np.max(np.abs(np.log(P) + m - want) / np.abs(want)) > 1e-9:
            return False, "the CWN product disagrees with the dense product"
    for _ in range(200):
        x = float(rng.uniform(-30, 30))
        if abs(sm.softplus(x) - sm.softplus(-x) - x) > 1e-9 + 2 * sm.DELTA:
            return False, f"softplus asymmetry identity broke at {x}"
    return True, "identities hold"


def suite_monotone(rng: np.random.Generator, seeds: int = 1000):
    """Strict increase on a 201-point grid for random valid parameters."""
    grid = np.linspace(-5.0, 5.0, 201)
    for kind in tf.FAMILIES:
        for s in range(seeds):
            fwd = tf.forward_closure(*tf.random_params(kind, np.random.default_rng(s)))
            if np.any(np.diff(fwd(grid)) <= 0):
                return False, f"{kind} not strictly increasing at seed {s}"
    return True, f"{seeds} seeds per kind strictly increasing"


def suite_logdet(rng: np.random.Generator, seeds: int = 100):
    """exp(logdet) vs central differences; extreme-x probes must be guarded."""
    h = 1e-5
    for kind in tf.FAMILIES:
        for s in range(seeds):
            fam, row = tf.random_params(kind, np.random.default_rng(10_000 + s))
            fwd = tf.forward_closure(fam, row)
            x = float(np.random.default_rng(20_000 + s).uniform(-3, 3))
            _, (ld,) = fam.forward(np.array([x]), row[:, None])
            fd = (fwd(x + h) - fwd(x - h)) / (2 * h)
            if abs(np.exp(ld) - fd) / max(abs(fd), 1e-12) > 1e-4:
                return False, f"{kind} logdet off at seed {s}, x={x:.3f}"
    # Saturation probes: far outside the nominal regime the guarded
    # forward (shared by densities and inversion) must raise; silent
    # pass-through is the fault this flags when the guard is disabled.
    # A ddsf's first sublayer saturates there (its one-unit last one is
    # closed-form and has nothing to guard).
    flagged = []
    for kind in ("dsf", "ddsf"):
        for s in range(5):
            fwd = tf.forward_closure(*tf.random_params(kind, np.random.default_rng(s)))
            try:
                fwd(1e6)
                flagged.append(f"{kind} {s}")
            except SaturationError:
                pass
    if flagged:
        return False, f"unguarded saturation at extreme x for {', '.join(flagged)}"
    return True, f"{seeds} seeds per kind within 1e-4 of finite differences"


def suite_gradcheck(rng: np.random.Generator):
    """Reverse-mode gradients vs finite differences on small stacks."""
    stack = FlowStack.build(m=2, kind="dsf", d=4, hidden=(8,), seed=1)
    for p in stack.parameters():
        p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
    batch = rng.normal(size=(5, 2))
    dev = dg.check_gradients(lambda: mle_loss(batch, stack), stack.parameters(), 1e-4)
    if dev > 1e-3:
        return False, f"dsf mle gradient deviation {dev:.2e}"
    target = get_target("four-mode")
    dev = dg.check_gradients(
        lambda: energy_loss(8, stack, target, seed=7), stack.parameters(), 1e-4
    )
    if dev > 1e-3:
        return False, f"dsf energy gradient deviation {dev:.2e}"
    stack2 = FlowStack.build(m=2, kind="ddsf", ddsf_dims=(1, 3, 1), hidden=(6,), seed=2)
    for p in stack2.parameters():
        p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
    dev = dg.check_gradients(lambda: mle_loss(batch, stack2), stack2.parameters(), 1e-4)
    if dev > 1e-3:
        return False, f"ddsf mle gradient deviation {dev:.2e}"
    return True, "all deviations below 1e-3"


def suite_roundtrip(rng: np.random.Generator, n: int = 300):
    """inverse(forward(x)) recovers x to 1e-8 for every kind, through a block
    per point and through one column that every point shares."""
    for kind in tf.FAMILIES:
        fam, row = tf.random_params(kind, np.random.default_rng(3))
        xs = rng.uniform(-4, 4, size=n)
        block = np.broadcast_to(row[:, None], (row.size, n))
        ys, _ = fam.forward(xs, block)
        for name, block in (("", block), (" one-column", row[:, None])):
            err = float(np.max(np.abs(fam.inverse(ys, block) - xs)))
            if err > 1e-8:
                return False, f"{kind}{name} round-trip error {err:.2e}"
    return True, f"max round-trip error below 1e-8 over {n} points per kind and block"


def suite_step_bound(rng: np.random.Generator):
    """Step-construction sup error stays below 1/(n+1) on every target."""
    targets = [identity_target(), normal_cdf_target()]
    targets += [sigmoid_mix_target(seed) for seed in range(4)]
    for tgt in targets:
        for n in (1, 4, 9, 19, 49):
            w, b = build_step_approx(tgt, n)
            err = certify(tgt, (w, b), grid_size=4001)
            if err > 1.0 / (n + 1) + 1e-9:
                return False, f"{tgt.name} n={n}: error {err:.6f} > 1/{n + 1}"
    w, b = build_step_approx(identity_target(), 6)
    err = certify(identity_target(), (w, b), grid_size=10001)
    if err > 1.0 / 7.0 + 1e-9:
        return False, f"identity n=6 error {err:.6f} exceeds 1/7"
    return True, "bound 1/(n+1) certified on all targets"


SUITES = {
    "stablemath": suite_stablemath,
    "monotone": suite_monotone,
    "logdet": suite_logdet,
    "gradcheck": suite_gradcheck,
    "roundtrip": suite_roundtrip,
    "step-bound": suite_step_bound,
}


def run_selftest(names=None, seed: int = 0):
    """Run suites; returns (all_passed, [(name, passed, detail), ...])."""
    chosen = list(SUITES) if not names else list(names)
    rows = []
    for name in chosen:
        if name not in SUITES:
            rows.append((name, False, "unknown suite"))
            continue
        rng = np.random.default_rng(seed)
        try:
            ok, detail = SUITES[name](rng)
        except Exception as err:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(err).__name__}: {err}"
        rows.append((name, ok, detail))
    return all(ok for _, ok, _ in rows), rows
