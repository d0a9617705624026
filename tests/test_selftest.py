import numpy as np
import pytest

from nafkit import transformer as tf
from nafkit.selftest import SUITES, run_selftest


@pytest.fixture
def guard_restored():
    yield
    tf.SATURATION_GUARD = True


class TestSelftest:
    def test_fresh_build_fast_suites_pass(self):
        ok, rows = run_selftest(["stablemath", "gradcheck", "roundtrip", "step-bound"])
        assert ok, rows

    def test_unknown_suite_reported(self):
        ok, rows = run_selftest(["stablemath", "mystery"])
        assert not ok
        assert ("mystery", False, "unknown suite") in rows

    def test_suite_filtering(self):
        ok, rows = run_selftest(["step-bound"])
        assert [name for name, _, _ in rows] == ["step-bound"]

    def test_fault_injection_flags_logdet_only(self, guard_restored):
        # with the saturation guard disabled, extreme-x probes go
        # unguarded and the logdet suite flags them; the monotone and
        # round-trip suites stay in the nominal regime and still pass
        from nafkit.selftest import suite_monotone

        tf.SATURATION_GUARD = False
        ok, rows = run_selftest(["roundtrip", "logdet"])
        results = {name: passed for name, passed, _ in rows}
        assert results["roundtrip"] is True
        assert results["logdet"] is False
        detail = dict((name, d) for name, _, d in rows)["logdet"]
        assert "unguarded saturation" in detail
        for kind in ("dsf", "ddsf"):  # a ddsf's first sublayer saturates too
            assert f"{kind} 0" in detail
        mono_ok, mono_detail = suite_monotone(np.random.default_rng(0), seeds=100)
        assert mono_ok, mono_detail

    def test_monotone_suite_small_seed_count(self):
        # the suite function itself accepts a reduced count for speed
        from nafkit.selftest import suite_monotone

        ok, detail = suite_monotone(np.random.default_rng(0), seeds=50)
        assert ok, detail

    def test_registry_is_complete(self):
        assert set(SUITES) == {"stablemath", "monotone", "logdet", "gradcheck",
                               "roundtrip", "step-bound"}
