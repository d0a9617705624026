"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q     (from the repository root)

Not part of the library's test suite: these run the benchmark end to end
(about four minutes on a 2-core box).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from workloads import TAIL_POINTS, WORKLOADS  # noqa: E402

# Counts that depend only on the seed and the code, never on timing.
EXACT = (
    "diffgraph.graph_nodes",
    "diffgraph.grad_buffers",
    "conditioner.forward.calls",
    "transformer.invert_batch.calls",
    "transformer.invert_batch.evals_per_call",
    "transformer.invert_batch.entry_evals",
    "transformer.invert_batch.raised",
    "stablemath.logsumexp_over_axis.calls",
)


def bench(workload, trace, seed=1, seconds=0, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return out


def result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_and_units_match_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counts_repeat_across_runs(workload):
    first, second = (result(bench(workload, trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["diffgraph.graph_nodes"]["value"] > 0
    assert first["metrics"]["conditioner.forward.calls"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_only_tail_probes_fail(workload):
    # Every op but the tail round trips passes its checks, in every round.
    out = bench(workload, trace=0)
    res = result(out)
    assert res["correct"], out.stderr
    assert "check failed" not in out.stderr
    raised = [line for line in out.stderr.splitlines() if "raised" in line]
    assert raised and all(": tail: RangeError:" in line for line in raised), raised
    rounds = int(out.stdout.split(" rounds=")[1].split()[0])
    assert res["failed"] == len(TAIL_POINTS) * rounds
    assert res["metrics"]["failed_frac"]["value"] == res["failed"] / res["attempted"]
    assert set(res["metrics"]) == set(END_TO_END_UNITS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("mle-dsf-grid", trace=0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_checkpoint_regenerates_byte_identically():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "make_checkpoint.py"), "--check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
