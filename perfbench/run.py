"""nafkit benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload mle-dsf-grid --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src. The run
sets up its inputs several times (setup_s is the median), then repeats
fixed rounds of work until --seconds have passed; the first round is an
untimed warm-up. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates traced and untraced rounds and prints per-layer
metrics plus the tracing overhead. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported: the reference box has
# two cores, and a second BLAS thread would contend with the caller.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Calibration, Ledger  # noqa: E402

SETUP_REPS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_steps_per_s": "steps/s",
    "sample_per_s": "draws/s",
    "logpdf_per_s": "points/s",
    "peak_rss_mb": "MB",
    "final_loss": "nats",
    "heldout_nll": "nats",
    "failed_frac": "ratio",
}
PER_LAYER_UNITS = {
    "diffgraph.backward.ms_p50": "ms",
    "diffgraph.backward.ms_p99": "ms",
    "diffgraph.graph_nodes": "count",
    "diffgraph.grad_buffers": "count",
    "diffgraph.useful_grad_ratio": "ratio",
    "training.step.ms_p50": "ms",
    "training.step.ms_p99": "ms",
    "training.loss.ms": "ms/round",
    "training.adam_step.ms": "ms/round",
    "training.clip_global_norm.ms": "ms/round",
    "conditioner.forward.calls": "calls/round",
    "conditioner.forward.ms": "ms/round",
    "flow.layer_forward.self_ms": "ms/round",
    "flow.layer_inverse.self_ms": "ms/round",
    "transformer.dsf_from_preact.ms": "ms/round",
    "transformer.invert_batch.calls": "calls/round",
    "transformer.invert_batch.ms": "ms/round",
    "transformer.invert_batch.evals_per_call": "evals/call",
    "transformer.invert_batch.entry_evals": "entries/round",
    "transformer.invert_batch.raised": "calls/round",
    "stablemath.logsumexp_over_axis.calls": "calls/round",
    "stablemath.logsumexp_over_axis.self_ms": "ms/round",
    "stablemath.logsumexp_over_axis.mb_in": "MB/round",
    "targets.log_density.ms": "ms/round",
    "cli.read_data_csv.ms": "ms/round",
    "cli.write_csv.ms": "ms/round",
    "flow.FlowStack.load.ms": "ms/round",
    "trace.overhead.fit_steps_per_s": "%",
    "trace.overhead.sample_per_s": "%",
    "trace.overhead.logpdf_per_s": "%",
}
RATE_KINDS = {"fit_steps_per_s": "fit", "sample_per_s": "sample", "logpdf_per_s": "logpdf"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_fresh(names):
    """Import nafkit from scratch, so every setup repetition pays for it."""
    for name in [m for m in sys.modules if m == "nafkit" or m.startswith("nafkit.")]:
        del sys.modules[name]
    for name in names:
        importlib.import_module(name)
    return sys.modules["nafkit"]


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "nafkit", "__init__.py")):
        print("perfbench: src/nafkit not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as workdir:
        calibration = Calibration()
        setup_s = []
        for _ in range(SETUP_REPS):
            cal = calibration.seconds()
            t0 = time.perf_counter()
            nk = _import_fresh(workload.modules)
            state = workload.setup(nk, args.seed, workdir)
            seconds = time.perf_counter() - t0
            cal = 0.5 * (cal + calibration.seconds())
            setup_s.append(seconds * Calibration.REF_S / cal)
        if os.path.dirname(os.path.abspath(nk.__file__)) != os.path.join(src, "nafkit"):
            print(f"perfbench: imported nafkit from {nk.__file__}, not ./src",
                  file=sys.stderr)
            return 2
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "nafkit" or name.startswith("nafkit.")}
        tracer = Tracer()
        ledger = Ledger(tracer, (nk.DomainError, nk.DataError, nk.NumericError,
                                 nk.InconsistencyError))
        traced_rounds = 0
        deadline = time.perf_counter() + args.seconds
        index = 0
        peak_rss_mb = 0.0
        while True:
            # Round 0 warms up (first-touch allocations, caches) and is not
            # timed; traced runs then alternate traced and untraced rounds.
            ledger.warmup = index == 0
            ledger.traced = bool(args.trace) and index % 2 == 1
            if ledger.traced:
                with tracer.traced_round(index, modules, workload.trace_instances(state)):
                    workload.round(state, ledger)
                traced_rounds += 1
            else:
                workload.round(state, ledger)
            if index == 0:
                # Memory after setup and one round: later rounds only add
                # allocator fragmentation, which grows with the round count.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            index += 1
            if time.perf_counter() >= deadline and index >= (3 if args.trace else 2):
                break

    rates = {
        metric: [r for r, _, traced in ledger.rates[kind] if not traced]
        for metric, kind in RATE_KINDS.items()
    }
    raw = {metric: _median([r for _, r, traced in ledger.rates[kind] if not traced])
           for metric, kind in RATE_KINDS.items()}
    if args.trace:
        layer, detail = tracer.layer_metrics()
        for metric, kind in RATE_KINDS.items():
            plain = _median(rates[metric])
            traced = _median([r for r, _, t in ledger.rates[kind] if t])
            layer["trace.overhead." + metric] = (
                100.0 * (traced - plain) / plain if plain else 0.0
            )
        os.makedirs("perfbench-out", exist_ok=True)
        tracer.write_spans(os.path.join("perfbench-out", f"spans-{args.workload}.csv"))
        values, units = layer, PER_LAYER_UNITS
    else:
        detail = {}
        values = {metric: _median(rates[metric]) for metric in RATE_KINDS}
        values.update({
            "setup_s": _median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "final_loss": ledger.quality.get("final_loss", 0.0),
            "heldout_nll": ledger.quality.get("heldout_nll", 0.0),
            "failed_frac": ledger.failed / ledger.attempted,
        })
        units = END_TO_END_UNITS

    missing = [q for q in ("final_loss", "heldout_nll") if q not in ledger.quality]
    missing += [metric for metric, kind in RATE_KINDS.items() if not ledger.rates[kind]]
    correct = not ledger.problems and not missing
    for problem in ledger.problems[:10]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for what, n in sorted(ledger.raised.items()):
        print(f"perfbench: raised x{n}: {what}", file=sys.stderr)
    if missing:
        print(f"perfbench: no result for {', '.join(missing)}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} rounds={index} traced_rounds={traced_rounds} "
          f"ops={ledger.attempted} failed={ledger.failed} "
          f"numpy={np.__version__} detail={json.dumps(detail, sort_keys=True)}")
    for name in units:
        print(f"# {args.workload:<22} {name:<42} {values[name]:>14.6g} {units[name]}")
    for name, value in raw.items():
        print(f"# {args.workload:<22} {name + ' (uncalibrated)':<42} {value:>14.6g}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
