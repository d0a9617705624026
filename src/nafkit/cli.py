"""Command-line surface binding the library into reproducible runs.

Every command resolves its configuration (defaults included), writes it
as config.json next to its outputs, and derives all randomness from the
--seed flag, so identical invocations produce byte-identical files at a
fixed BLAS thread count (a threaded BLAS may split a product's sums
differently; pin it, for example with OPENBLAS_NUM_THREADS=1).
CSV cells carry 17 significant digits (round-trippable doubles), LF line
endings. Exit codes: 0 success, 2 usage, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import DataError, DomainError, NumericError
from .flow import FlowStack, write_atomic
from .selftest import SUITES, run_selftest
from .targets import count_modes, get_target, registry_names
from .training import TrainConfig, fit
from .universal import (
    build_sigmoid_approx,
    build_step_approx,
    certify,
    dsf_prelogit_curve,
    identity_target,
    inverse_transform_demo,
    normal_cdf_target,
    sigmoid_mix_target,
    step_eval,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def write_csv(path: str, rows, header=None):
    """Rows of numbers as CSV, each cell %.17g (the bits of format(float(v), ".17g"))."""
    lines = [",".join(header)] if header else []
    for row in rows.tolist() if isinstance(rows, np.ndarray) else rows:
        row = tuple(row)
        lines.append(",".join(["%.17g"] * len(row)) % row)
    write_atomic(path, "\n".join(lines) + "\n")


def write_density_grid(path: str, stack, window, points: int):
    """x,y,logp rows of a 2-D stack's log-density on a points x points grid."""
    lo, hi = window
    axis = np.linspace(lo, hi, points)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
    write_csv(path, np.column_stack([pts, stack.log_density(pts)]), header=["x", "y", "logp"])


def write_json(path: str, payload: dict):
    """payload as JSON; a NaN or infinity in it is a NumericError and writes nothing."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as err:
        raise NumericError(f"{path}: {err}") from None
    write_atomic(path, text + "\n")


def read_data_csv(path: str, expect_header: bool) -> np.ndarray:
    if not os.path.exists(path):
        raise DataError(f"no such data file: {path}")
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if expect_header and lineno == 1:
                continue
            cells = line.split(",")
            try:
                row = [float(c) for c in cells]
            except ValueError:
                raise DataError(f"{path}: line {lineno}: malformed row {line!r}") from None
            if not all(math.isfinite(v) for v in row):
                raise DataError(f"{path}: line {lineno}: non-finite value in {line!r}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DataError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no rows")
    return np.asarray(rows, dtype=np.float64)


def _threads_cap() -> int | None:
    """NAFKIT_THREADS, validated and echoed into config.json. nafkit starts no
    threads of its own, and the value does not pin the BLAS numpy runs on,
    which may use several (so outputs can differ between thread counts)."""
    raw = os.environ.get("NAFKIT_THREADS")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise DataError(f"NAFKIT_THREADS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise DataError("NAFKIT_THREADS must be >= 1")
    return cap


def _given_flags(argv) -> set:
    """Destinations of the flags present in argv, whatever their values.

    Re-parses argv with every subcommand default suppressed, so only the
    flags actually given land in the namespace.
    """
    parser, commands = build_parser()
    for sub in commands.values():
        for action in sub._actions:
            action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _apply_config_file(args, argv):
    """Fill args not given in argv from --config JSON, if given.

    A value adopted for a flag must have the type that flag parses to (a
    list flag's elements each); a DataError names the first key that does not.
    """
    if not getattr(args, "config", None):
        return args
    if not os.path.exists(args.config):
        raise DataError(f"no such config file: {args.config}")
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise DataError(f"unreadable config {args.config}: {err}") from None
    given = _given_flags(argv)
    actions = {a.dest: a for a in build_parser()[1][args.command]._actions}
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and attr not in given:
            action = actions.get(attr)
            if action is not None and not _fits(action, value):
                raise DataError(f"config {args.config}: {key!r} must be "
                                f"{_kind(action)}, got {value!r}")
            setattr(args, attr, value)
    return args


# The JSON types a flag's parser type admits in --config (bool is never a number).
_JSON_TYPES = {int: int, float: (int, float), None: str}


def _fits(action, value) -> bool:
    """Whether a --config value has the type of the flag that would have parsed it."""
    if action.nargs == 0:  # store_true
        return isinstance(value, bool)
    if isinstance(action.nargs, int):
        return (isinstance(value, list) and len(value) == action.nargs
                and all(_is_type(v, action.type) for v in value))
    if value is None:
        return action.default is None
    return _is_type(value, action.type) and (action.choices is None or value in action.choices)


def _is_type(value, parser_type) -> bool:
    return isinstance(value, _JSON_TYPES[parser_type]) and not isinstance(value, bool)


def _kind(action) -> str:
    """What _fits asks of a --config value for the flag, in words."""
    one = {int: "an integer", float: "a number"}.get(action.type, "a string")
    if action.nargs == 0:
        return "true or false"
    if isinstance(action.nargs, int):
        return f"a list of {action.nargs} values, each {one}"
    return f"one of {list(action.choices)}" if action.choices else one


# Each integer size flag: the name its error gives and its smallest value.
# certify-universal's --n is a comma list, which its own parser reads. A seed
# seeds np.random.default_rng, which refuses a negative one.
_SIZES = {"samples": ("--samples", 1), "train_n": ("--train-n", 1), "val_n": ("--val-n", 1),
          "steps": ("steps", 1), "batch": ("--batch", 1), "d": ("--d", 1), "L": ("--L", 1),
          "stack": ("--stack", 1), "hidden": ("--hidden", 1), "n": ("sample count", 0),
          "grid_points": ("grid points", 0), "points": ("grid points", 0),
          "curve_points": ("--curve-points", 0), "seed": ("--seed", 0),
          "grid": ("--grid", 101)}


# Each float flag: the name its error gives, its rule, and the test of the rule
# (which NaN fails). A window's test runs on both ends.
_FLOATS = {"lr": ("--lr", "finite and >= 0", lambda v: 0 <= v < math.inf),
           "val_frac": ("--val-frac", "in [0, 1)", lambda v: 0 <= v < 1),
           "mode_radius": ("--mode-radius", "finite and > 0", lambda v: 0 < v < math.inf),
           "grid_window": ("--grid-window", "finite", math.isfinite),
           "window": ("--window", "finite", math.isfinite)}


def _check_sizes(args):
    """DomainError for the first size or float flag out of its range, before any work."""
    for attr, (name, least) in _SIZES.items():
        value = getattr(args, attr, None)
        if isinstance(value, int) and value < least:
            raise DomainError(f"{name} must be >= {least}, got {value}")
    for attr, (name, rule, ok) in _FLOATS.items():
        value = getattr(args, attr, None)
        ends = value if isinstance(value, (list, tuple)) else [value]
        if any(isinstance(v, (int, float)) and not ok(v) for v in ends):
            raise DomainError(f"{name} must be {rule}, got {value}")


def _build_stack(args, m: int) -> FlowStack:
    kind = args.model
    if kind == "affine":
        kind = "affine-exp"
    ddsf_dims = None
    if kind == "ddsf":
        ddsf_dims = (1,) + (args.d,) * (args.L - 1) + (1,)
    return FlowStack.build(
        m, kind, n_layers=args.stack, d=args.d, ddsf_dims=ddsf_dims,
        hidden=(args.hidden,), seed=args.seed,
    )


def _resolved_config(args, command: str, extra=None) -> dict:
    doc = {"command": command, "version": __version__,
           "threads_cap": _threads_cap()}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "config"):
            continue
        doc[key] = value
    if extra:
        doc.update(extra)
    return doc


def _train_common(sub):
    sub.add_argument("--model", default="dsf",
                     choices=["affine", "affine-exp", "affine-gate", "dsf", "ddsf"],
                     help="transformer family")
    sub.add_argument("--d", type=int, default=16, help="sigmoid units per transformer")
    sub.add_argument("--L", type=int, default=2, help="ddsf layer count")
    sub.add_argument("--stack", type=int, default=1, help="flow layers (orders alternate)")
    sub.add_argument("--hidden", type=int, default=64, help="conditioner hidden width")
    sub.add_argument("--steps", type=int, default=5000)
    sub.add_argument("--batch", type=int, default=256)
    sub.add_argument("--lr", type=float, default=1e-2)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--grad-clip", type=float, default=10.0)
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--config", default=None,
                     help="JSON of a previous run's resolved config; unset flags adopt its values")


def cmd_fit_density(args) -> int:
    if (args.target is None) == (args.data is None):
        raise DataError("provide exactly one of --target or --data")
    if args.target is not None:
        target = get_target(args.target)
        rng = np.random.default_rng(args.seed)
        if target.sampler is None:
            raise DataError(f"target {target.name!r} has no exact sampler")
        train = target.sampler(args.train_n, rng)
        val = target.sampler(args.val_n, rng)
        m = target.dim
    else:
        data = read_data_csv(args.data, args.header)
        m = data.shape[1]
        rng = np.random.default_rng(args.seed)
        perm = rng.permutation(data.shape[0])
        n_val = max(1, int(round(args.val_frac * data.shape[0])))
        if n_val >= data.shape[0]:
            raise DataError("validation split leaves no training rows")
        val = data[perm[:n_val]]
        train = data[perm[n_val:]]

    stack = _build_stack(args, m)
    cfg = TrainConfig(loss="mle", steps=args.steps, batch=args.batch, lr=args.lr,
                      seed=args.seed, grad_clip=args.grad_clip)
    trace = fit(stack, cfg, data=train)

    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "config.json"),
               _resolved_config(args, "fit-density", {"m": m, "train_rows": len(train)}))
    stack.save(os.path.join(args.out, "checkpoint.json"))
    write_csv(os.path.join(args.out, "trace.csv"),
              [(s, l) for s, l in trace], header=["step", "loss"])
    train_nll = float(-np.mean(stack.log_density(train[: min(len(train), 4096)])))
    val_nll = float(-np.mean(stack.log_density(val)))
    write_json(os.path.join(args.out, "metrics.json"), {
        "final_loss": trace[-1][1], "train_nll": train_nll, "val_nll": val_nll,
        "steps": cfg.steps, "seed": cfg.seed, "config": cfg.as_dict(),
    })
    if args.density_grid and m == 2:
        write_density_grid(os.path.join(args.out, "density_grid.csv"), stack,
                           args.grid_window, args.grid_points)
    return EXIT_OK


def cmd_fit_energy(args) -> int:
    target = get_target(args.target)
    stack = _build_stack(args, target.dim)
    cfg = TrainConfig(loss="energy", steps=args.steps, batch=args.batch, lr=args.lr,
                      seed=args.seed, grad_clip=args.grad_clip)
    trace = fit(stack, cfg, target=target)

    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "config.json"),
               _resolved_config(args, "fit-energy", {"m": target.dim,
                                                     "target_meta": target.meta}))
    stack.save(os.path.join(args.out, "checkpoint.json"))
    write_csv(os.path.join(args.out, "trace.csv"),
              [(s, l) for s, l in trace], header=["step", "loss"])

    rng = np.random.default_rng(args.seed + 1)
    noise = stack.base.sample(args.samples, rng)
    ys, logq = stack.transform_noise(noise)
    write_csv(os.path.join(args.out, "samples.csv"), ys,
              header=[f"y{i + 1}" for i in range(target.dim)])
    metrics = {"final_loss": trace[-1][1], "steps": cfg.steps, "seed": cfg.seed,
               "mean_logq": float(np.mean(logq)), "config": cfg.as_dict()}
    if target.modes is not None:
        cov = count_modes(ys, target, radius=args.mode_radius)
        coverage = {str(mode): float(c) for mode, c in zip(target.modes, cov)}
        write_json(os.path.join(args.out, "mode_coverage.json"), {
            "radius": args.mode_radius, "n_samples": args.samples,
            "fractions": coverage,
        })
        metrics["mode_coverage"] = coverage
    if target.dim == 1:
        hist, edges = np.histogram(ys[:, 0], bins=100, range=(0.0, 2.0))
        centers = 0.5 * (edges[:-1] + edges[1:])
        write_csv(os.path.join(args.out, "histogram.csv"),
                  np.column_stack([centers, hist]), header=["center", "count"])
    write_json(os.path.join(args.out, "metrics.json"), metrics)
    return EXIT_OK


def cmd_sample(args) -> int:
    stack = FlowStack.load(args.checkpoint)
    samples = stack.sample(args.n, seed=args.seed)
    write_csv(args.out, samples, header=[f"x{i + 1}" for i in range(stack.m)])
    return EXIT_OK


def cmd_logpdf(args) -> int:
    stack = FlowStack.load(args.checkpoint)
    data = read_data_csv(args.data, args.header)
    if data.shape[1] != stack.m:
        raise DataError(
            f"dimension mismatch: checkpoint is {stack.m}-D, data has {data.shape[1]} columns"
        )
    logp = stack.log_density(data)
    write_csv(args.out, np.column_stack([data, logp]),
              header=[f"x{i + 1}" for i in range(stack.m)] + ["logp"])
    return EXIT_OK


def cmd_grid_export(args) -> int:
    stack = FlowStack.load(args.checkpoint)
    if stack.m != 2:
        raise DataError("grid-export requires a 2-D checkpoint")
    write_density_grid(args.out, stack, args.window, args.points)
    return EXIT_OK


_CERT_TARGETS = {
    "identity": identity_target,
    "normal-cdf": normal_cdf_target,
    "sigmoid-mix": lambda: sigmoid_mix_target(0),
}


def _step_counts(raw: str) -> list:
    """certify-universal's --n, every entry an integer >= 1, before any work."""
    ns = []
    for entry in raw.split(","):
        try:
            n = int(entry)
        except ValueError:
            raise DataError(f"--n entries must be integers, got {entry!r}") from None
        if n < 1:
            raise DomainError(f"--n entries must be >= 1, got {n}")
        ns.append(n)
    return ns


def cmd_certify_universal(args) -> int:
    if args.target not in _CERT_TARGETS:
        raise DataError(
            f"unknown monotone target {args.target!r}; choose from {sorted(_CERT_TARGETS)}"
        )
    target = _CERT_TARGETS[args.target]()
    ns = _step_counts(args.n)
    os.makedirs(args.out, exist_ok=True)
    certificates = []
    for n in ns:
        w, b = build_step_approx(target, n)
        step_err = certify(target, (w, b), grid_size=args.grid)
        entry = {"target": target.name, "n": n, "step_bound": 1.0 / (n + 1),
                 "step_achieved": step_err}
        if n >= 2:
            params = build_sigmoid_approx(target, n)
            sig_err = certify(target, params, grid_size=args.grid)
            entry["sigmoid_bound"] = 3.0 / (n + 1)
            entry["sigmoid_achieved"] = sig_err
        certificates.append(entry)
        xs = np.linspace(target.r0, target.r1, args.curve_points)
        truth = np.array([target.fn(float(x)) for x in xs])
        steps = step_eval(xs, w, b)
        sig = dsf_prelogit_curve(xs, target, n) if n >= 2 else np.full_like(xs, np.nan)
        write_csv(os.path.join(args.out, f"curve_n{n}.csv"),
                  np.column_stack([xs, truth, steps, sig]),
                  header=["x", "target", "step_sum", "sigmoid_sum"])
    # the demo's sigmoid sum needs two steps, as a certificate's sigmoid fields do
    demo = inverse_transform_demo(max(ns), seed=args.seed) if max(ns) >= 2 else None
    write_json(os.path.join(args.out, "certificates.json"),
               {"certificates": certificates, "inverse_transform_demo": demo})
    ok = all(c["step_achieved"] <= c["step_bound"] + 1e-9 for c in certificates)
    print(json.dumps({"passed": ok, "certificates": certificates}, sort_keys=True))
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_selftest(args) -> int:
    from . import transformer as tf

    names = args.suite if args.suite else None
    guard_before = tf.SATURATION_GUARD
    if args.debug_no_guard:
        tf.SATURATION_GUARD = False
    try:
        passed, rows = run_selftest(names, seed=args.seed)
    finally:
        tf.SATURATION_GUARD = guard_before
    width = max(len(name) for name, _, _ in rows)
    for name, ok, detail in rows:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    print(f"selftest: {'all suites passed' if passed else 'FAILURES above'}")
    return EXIT_OK if passed else EXIT_NUMERIC


def build_parser():
    p = argparse.ArgumentParser(prog="nafkit",
                                description="Autoregressive normalizing flows toolkit")
    p.add_argument("--version", action="version", version=f"nafkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    commands = {}

    fd = sub.add_parser("fit-density", help="maximum-likelihood density estimation")
    fd.add_argument("--target", default=None,
                    help=f"named target with exact sampler ({', '.join(registry_names())})")
    fd.add_argument("--data", default=None, help="CSV of samples, one row per sample")
    fd.add_argument("--header", action="store_true", help="data CSV has a header row")
    fd.add_argument("--train-n", type=int, default=10000)
    fd.add_argument("--val-n", type=int, default=2000)
    fd.add_argument("--val-frac", type=float, default=0.1)
    fd.add_argument("--density-grid", action="store_true",
                    help="also export a 2-D density grid CSV")
    fd.add_argument("--grid-window", type=float, nargs=2, default=(-8.0, 8.0))
    fd.add_argument("--grid-points", type=int, default=101)
    _train_common(fd)
    fd.set_defaults(func=cmd_fit_density)

    fe = sub.add_parser("fit-energy", help="exclusive-divergence energy fitting")
    fe.add_argument("--target", required=True)
    fe.add_argument("--samples", type=int, default=10000,
                    help="samples to emit after training")
    fe.add_argument("--mode-radius", type=float, default=1.5)
    _train_common(fe)
    fe.set_defaults(func=cmd_fit_energy)

    sp = sub.add_parser("sample", help="draw samples from a checkpoint")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sample)

    lp = sub.add_parser("logpdf", help="append a logp column to a points CSV")
    lp.add_argument("--checkpoint", required=True)
    lp.add_argument("--data", required=True)
    lp.add_argument("--header", action="store_true")
    lp.add_argument("--out", required=True)
    lp.set_defaults(func=cmd_logpdf)

    ge = sub.add_parser("grid-export", help="export model log-density over a 2-D grid")
    ge.add_argument("--checkpoint", required=True)
    ge.add_argument("--window", type=float, nargs=2, default=(-8.0, 8.0))
    ge.add_argument("--points", type=int, default=101)
    ge.add_argument("--out", required=True)
    ge.set_defaults(func=cmd_grid_export)

    cu = sub.add_parser("certify-universal",
                        help="build step/sigmoid approximations and certify bounds")
    cu.add_argument("--target", default="identity")
    cu.add_argument("--n", default="1,4,9,19,49", help="comma-separated step counts")
    cu.add_argument("--grid", type=int, default=10001)
    cu.add_argument("--curve-points", type=int, default=1001)
    cu.add_argument("--seed", type=int, default=0)
    cu.add_argument("--out", required=True)
    cu.set_defaults(func=cmd_certify_universal)

    st = sub.add_parser("selftest", help="run the fast property suites")
    st.add_argument("--suite", action="append", choices=sorted(SUITES),
                    help="run only this suite (repeatable)")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--debug-no-guard", "--debug-no-clamp", dest="debug_no_guard",
                    action="store_true",
                    help="disable the saturation guard (fault injection); "
                         "--debug-no-clamp is the old spelling")
    st.set_defaults(func=cmd_selftest)

    for name, parser in (("fit-density", fd), ("fit-energy", fe), ("sample", sp),
                         ("logpdf", lp), ("grid-export", ge),
                         ("certify-universal", cu), ("selftest", st)):
        commands[name] = parser
    return p, commands


def main(argv=None) -> int:
    parser, _ = build_parser()
    args = parser.parse_args(argv)
    try:
        _threads_cap()
        args = _apply_config_file(args, argv)
        _check_sizes(args)
        return args.func(args)
    except (DataError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
