import json
import math
import os

import numpy as np
import pytest

from nafkit.cli import build_parser, main, read_data_csv, write_csv, write_json
from nafkit.errors import DataError, NumericError, SaturationError
from nafkit.flow import FlowStack, _block_rows


def run(argv):
    return main([str(a) for a in argv])


def read_lines(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestCsvIO:
    def test_round_trippable_doubles(self, tmp_path):
        path = str(tmp_path / "vals.csv")
        vals = [[1.0 / 3.0, math.pi], [1e-300, -7.25]]
        write_csv(path, vals, header=["a", "b"])
        back = read_data_csv(path, expect_header=True)
        np.testing.assert_array_equal(back, np.array(vals))

    def test_cells_match_the_format_call_byte_for_byte(self, tmp_path):
        # one %-format per row writes the bytes of format(float(v), ".17g") per cell
        rng = np.random.default_rng(9)
        rows = [[0, 7, -3], [-0.0, 0.0, 1e-300], [math.inf, -math.inf, math.nan],
                [2**60 + 1, 5e-324, -1.7976931348623157e308], *rng.normal(size=(64, 3)).tolist()]
        for data in (rows, np.array(rows, dtype=np.float64), [tuple(r) for r in rows]):
            path = tmp_path / "vals.csv"
            write_csv(str(path), data, header=["a", "b", "c"])
            want = ["a,b,c"] + [",".join(format(float(v), ".17g") for v in row) for row in data]
            assert read_lines(path) == ("\n".join(want) + "\n").encode()

    def test_lf_endings(self, tmp_path):
        path = str(tmp_path / "vals.csv")
        write_csv(path, [[1.0], [2.0]])
        raw = read_lines(path)
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n1.0,oops\n")
        with pytest.raises(DataError) as exc:
            read_data_csv(str(path), expect_header=False)
        assert "line 2" in str(exc.value)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError) as exc:
            read_data_csv(str(path), expect_header=False)
        assert "line 2" in str(exc.value)

    def test_empty_is_data_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError) as exc:
            read_data_csv(str(path), expect_header=False)
        assert "no rows" in str(exc.value)


class TestFitDensityCommand:
    def test_end_to_end_on_named_target(self, tmp_path):
        out = tmp_path / "run1"
        code = run(["fit-density", "--target", "grid-k2", "--model", "dsf",
                    "--d", 8, "--hidden", 16, "--steps", 60, "--train-n", 512,
                    "--val-n", 128, "--seed", 1, "--out", out])
        assert code == 0
        for name in ("config.json", "checkpoint.json", "trace.csv", "metrics.json"):
            assert (out / name).exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert np.isfinite(metrics["val_nll"])
        config = json.loads((out / "config.json").read_text())
        assert config["command"] == "fit-density"
        assert config["seed"] == 1

    def test_empty_csv_exits_3(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        code = run(["fit-density", "--data", data, "--steps", 5,
                    "--out", tmp_path / "o"])
        assert code == 3
        assert "no rows" in capsys.readouterr().err

    def test_unknown_target_lists_registry(self, tmp_path, capsys):
        code = run(["fit-density", "--target", "grid-k7", "--steps", 5,
                    "--out", tmp_path / "o"])
        assert code == 3
        assert "grid-k10" in capsys.readouterr().err

    def test_csv_data_with_header_and_grid_export(self, tmp_path, rng):
        data_path = tmp_path / "data.csv"
        write_csv(str(data_path), rng.normal(size=(300, 2)), header=["x1", "x2"])
        out = tmp_path / "run2"
        code = run(["fit-density", "--data", data_path, "--header",
                    "--model", "affine", "--stack", 2, "--hidden", 8,
                    "--steps", 30, "--batch", 64, "--seed", 0,
                    "--density-grid", "--grid-points", 11, "--out", out])
        assert code == 0
        grid = read_data_csv(str(out / "density_grid.csv"), expect_header=True)
        assert grid.shape == (121, 3)

    def test_nonfinite_cell_exits_3_naming_line(self, tmp_path, capsys, rng):
        lines = ["x1,x2"] + [f"{a:.17g},{b:.17g}" for a, b in rng.normal(size=(40, 2))]
        lines[17] = "0.25,nan"  # line 18
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        code = run(["fit-density", "--data", data, "--header", "--hidden", 8,
                    "--steps", 5, "--batch", 16, "--out", tmp_path / "o"])
        assert code == 3
        assert "line 18" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [0, -1])
    def test_nonpositive_steps_exit_3(self, tmp_path, capsys, steps):
        code = run(["fit-density", "--target", "grid-k2", "--steps", steps,
                    "--out", tmp_path / "o"])
        assert code == 3
        assert "error: steps must be >= 1" in capsys.readouterr().err

    def test_explicit_flag_at_default_beats_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"lr": 0.5, "seed": 4}))
        out = tmp_path / "o"
        assert run(["fit-density", "--target", "grid-k2", "--d", 4, "--hidden", 8,
                    "--steps", 3, "--train-n", 128, "--val-n", 32, "--batch", 64,
                    "--lr", "0.01", "--config", cfg, "--out", out]) == 0
        config = json.loads((out / "config.json").read_text())
        assert config["lr"] == 0.01  # given, although equal to the parser default
        assert config["seed"] == 4  # not given: adopted from the file

    @pytest.mark.parametrize("entry", [
        {"lr": "fast"}, {"steps": "ten"}, {"steps": 2.5}, {"steps": True}, {"seed": None},
        {"grid_window": [-8.0, "x"]}, {"grid_window": [1.0]}, {"grid-window": 3.0},
        {"density_grid": "yes"}, {"model": "nope"}, {"data": 7},
    ], ids=lambda e: json.dumps(e))
    def test_config_value_of_the_wrong_type_exits_3(self, tmp_path, capsys, entry):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(entry))
        out = tmp_path / "o"
        assert run(["fit-density", "--target", "grid-k2", "--config", cfg, "--out", out]) == 3
        err = capsys.readouterr().err
        key = next(iter(entry))
        assert err.startswith("error: config ") and f"{key!r} must be " in err
        assert "Traceback" not in err and not out.exists()

    def test_config_values_of_the_flag_types_are_adopted(self, tmp_path):
        # an integer for a float flag, a list for a window, a bool for a switch
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"lr": 0, "grid_window": [-2, 2.5], "density_grid": True,
                                   "target": "grid-k2", "data": None}))
        out = tmp_path / "o"
        assert run(["fit-density", "--d", 2, "--hidden", 4, "--steps", 2, "--train-n", 64,
                    "--val-n", 16, "--batch", 16, "--grid-points", 3, "--config", cfg,
                    "--out", out]) == 0
        config = json.loads((out / "config.json").read_text())
        assert (config["lr"], config["grid_window"], config["density_grid"]) == (0, [-2, 2.5], True)
        assert (out / "density_grid.csv").exists()

    def test_rerun_from_emitted_config(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["fit-density", "--target", "grid-k2", "--model", "dsf", "--d", 4,
                "--hidden", 8, "--steps", 25, "--train-n", 256, "--val-n", 64,
                "--seed", 3]
        assert run(args + ["--out", out1]) == 0
        assert run(["fit-density", "--config", out1 / "config.json",
                    "--out", out2]) == 0
        assert read_lines(out1 / "metrics.json") == read_lines(out2 / "metrics.json")
        assert read_lines(out1 / "checkpoint.json") == read_lines(out2 / "checkpoint.json")


class TestFitEnergyCommand:
    def test_four_mode_outputs(self, tmp_path):
        out = tmp_path / "energy"
        code = run(["fit-energy", "--target", "four-mode", "--model", "dsf",
                    "--d", 8, "--hidden", 16, "--steps", 40, "--batch", 64,
                    "--samples", 500, "--seed", 2, "--out", out])
        assert code == 0
        cov = json.loads((out / "mode_coverage.json").read_text())
        assert len(cov["fractions"]) == 4
        samples = read_data_csv(str(out / "samples.csv"), expect_header=True)
        assert samples.shape == (500, 2)

    def test_sine_emits_histogram(self, tmp_path):
        out = tmp_path / "sine"
        code = run(["fit-energy", "--target", "sine-posterior", "--model", "dsf",
                    "--d", 8, "--hidden", 16, "--steps", 40, "--batch", 64,
                    "--samples", 400, "--seed", 2, "--out", out])
        assert code == 0
        hist = read_data_csv(str(out / "histogram.csv"), expect_header=True)
        assert hist.shape == (100, 2)
        assert hist[:, 1].sum() <= 400

    def test_unknown_target_exits_3(self, tmp_path, capsys):
        code = run(["fit-energy", "--target", "spiral", "--steps", 5,
                    "--out", tmp_path / "o"])
        assert code == 3
        assert "registry" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [0, -1])
    def test_nonpositive_steps_exit_3(self, tmp_path, capsys, steps):
        code = run(["fit-energy", "--target", "four-mode", "--steps", steps,
                    "--out", tmp_path / "o"])
        assert code == 3
        assert "error: steps must be >= 1" in capsys.readouterr().err


class TestSampleAndLogpdf:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        stack = FlowStack.build(m=2, kind="dsf", d=4, hidden=(8,), seed=0)
        path = str(tmp_path / "ckpt.json")
        stack.save(path)
        return path

    def test_sample_then_logpdf_consistent_with_base(self, tmp_path, checkpoint):
        # identity-init model: mean logp ~ -(m/2) ln(2 pi) - m/2
        samples_path = tmp_path / "samples.csv"
        assert run(["sample", "--checkpoint", checkpoint, "--n", 4000,
                    "--seed", 7, "--out", samples_path]) == 0
        scored = tmp_path / "scored.csv"
        assert run(["logpdf", "--checkpoint", checkpoint, "--data", samples_path,
                    "--header", "--out", scored]) == 0
        rows = read_data_csv(str(scored), expect_header=True)
        m = 2
        want = -(m / 2) * math.log(2 * math.pi) - m / 2
        se = rows[:, 2].std() / math.sqrt(len(rows))
        assert rows[:, 2].mean() == pytest.approx(want, abs=3 * se + 0.01)

    def test_dimension_mismatch_exits_3(self, tmp_path, checkpoint, capsys, rng):
        bad = tmp_path / "bad.csv"
        write_csv(str(bad), rng.normal(size=(5, 3)))
        code = run(["logpdf", "--checkpoint", checkpoint, "--data", bad,
                    "--out", tmp_path / "o.csv"])
        assert code == 3
        assert "dimension" in capsys.readouterr().err

    def test_saturating_point_past_first_row_block_exits_4(self, tmp_path, checkpoint,
                                                           capsys, rng):
        # the message names the point in the whole file, not in its row block
        stack = FlowStack.load(checkpoint)
        rows = _block_rows(stack.layers[0])
        x = rng.normal(size=(2 * rows, 2))
        x[rows + 3, 1] = 1e4
        with pytest.raises(SaturationError) as exc:
            stack.log_density(x)
        assert str(exc.value).startswith(f"layer0, dimension 1, batch point {rows + 3}: ")
        data, out = tmp_path / "data.csv", tmp_path / "scored.csv"
        write_csv(str(data), x)
        assert run(["logpdf", "--checkpoint", checkpoint, "--data", data, "--out", out]) == 4
        assert f"numeric error: {exc.value}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_sampling_byte_identical(self, tmp_path, checkpoint):
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run(["sample", "--checkpoint", checkpoint, "--n", 100, "--seed", 5,
             "--out", p1])
        run(["sample", "--checkpoint", checkpoint, "--n", 100, "--seed", 5,
             "--out", p2])
        assert read_lines(p1) == read_lines(p2)

    def test_grid_export(self, tmp_path, checkpoint):
        out = tmp_path / "grid.csv"
        assert run(["grid-export", "--checkpoint", checkpoint, "--window",
                    "-4", "4", "--points", 9, "--out", out]) == 0
        rows = read_data_csv(str(out), expect_header=True)
        assert rows.shape == (81, 3)

    def test_negative_sample_count_exits_3(self, tmp_path, checkpoint, capsys):
        out = tmp_path / "s.csv"
        assert run(["sample", "--checkpoint", checkpoint, "--n", -5, "--out", out]) == 3
        assert "error: sample count must be >= 0" in capsys.readouterr().err
        assert not out.exists()
        assert run(["sample", "--checkpoint", checkpoint, "--n", 0, "--out", out]) == 0
        assert read_lines(out) == b"x1,x2\n"

    def test_negative_grid_points_exit_3(self, tmp_path, checkpoint, capsys):
        out = tmp_path / "grid.csv"
        assert run(["grid-export", "--checkpoint", checkpoint, "--points", -3,
                    "--out", out]) == 3
        assert "error: grid points must be >= 0" in capsys.readouterr().err
        assert not out.exists()
        assert run(["grid-export", "--checkpoint", checkpoint, "--points", 0,
                    "--out", out]) == 0
        assert read_lines(out) == b"x,y,logp\n"


def _drop_layers(doc):
    del doc["layers"]


def _drop_hidden(doc):
    del doc["layers"][0]["hidden"]


def _inf_param(doc):
    doc["params"]["layer0.cond.b1"]["data"][0] = math.inf


def _unknown_kind(doc):
    doc["layers"][0]["kind"] = "spline"


def _zero_d(doc):
    doc["layers"][0]["d"] = 0


def _unchained_dims(doc):
    doc["layers"][0].update(kind="ddsf", dims=[2, 1])


def _layer_entry(key, value):
    """A corruption that sets layer 0's key to value."""
    return lambda doc: doc["layers"][0].update({key: value})


# A size or order entry of the wrong JSON type: a string "2" or a float 2.0 is
# not read as an integer, nor 16.5 cut down to 16.
_NOT_INTEGERS = [
    (lambda doc: doc.update(m="2"), "checkpoint: 'm' must be an integer, got '2'"),
    (lambda doc: doc.update(m=2.0), "checkpoint: 'm' must be an integer, got 2.0"),
    (_layer_entry("d", 16.5), "checkpoint layer 0: 'd' must be an integer, got 16.5"),
    (_layer_entry("hidden", "64"),
     "checkpoint layer 0: 'hidden' must be a list of integers, got '64'"),
    (_layer_entry("hidden", [8.0]),
     "checkpoint layer 0: 'hidden' must be a list of integers, got [8.0]"),
    (_layer_entry("order", [1, 2.0]),
     "checkpoint layer 0: 'order' must be a list of integers, got [1, 2.0]"),
    (lambda doc: doc["layers"][0].update(kind="ddsf", dims=[1, 4.5, 1]),
     "checkpoint layer 0: 'dims' must be a list of integers, got [1, 4.5, 1]"),
]


class TestCheckpointValidation:
    @pytest.mark.parametrize("corrupt, needle", [
        (_drop_layers, "'layers'"),
        (_drop_hidden, "'hidden'"),
        (_inf_param, "layer0.cond.b1"),
        (_unknown_kind, "spline"),
        (_zero_d, "d >= 1"),
        (_unchained_dims, "chain from 1 to 1"),
        *_NOT_INTEGERS,
    ], ids=["no-layers", "no-hidden", "inf-param", "kind", "d", "dims", "m-string", "m-float",
            "d-float", "hidden-string", "hidden-float", "order-float", "dims-float"])
    def test_malformed_checkpoint_exits_3(self, tmp_path, capsys, corrupt, needle):
        doc = FlowStack.build(m=2, kind="dsf", d=4, hidden=(8,), seed=0).to_json()
        corrupt(doc)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(doc))
        code = run(["sample", "--checkpoint", path, "--n", 5, "--out", tmp_path / "s.csv"])
        assert code == 3
        assert needle in capsys.readouterr().err


class TestCertifyUniversalCommand:
    def test_certificates_and_curves(self, tmp_path, capsys):
        out = tmp_path / "cert"
        code = run(["certify-universal", "--target", "identity", "--n", "1,6,9",
                    "--grid", 2001, "--out", out])
        assert code == 0
        doc = json.loads((out / "certificates.json").read_text())
        by_n = {c["n"]: c for c in doc["certificates"]}
        assert by_n[6]["step_achieved"] <= 1.0 / 7.0 + 1e-9
        assert (out / "curve_n6.csv").exists()
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["passed"] is True

    def test_one_step_has_no_demo(self, tmp_path):
        # the demo's sigmoid sum needs two steps, as the sigmoid fields do
        out = tmp_path / "cert"
        assert run(["certify-universal", "--n", "1", "--grid", 2001, "--out", out]) == 0
        doc = json.loads((out / "certificates.json").read_text())
        assert doc["inverse_transform_demo"] is None
        assert "sigmoid_bound" not in doc["certificates"][0]
        assert (out / "curve_n1.csv").exists()

    @pytest.mark.parametrize("grid", [0, -1, 100])
    def test_grid_below_101_exits_3_and_writes_nothing(self, tmp_path, capsys, grid):
        out = tmp_path / "cert"
        assert run(["certify-universal", "--n", "1,4", "--grid", grid, "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: --grid must be >= 101, got {grid}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("counts, message", [
        ("a", "--n entries must be integers, got 'a'"),
        ("4,", "--n entries must be integers, got ''"),
        ("4,0", "--n entries must be >= 1, got 0"),
        ("0,4", "--n entries must be >= 1, got 0"),
    ])
    def test_bad_step_count_exits_3_and_writes_nothing(self, tmp_path, capsys, counts,
                                                       message):
        out = tmp_path / "cert"
        assert run(["certify-universal", "--n", counts, "--grid", 2001, "--out", out]) == 3
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        assert not out.exists()


class TestSelftestCommand:
    def test_fresh_build_exits_zero(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all suites passed" in out
        assert out.count("PASS") == 6

    def test_filtered_suite(self, capsys):
        assert run(["selftest", "--suite", "step-bound"]) == 0
        assert "step-bound" in capsys.readouterr().out

    def test_debug_flag_restores_guard(self):
        from nafkit import transformer as tf

        assert run(["selftest", "--suite", "step-bound", "--debug-no-clamp"]) == 0
        assert tf.SATURATION_GUARD is True

    @pytest.mark.parametrize("flag", ["--debug-no-guard", "--debug-no-clamp"])
    def test_debug_flag_switches_guard_off(self, monkeypatch, flag):
        from nafkit import cli
        from nafkit import transformer as tf

        seen = []

        def fake_selftest(names, seed):
            seen.append(tf.SATURATION_GUARD)
            return True, [("step-bound", True, "ok")]

        monkeypatch.setattr(cli, "run_selftest", fake_selftest)
        assert run(["selftest", "--suite", "step-bound", flag]) == 0
        assert run(["selftest", "--suite", "step-bound"]) == 0
        assert seen == [False, True]
        assert tf.SATURATION_GUARD is True

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["selftest", "--suite", "nonsense"])
        assert exc.value.code == 2


class TestSubprocessEntryPoint:
    def test_module_invocation_matches_in_process_bytes(self, tmp_path):
        import subprocess
        import sys

        out_sub = tmp_path / "sub.csv"
        out_proc = tmp_path / "proc.csv"
        ckpt = tmp_path / "ckpt.json"
        FlowStack.build(m=2, kind="dsf", d=4, hidden=(8,), seed=0).save(str(ckpt))
        argv = ["sample", "--checkpoint", str(ckpt), "--n", "50", "--seed", "3"]
        proc = subprocess.run([sys.executable, "-m", "nafkit.cli",
                               *argv, "--out", str(out_sub)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert run(argv + ["--out", out_proc]) == 0
        assert out_sub.read_bytes() == out_proc.read_bytes()


class TestGateModel:
    def test_affine_gate_trains_and_samples(self, tmp_path):
        out = tmp_path / "gate"
        assert run(["fit-density", "--target", "grid-k2", "--model", "affine-gate",
                    "--stack", "2", "--hidden", "8", "--steps", "30",
                    "--train-n", "256", "--val-n", "64", "--batch", "64",
                    "--seed", "0", "--out", out]) == 0
        samples = tmp_path / "s.csv"
        assert run(["sample", "--checkpoint", out / "checkpoint.json", "--n", "20",
                    "--seed", "1", "--out", samples]) == 0
        assert read_data_csv(str(samples), expect_header=True).shape == (20, 2)


class TestThreadCap:
    def test_invalid_cap_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NAFKIT_THREADS", "zero")
        code = run(["selftest", "--suite", "step-bound"])
        assert code == 3
        assert "NAFKIT_THREADS" in capsys.readouterr().err

    def test_valid_cap_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NAFKIT_THREADS", "2")
        out = tmp_path / "r"
        assert run(["fit-density", "--target", "grid-k2", "--d", 4, "--hidden", 8,
                    "--steps", 10, "--train-n", 128, "--val-n", 32, "--batch", 64,
                    "--out", out]) == 0
        config = json.loads((out / "config.json").read_text())
        assert config["threads_cap"] == 2


_TRAIN_SIZES = [("--steps", 1), ("--batch", 1), ("--d", 1), ("--L", 1), ("--stack", 1),
                ("--hidden", 1)]
SIZE_FLAGS = (
    [("fit-density", flag, least) for flag, least in
     [("--train-n", 1), ("--val-n", 1), *_TRAIN_SIZES, ("--grid-points", 0)]]
    + [("fit-energy", flag, least) for flag, least in [("--samples", 1), *_TRAIN_SIZES]]
    + [("sample", "--n", 0), ("grid-export", "--points", 0),
       ("certify-universal", "--curve-points", 0)]
)


# A float flag out of its range: nan, inf and each side of the rule.
FLOAT_FLAGS = (
    [(c, "--lr", [v]) for c in ("fit-density", "fit-energy") for v in ("nan", "inf", "-1")]
    + [("fit-density", "--val-frac", [v]) for v in ("nan", "1", "-0.1")]
    + [("fit-energy", "--mode-radius", [v]) for v in ("nan", "-1", "0")]
    + [("fit-density", "--grid-window", ["nan", "1"]), ("grid-export", "--window", ["0", "inf"])]
)


# What the sweep of every numeric option feeds it, and the (command, flag, value)
# runs that are valid uses ("*" for every command): a zero rate, seed,
# validation share, grid, curve, sample count or grid size, and window ends,
# which only need to be finite.
SWEEP_VALUES = ("-1", "0", "nan", "inf", "1e400", "abc")
SWEEP_VALID = {("*", "--lr", "0"), ("*", "--seed", "0"), ("fit-density", "--val-frac", "0"),
               ("fit-density", "--grid-points", "0"), ("certify-universal", "--curve-points", "0"),
               ("sample", "--n", "0"), ("grid-export", "--points", "0"),
               ("fit-density", "--grid-window", "-1"), ("fit-density", "--grid-window", "0"),
               ("grid-export", "--window", "-1"), ("grid-export", "--window", "0")}


class TestSizeFlags:
    """Every integer size flag below its minimum is refused before any work."""

    BASE = {
        "fit-density": ["--target", "grid-k2", "--steps", 1, "--train-n", 64, "--val-n", 16,
                        "--batch", 16, "--d", 2, "--hidden", 4, "--density-grid"],
        "fit-energy": ["--target", "four-mode", "--steps", 1, "--batch", 16, "--d", 2,
                       "--hidden", 4, "--samples", 16],
        "sample": ["--n", 5],
        "grid-export": ["--points", 3],
        "certify-universal": ["--n", "1,4", "--grid", 2001],
    }

    @pytest.mark.parametrize("command,flag,least", SIZE_FLAGS,
                             ids=[f"{c}{f}" for c, f, _ in SIZE_FLAGS])
    def test_below_minimum_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                                      command, flag, least):
        argv = [command, *self.BASE[command]]
        if command in ("sample", "grid-export"):
            checkpoint = tmp_path / "ckpt.json"
            FlowStack.build(m=2, kind="dsf", d=2, hidden=(4,), seed=0).save(str(checkpoint))
            argv += ["--checkpoint", checkpoint]
        out = tmp_path / "out"
        assert run(argv + [flag, least - 1, "--out", out]) == 3
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists() or (out.is_dir() and not any(out.iterdir()))

    @pytest.mark.parametrize("command", ["fit-density", "fit-energy"])
    @pytest.mark.parametrize("clip", ["0", "-1", "nan"])
    def test_nonpositive_grad_clip_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                                             command, clip):
        # a clip <= 0 would flip or zero every gradient step
        out = tmp_path / "out"
        assert run([command, *self.BASE[command], "--grad-clip", clip, "--out", out]) == 3
        err = capsys.readouterr().err
        assert "error: grad_clip must be finite and > 0" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,values", FLOAT_FLAGS,
                             ids=[f"{c}{f}={'_'.join(v)}" for c, f, v in FLOAT_FLAGS])
    def test_bad_float_exits_3_and_writes_nothing(self, tmp_path, capsys, rng,
                                                   command, flag, values):
        argv = [command, *self.BASE[command]]
        if flag == "--val-frac":  # read only with --data
            data = tmp_path / "data.csv"
            write_csv(str(data), rng.normal(size=(64, 2)))
            argv[1:3] = ["--data", data]
        if command == "grid-export":
            checkpoint = tmp_path / "ckpt.json"
            FlowStack.build(m=2, kind="dsf", d=2, hidden=(4,), seed=0).save(str(checkpoint))
            argv += ["--checkpoint", checkpoint]
        out = tmp_path / "out"
        assert run(argv + [flag, *values, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists() or (out.is_dir() and not any(out.iterdir()))

    @pytest.mark.parametrize("command", ["fit-density", "fit-energy", "sample",
                                         "certify-universal", "selftest", "config"])
    def test_negative_seed_exits_3_and_writes_nothing(self, tmp_path, capsys, command):
        # np.random.default_rng refuses a negative seed; "config" is fit-density
        # adopting "seed": -1 from a --config file
        name = "fit-density" if command == "config" else command
        argv = [name, *self.BASE.get(name, [])]
        if command == "sample":
            argv += ["--checkpoint", tmp_path / "never-read.json"]
        if command == "config":
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"seed": -1}))
            argv += ["--config", cfg]
        else:
            argv += ["--seed", -1]
        out = tmp_path / "out"
        assert run(argv + (["--out", out] if command != "selftest" else [])) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be >= 0, got -1\n" and captured.out == ""
        assert not out.exists()

    def test_every_numeric_option_refuses_bad_values(self, tmp_path, capsys, rng):
        # Walks every subcommand's numeric options and feeds each one every value
        # of SWEEP_VALUES (at both ends of a window): a run exits 2 (argparse) or 3,
        # prints no traceback and does not even create --out. SWEEP_VALID are the
        # values an option accepts.
        checkpoint = tmp_path / "ckpt.json"
        FlowStack.build(m=2, kind="dsf", d=2, hidden=(4,), seed=0).save(str(checkpoint))
        data = tmp_path / "data.csv"
        write_csv(str(data), rng.normal(size=(64, 2)))
        base = {**self.BASE, "sample": [*self.BASE["sample"], "--checkpoint", checkpoint],
                "grid-export": [*self.BASE["grid-export"], "--checkpoint", checkpoint],
                "logpdf": ["--checkpoint", checkpoint, "--data", data], "selftest": []}
        _, commands = build_parser()
        swept = 0
        for command, parser in commands.items():
            for action in parser._actions:
                if action.type not in (int, float) or not action.option_strings:
                    continue
                flag = action.option_strings[0]
                for value in SWEEP_VALUES:
                    if (command, flag, value) in SWEEP_VALID or ("*", flag, value) in SWEEP_VALID:
                        continue
                    out = tmp_path / f"out{swept}"
                    argv = [command, *base[command], flag, *[value] * (action.nargs or 1)]
                    if command != "selftest":
                        argv += ["--out", out]
                    try:
                        code = run(argv)
                    except SystemExit as exc:
                        code = exc.code
                    err = capsys.readouterr().err
                    assert code in (2, 3), (argv, code, err)
                    assert "Traceback" not in err and not out.exists(), argv
                    swept += 1
        assert swept > 150  # every subcommand's options were found

    def test_nan_metric_is_a_numeric_error_and_writes_nothing(self, tmp_path):
        path = tmp_path / "metrics.json"
        with pytest.raises(NumericError, match="metrics.json"):
            write_json(str(path), {"val_nll": float("nan")})
        assert list(tmp_path.iterdir()) == []
