import json
import warnings

import numpy as np
import pytest

from thirdopt import bench, corpus, minimize
from thirdopt.bench import confined_monkey_config
from thirdopt.cli import main
from thirdopt.escape import dump_records, read_records, write_trace

from oracles import confined_monkey_fn, grid_min_2d


class TestRun:
    def test_convergent_run_exits_zero(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = main(["run", "--problem", "monkey_saddle_confined", "--x0", "0,0",
                     "--seed", "7", "--trace", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "reason=terminal" in out
        final_f = float(out.split("final_f=")[1].split()[0])
        delta = -grid_min_2d(confined_monkey_fn, -2.0, 2.0, 1001)
        assert final_f <= -delta

    def test_quadratic_run(self, tmp_path):
        poly_path = tmp_path / "quad.json"
        poly_path.write_text(json.dumps({
            "dim": 2,
            "terms": [{"coeff": 1.0, "exponents": [2, 0]},
                      {"coeff": 1.0, "exponents": [0, 2]}],
        }))
        trace_path = tmp_path / "trace.jsonl"
        code = main(["run", "--problem", str(poly_path), "--x0", "1,1",
                     "--trace", str(trace_path)])
        assert code == 0
        records = read_records(trace_path)
        assert records[-1].phase == "terminal"
        assert records[-1].grad_norm <= 1e-6

    def test_budget_exhaustion_exits_two(self, tmp_path):
        code = main(["run", "--problem", "wine_bottle", "--x0", "1.4,0.5",
                     "--max-iters", "2", "--trace", str(tmp_path / "t.jsonl")])
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["--problem", "quartic_1d"],
        ["--problem", "quartic_1d", "--x0", "0", "--max-iters", "1.5"],
    ], ids=["missing_x0", "fractional_max_iters"])
    def test_usage_error_exits_one(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(["run", *args, "--trace", str(tmp_path / "t.jsonl")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: thirdopt run") and "thirdopt run: error:" in err
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["top", "run"])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: thirdopt")

    def test_dimension_mismatch_exits_one(self, tmp_path, capsys):
        code = main(["run", "--problem", "monkey_saddle", "--x0", "0,0,0",
                     "--trace", str(tmp_path / "t.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unparsable_start_exits_one(self, tmp_path, capsys):
        code = main(["run", "--problem", "monkey_saddle", "--x0", "0,zero",
                     "--trace", str(tmp_path / "t.jsonl")])
        assert code == 1
        assert "could not parse vector" in capsys.readouterr().err

    def test_unknown_problem_exits_one(self, tmp_path):
        code = main(["run", "--problem", "no_such_thing", "--x0", "0,0",
                     "--trace", str(tmp_path / "t.jsonl")])
        assert code == 1

    def test_bad_json_problem_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["run", "--problem", str(bad), "--x0", "0,0",
                     "--trace", str(tmp_path / "t.jsonl")])
        assert code == 1

    def test_constant_overrides_are_used(self, tmp_path):
        # pinned constants reproduce the quartic escape exactly: the
        # first escape step length is proj_norm/(L*Q) = 600/(24*8)
        trace_path = tmp_path / "t.jsonl"
        code = main(["run", "--problem", "quartic_1d", "--x0", "0",
                     "--R", "3600", "--L", "24", "--trace", str(trace_path)])
        assert code == 0
        records = read_records(trace_path)
        thirds = [r for r in records if r.phase == "third"]
        assert thirds and thirds[0].step_norm == pytest.approx(600.0 / (24.0 * 8.0))

    @pytest.mark.parametrize("option", ["--R", "--L", "--B", "--tol-mu"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_constant_exits_one(self, tmp_path, capsys, option, value):
        code = main(["run", "--problem", "monkey_saddle_confined", "--x0", "0,0",
                     option, value, "--trace", str(tmp_path / "t.jsonl")])
        assert code == 1
        assert "must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("x0, message", [
        ("1e200,0", "radius must be positive and finite, got inf"),
        ("1e150,0", "radius**3 overflows at radius = 2e+150"),
    ], ids=["norm-overflows", "radius-power-overflows"])
    def test_overflowing_default_radius_exits_one(self, tmp_path, capsys, x0, message):
        # with warnings as errors, as under python -W error: the start's norm
        # may overflow, and the default bounds then name the radius
        trace = tmp_path / "t.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--problem", "monkey_saddle", "--x0", x0, "--trace", str(trace)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not trace.exists()

    def test_same_seed_traces_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["run", "--problem", "monkey_saddle_confined", "--x0", "0,0",
                "--seed", "11"]
        assert main(args + ["--trace", str(a)]) == 0
        assert main(args + ["--trace", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_first_entry_parses_like_the_joined_form(self, tmp_path, capsys):
        # argparse alone reads a separate "-0.5,0" as an option and exits 1
        runs = []
        for i, x0 in enumerate((["--x0", "-0.5,0"], ["--x0=-0.5,0"])):
            trace = tmp_path / f"t{i}.jsonl"
            code = main(["run", "--problem", "monkey_saddle_confined", *x0,
                         "--trace", str(trace)])
            runs.append((code, capsys.readouterr().out, trace.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


class TestCheck:
    def test_monkey_saddle_fails_third(self, capsys):
        code = main(["check", "--problem", "monkey_saddle", "--point", "0,0"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "ThirdOrderFail"
        assert report["third_residual"] == pytest.approx(12.0)

    def test_xxy_holds(self, capsys):
        code = main(["check", "--problem", "xxy_plus_yy", "--point", "0,0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "ThirdOrderNecessaryHolds"

    def test_noncritical_point_fails_first(self, capsys):
        code = main(["check", "--problem", "monkey_saddle", "--point", "1,1"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["verdict"] == "FirstOrderFail"

    def test_negative_first_entry_parses_like_the_joined_form(self, capsys):
        spaced = main(["check", "--problem", "monkey_saddle", "--point", "-1,0"])
        spaced_out = capsys.readouterr().out
        joined = main(["check", "--problem", "monkey_saddle", "--point=-1,0"])
        assert (spaced, spaced_out) == (joined, capsys.readouterr().out)
        assert json.loads(spaced_out)["grad_norm"] == 3.0
        # a flag without its value is still a usage error
        with pytest.raises(SystemExit) as exc:
            main(["check", "--problem", "monkey_saddle", "--point"])
        assert exc.value.code == 1
        assert "--point: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1,0", "-1,0"])
    def test_flag_prefix_is_a_usage_error(self, capsys, value):
        # argparse's default accepts "--poi 1,0" as --point, yet "--poi -1,0"
        # fails: only the full flag is joined to a value that starts with "-"
        with pytest.raises(SystemExit) as exc:
            main(["check", "--problem", "monkey_saddle", "--poi", value])
        assert exc.value.code == 1
        assert "the following arguments are required: --point" in capsys.readouterr().err

    def test_overflowing_power_exits_one_naming_it(self, capsys):
        code = main(["check", "--problem", "monkey_saddle", "--point", "1e200,1e200"])
        assert code == 1
        assert capsys.readouterr().err == "error: power x0**2 overflows at |x0| = 1e+200\n"

    def test_point_dimension_mismatch(self):
        assert main(["check", "--problem", "monkey_saddle", "--point", "1"]) == 1

    def test_non_finite_derivatives_exit_one(self, tmp_path, capsys):
        # The derivatives at 1 are all NaN, which every condition's comparison
        # would pass, and a NaN is not JSON.  Building the table overflows
        # 3 * 1e308 with a RuntimeWarning, which -W error would raise before
        # the checker sees the NaNs.
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({"dim": 1, "terms": [
            {"coeff": 1e308, "exponents": [3]}, {"coeff": -5e307, "exponents": [4]}]}))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["check", "--problem", str(problem), "--point", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gradient, hessian or third derivative has non-finite entries\n"

    @pytest.mark.parametrize("option", ["--tol-eig", "--tol-third"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_invalid_tolerance_exits_one(self, capsys, option, value):
        code = main(["check", "--problem", "monkey_saddle", "--point", "0,0", option, value])
        assert code == 1
        assert "must be non-negative and finite" in capsys.readouterr().err


class TestBench:
    def test_unknown_suite_exits_one(self, tmp_path, capsys):
        code = main(["bench", "--suite", "bogus", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "unknown suite" in capsys.readouterr().err

    def test_run_suite_rejects_unknown_name(self):
        with pytest.raises(KeyError, match="unknown suite 'bogus'"):
            bench.run_suite("bogus")

    def test_escape_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "escape.csv"
        code = main(["bench", "--suite", "escape", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "suite,case,passed,quantities"
        assert len(lines) == 5
        assert all(line.split(",")[2] == "1" for line in lines[1:])


class TestTraceSerialization:
    def test_round_trip_is_identity(self, tmp_path):
        trace = minimize(corpus("monkey_saddle_confined"), np.zeros(2),
                         confined_monkey_config())
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        records = read_records(path)
        assert dump_records(records) == path.read_text()
        assert records == trace.records

    def test_schema_fields_always_present(self, tmp_path):
        trace = minimize(corpus("monkey_saddle_confined"), np.zeros(2),
                         confined_monkey_config())
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        required = {"iter", "phase", "f", "grad_norm", "mu", "c_q",
                    "subspace_dim", "step_norm", "flags"}
        phases = set()
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            assert set(obj) == required
            assert list(obj) == ["iter", "phase", "f", "grad_norm", "mu", "c_q",
                                 "subspace_dim", "step_norm", "flags"]
            phases.add(obj["phase"])
        assert phases == {"cubic", "third", "terminal"}
