"""Command-line interface: argument handling, output formats, determinism."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import reference as ref
from mvdtest import (
    KernelSpec,
    SubsamplingPlan,
    mmd_sq_isotropic,
    mvd_mmd_curves,
    mvd_sq_isotropic,
    run_test,
    type1_power_table,
)
from mvdtest.cli import _result_csv, load_csv, main, save_csv
from mvdtest.simulate import _COLUMNS


@pytest.fixture
def sample_files(tmp_path):
    rng = np.random.default_rng(314)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=(36, 2))
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    save_csv(x, x_path)
    save_csv(y, y_path)
    return x, y, str(x_path), str(y_path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCsvIo:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        m = np.concatenate([
            rng.normal(size=(5, 3)),
            [[1e-300, 1e300, -0.1], [3.141592653589793, -0.0, 7.0]],
        ])
        path = tmp_path / "m.csv"
        save_csv(m, path)
        back = load_csv(str(path))
        np.testing.assert_array_equal(back, m)
        save_csv(back, tmp_path / "m2.csv")
        assert (tmp_path / "m2.csv").read_bytes() == path.read_bytes()

    def test_header_skip(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        got = load_csv(str(path), has_header=True)
        np.testing.assert_array_equal(got, [[1.0, 2.0], [3.0, 4.0]])

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n\n", encoding="utf-8")
        assert load_csv(str(path)).shape == (2, 2)

    def test_single_column_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1.0\n2.0\n3.0\n", encoding="utf-8")
        assert load_csv(str(path)).shape == (3, 1)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: expected 2 fields, got 1"):
            load_csv(str(path))

    def test_non_numeric_reports_line_and_column(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1.0,2.0\n3.0,oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2, column 2: not a number: 'oops'"):
            load_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(str(path))

    def test_save_rejects_1d(self, tmp_path):
        with pytest.raises(ValueError, match="2-d matrix"):
            save_csv(np.zeros(3), tmp_path / "bad.csv")


class TestTestCommand:
    def test_report_matches_library(self, capsys, sample_files):
        x, y, x_path, y_path = sample_files
        code, out, err = _run(capsys, [
            "test", "--x", x_path, "--y", y_path, "--sigma", "0.5",
            "--draws", "2000", "--seed", "9",
        ])
        assert code == 0 and err == ""
        payload = json.loads(out)
        plan = SubsamplingPlan(n1=20, k=5, l=5, iterations=1000)
        want = run_test(x, y, KernelSpec(sigma=0.5), kind="mvd", plan=plan,
                        draws=2000, seed=9)
        assert payload["kind"] == "mvd"
        assert (payload["n"], payload["m"], payload["d"]) == (40, 36, 2)
        assert payload["sigma"] == 0.5
        assert payload["C"] == 0.0
        assert payload["statistic"] == want.statistic
        assert payload["critical_value_wprime"] == want.critical_value
        assert payload["critical_value_uncorrected"] == want.critical_value_uncorrected
        assert payload["p_value"] == want.p_value
        assert payload["reject"] == want.reject
        assert payload["tau"] == want.tau
        assert payload["v_sub"] == want.v_sub
        assert payload["xi"] == want.xi
        assert payload["c"] == want.c
        assert payload["seed"] == 9
        assert (payload["n1"], payload["k"], payload["l"]) == (20, 5, 5)
        assert isinstance(payload["reject"], bool)

    def test_field_order_starts_with_report_core(self, capsys, sample_files):
        _, _, x_path, y_path = sample_files
        code, out, _ = _run(capsys, ["test", "--x", x_path, "--y", y_path,
                                     "--sigma", "0.5", "--draws", "500"])
        assert code == 0
        keys = list(json.loads(out))
        assert keys[:17] == ["kind", "n", "m", "d", "sigma", "C", "statistic",
                             "critical_value_wprime", "critical_value_uncorrected",
                             "p_value", "reject", "tau", "v_sub", "xi", "c",
                             "seed", "version"]

    def test_all_fields_in_order(self, capsys, sample_files):
        _, _, x_path, y_path = sample_files
        code, out, _ = _run(capsys, ["test", "--x", x_path, "--y", y_path,
                                     "--sigma", "0.5", "--draws", "500"])
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["kind", "n", "m", "d", "sigma", "C", "statistic",
                                 "critical_value_wprime", "critical_value_uncorrected",
                                 "p_value", "reject", "tau", "v_sub", "xi", "c",
                                 "seed", "version", "kernel", "alpha", "draws", "n1", "k", "l",
                                 "subsample_iters", "x", "y", "header", "weights_trace",
                                 "clipped_count", "clipped_mass", "statistic_clamped"]
        assert payload["kernel"] == "gaussian"

    def test_kernel_option_is_gone(self, capsys, sample_files):
        _, _, x_path, y_path = sample_files
        with pytest.raises(SystemExit) as exc:
            main(["test", "--x", x_path, "--y", y_path, "--kernel", "gaussian"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tau", ["nan", "inf", "-0.5"])
    def test_bad_tau_is_json_error(self, capsys, sample_files, tau):
        _, _, x_path, y_path = sample_files
        code, out, err = _run(capsys, ["test", "--x", x_path, "--y", y_path, "--kind", "both",
                                       "--tau", tau])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == f"tau must be >= 0 and finite, got {float(tau)!r}"

    def test_kind_both_emits_two_reports(self, capsys, sample_files):
        _, _, x_path, y_path = sample_files
        code, out, _ = _run(capsys, ["test", "--x", x_path, "--y", y_path,
                                     "--kind", "both", "--sigma", "0.5", "--draws", "500"])
        assert code == 0
        payload = json.loads(out)
        assert [p["kind"] for p in payload] == ["mvd", "mmd"]

    def test_sigma_rule_uses_dimension(self, capsys, sample_files):
        _, _, x_path, y_path = sample_files
        code, out, _ = _run(capsys, ["test", "--x", x_path, "--y", y_path,
                                     "--draws", "500"])
        assert code == 0
        assert json.loads(out)["sigma"] == 2.0 ** -0.75  # auto on d = 2

    def test_plan_and_tau_overrides(self, capsys, sample_files):
        x, y, x_path, y_path = sample_files
        code, out, _ = _run(capsys, [
            "test", "--x", x_path, "--y", y_path, "--sigma", "0.5", "--draws", "500",
            "--n1", "24", "--k", "6", "--l", "4", "--subsample-iters", "200",
            "--tau", "0.5", "--log-scale", "0.3",
        ])
        assert code == 0
        payload = json.loads(out)
        assert (payload["n1"], payload["k"], payload["l"]) == (24, 6, 4)
        assert payload["subsample_iters"] == 200
        assert payload["tau"] == 0.5
        assert payload["C"] == 0.3
        plan = SubsamplingPlan(n1=24, k=6, l=4, iterations=200)
        want = run_test(x, y, KernelSpec(sigma=0.5, log_scale=0.3), kind="mvd",
                        plan=plan, tau=0.5, draws=500, seed=0)
        assert payload["statistic"] == want.statistic
        assert payload["v_sub"] == want.v_sub

    def test_header_flag(self, capsys, tmp_path, sample_files):
        x, y, _, _ = sample_files
        x_path = tmp_path / "xh.csv"
        y_path = tmp_path / "yh.csv"
        x_path.write_text("a,b\n" + "".join(f"{float(u)!r},{float(v)!r}\n" for u, v in x),
                          encoding="utf-8")
        y_path.write_text("a,b\n" + "".join(f"{float(u)!r},{float(v)!r}\n" for u, v in y),
                          encoding="utf-8")
        code, out, _ = _run(capsys, ["test", "--x", str(x_path), "--y", str(y_path),
                                     "--header", "--sigma", "0.5", "--draws", "500"])
        assert code == 0
        assert json.loads(out)["n"] == 40

    def test_deterministic_output(self, capsys, sample_files):
        _, _, x_path, y_path = sample_files
        argv = ["test", "--x", x_path, "--y", y_path, "--sigma", "0.5", "--draws", "500"]
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2

    def test_out_writes_file(self, tmp_path, capsys, sample_files):
        _, _, x_path, y_path = sample_files
        out_path = tmp_path / "report.json"
        code, out, _ = _run(capsys, ["test", "--x", x_path, "--y", y_path,
                                     "--sigma", "0.5", "--draws", "500",
                                     "--out", str(out_path)])
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text(encoding="utf-8"))["kind"] == "mvd"

    def test_underflowing_log_scale_is_json_error(self, capsys, tmp_path):
        # mvd rejects at C = 0; at C = -400 its statistic and critical value
        # scale by e^(-800) and its v_sub by e^(-1600), all of which underflow
        # to 0.  The v_sub is refused first.
        rng = np.random.default_rng(271)
        x_path, y_path = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
        save_csv(rng.normal(size=(40, 2)), x_path)
        save_csv(2.0 * rng.normal(size=(36, 2)), y_path)
        argv = ["test", "--x", x_path, "--y", y_path, "--kind", "mvd", "--draws", "2000"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert json.loads(out)["reject"] is True
        code, out, err = _run(capsys, argv + ["--log-scale", "-400"])
        assert code == 1
        assert out == ""
        assert "log_scale=-400.0" in json.loads(err)["error"]

    def test_missing_file_is_json_error_on_stderr(self, capsys, tmp_path):
        code, out, err = _run(capsys, ["test", "--x", str(tmp_path / "nope.csv"),
                                       "--y", str(tmp_path / "nope.csv")])
        assert code == 1
        assert out == ""
        assert "nope.csv" in json.loads(err)["error"]

    def test_bad_csv_is_json_error_on_stderr(self, capsys, tmp_path, sample_files):
        _, _, x_path, _ = sample_files
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n1.0,zzz\n", encoding="utf-8")
        code, _, err = _run(capsys, ["test", "--x", x_path, "--y", str(bad)])
        assert code == 1
        assert "not a number" in json.loads(err)["error"]

    def test_partial_plan_override_keeps_the_other_defaults(self, capsys, sample_files):
        _, _, x_path, y_path = sample_files
        code, out, _ = _run(capsys, ["test", "--x", x_path, "--y", y_path, "--sigma", "0.5",
                                     "--draws", "500", "--k", "6", "--subsample-iters", "50"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["n1"], payload["k"], payload["l"], payload["subsample_iters"]) == (20, 6, 5, 50)

    @pytest.mark.parametrize("plan_args", [[], ["--n1", "1", "--k", "2", "--l", "2"]])
    def test_three_row_x_is_json_error(self, capsys, tmp_path, sample_files, plan_args):
        _, _, _, y_path = sample_files
        x_path = tmp_path / "short.csv"
        save_csv(np.random.default_rng(3).normal(size=(3, 2)), x_path)
        code, out, err = _run(capsys, ["test", "--x", str(x_path), "--y", y_path] + plan_args)
        assert code == 1
        assert out == ""
        assert "x needs at least 4 rows" in json.loads(err)["error"]

    def test_negative_seed_is_json_error(self, capsys, sample_files):
        _, _, x_path, y_path = sample_files
        code, out, err = _run(capsys, ["test", "--x", x_path, "--y", y_path, "--seed", "-2"])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "seed must be a non-negative integer, got -2"

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--y", "y.csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["123", "abc"])
    def test_seed_environment_variable_is_ignored(self, capsys, sample_files, monkeypatch, value):
        # --seed (default 0) is the only seed: MVDTEST_SEED once set the default.
        _, _, x_path, y_path = sample_files
        runs = (["test", "--x", x_path, "--y", y_path, "--sigma", "0.5", "--draws", "500"],
                ["simulate", "--table", "variance", "--d", "2", "--n", "16", "--m", "16",
                 "--reps", "20", "--divisors", "4", "--subsample-iters", "20"])
        want = [_run(capsys, argv) for argv in runs]
        monkeypatch.setenv("MVDTEST_SEED", value)
        assert [_run(capsys, argv) for argv in runs] == want
        assert want[0][0] == 0 and want[0][2] == ""
        assert json.loads(want[0][1])["seed"] == 0
        assert '"seed": 0' in want[1][1]


class TestCurvesCommand:
    def test_matches_library_and_round_trips(self, capsys):
        code, out, _ = _run(capsys, ["curves", "--t", "0,1.0", "--s", "1,2",
                                     "--d", "4", "--sigma", "0.2", "--log-scale", "0.5"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,s,d,sigma,C,mmd_sq,mvd_sq"
        assert len(lines) == 5
        want = mvd_mmd_curves([0.0, 1.0], [1.0, 2.0], 4, 0.2, 0.5)
        for line, row in zip(lines[1:], want):
            t, s, d, sigma, c, mmd_sq, mvd_sq = line.split(",")
            assert (float(t), float(s)) == (row[0], row[1])
            assert (d, sigma, c) == ("4", "0.2", "0.5")
            assert float(mmd_sq) == row[2]
            assert float(mvd_sq) == row[3]

    def test_sigma_rule_resolved_against_d(self, capsys):
        code, out, _ = _run(capsys, ["curves", "--t", "1", "--s", "1", "--d", "16",
                                     "--sigma", "d^-2"])
        assert code == 0
        sigma = out.strip().split("\n")[1].split(",")[3]
        assert float(sigma) == 16.0 ** -2

    def test_deterministic(self, capsys):
        argv = ["curves", "--d", "3", "--sigma", "0.3"]
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2

    def test_bad_grid_list_exits_2(self, capsys):
        for grid, why in (("1,spam", "not a comma-separated list of numbers"), (",", "empty list")):
            with pytest.raises(SystemExit) as exc:
                main(["curves", "--t", grid])
            assert exc.value.code == 2
            assert why in capsys.readouterr().err


class TestClosedFormCommand:
    def test_payload(self, capsys):
        code, out, _ = _run(capsys, ["closed-form", "--t", "0.5", "--s", "1.5",
                                     "--d", "2", "--sigma", "0.25"])
        assert code == 0
        payload = json.loads(out)
        assert payload["mvd_sq"] == mvd_sq_isotropic(0.5, 1.5, 2, 0.25)
        assert payload["mmd_sq"] == mmd_sq_isotropic(0.5, 1.5, 2, 0.25)
        assert payload["sigma"] == 0.25
        assert list(payload) == ["t", "s", "d", "sigma", "C", "mmd_sq", "mvd_sq", "version"]

    def test_large_dimension_prints_the_value_without_warnings(self, capsys):
        # mmd_sq read 0.0 after numpy's overflow warning on |I + 4 sigma I_500| = 5^500.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["closed-form", "--t", "0.5", "--s", "1", "--d", "500",
                                           "--sigma", "1", "--log-scale", "300"])
        assert code == 0
        assert err == ""
        want = math.exp(300.0) * ref.isotropic_sq_by_decimal(0.5, 1.0, 500, 1.0)[1]
        np.testing.assert_allclose(json.loads(out)["mmd_sq"], want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("argv,error", [
        (["closed-form", "--sigma", "0.5", "--d", "-3"], "d must be an integer >= 1, got -3"),
        (["curves", "--sigma", "0.5", "--d", "0"], "d must be an integer >= 1, got 0"),
        (["closed-form", "--d", "0"], "d must be an integer >= 1, got 0"),
    ])
    def test_bad_dimension_is_json_error(self, capsys, argv, error):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == error

    def test_invalid_scale_is_json_error(self, capsys):
        code, _, err = _run(capsys, ["closed-form", "--s", "-1.0"])
        assert code == 1
        assert "variance scale" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv,error", [
        (["closed-form", "--t", "inf"], "mean must be finite"),
        (["closed-form", "--s", "nan"], "variance scale s must be > 0 and finite, got nan"),
    ])
    def test_non_finite_parameter_is_json_error(self, capsys, argv, error):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("argv", [
        ["closed-form", "--log-scale", "400", "--d", "2"],
        ["curves", "--log-scale", "800"],
    ])
    def test_overflowing_log_scale_is_json_error(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "log_scale" in json.loads(err)["error"]

    @pytest.mark.parametrize("command", ["closed-form", "curves"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_log_scale_is_json_error(self, capsys, command, value):
        # curves --log-scale=-inf once printed rows of 0.0 and exited 0.
        code, out, err = _run(capsys, [command, f"--log-scale={value}"])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == f"log_scale must be finite and real, got {float(value)!r}"


class TestSimulateCommand:
    VARIANCE_ARGS = ["simulate", "--table", "variance", "--d", "2", "--n", "16",
                     "--m", "16", "--reps", "10", "--divisors", "4",
                     "--subsample-iters", "20", "--sigma", "0.4", "--seed", "2"]
    POWER_ARGS = ["simulate", "--table", "power", "--d", "1", "--n", "16", "--m", "16",
                  "--reps", "2", "--divisor", "8", "--subsample-iters", "20",
                  "--draws", "100", "--sigma", "0.4", "--seed", "2"]

    def test_variance_csv_layout(self, capsys):
        code, out, _ = _run(capsys, self.VARIANCE_ARGS)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config ")
        config = json.loads(lines[0][len("# config "):])
        assert config["cells"] == [["0.4", 2, 16, 16]]
        assert config["reps"] == 10
        assert lines[1] == ",".join(_COLUMNS)
        # 2 kinds x (1 exact + 1 subsample + 1 slope)
        assert len(lines) == 2 + 6
        header = lines[1].split(",")
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            assert row["table"] == "variance"
            assert row["kind"] in ("mvd", "mmd")

    def test_variance_deterministic(self, capsys):
        _, out1, _ = _run(capsys, self.VARIANCE_ARGS)
        _, out2, _ = _run(capsys, self.VARIANCE_ARGS)
        assert out1 == out2

    def test_power_csv_layout(self, capsys):
        code, out, _ = _run(capsys, self.POWER_ARGS)
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[1].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
        assert {(r["kind"], r["scenario"]) for r in rows} == {
            (k, s) for k in ("mvd", "mmd") for s in ("null", "uniform", "exponential")}
        for r in rows:
            assert 0.0 <= float(r["value"]) <= 1.0
            assert r["estimate"] == "rejection_rate"

    def test_power_kind_filter(self, capsys):
        code, out, _ = _run(capsys, self.POWER_ARGS + ["--kind", "mvd",
                                                       "--alternatives", "uniform"])
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[1].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
        assert {(r["kind"], r["scenario"]) for r in rows} == {("mvd", "null"),
                                                              ("mvd", "uniform")}

    def test_json_format(self, capsys):
        code, out, _ = _run(capsys, self.VARIANCE_ARGS + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["reps"] == 10
        assert len(payload["rows"]) == 6
        assert {r["estimate"] for r in payload["rows"]} == {
            "exact_variance", "subsample_variance", "slope"}

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        _, stdout, _ = _run(capsys, self.VARIANCE_ARGS)
        code, empty, _ = _run(capsys, self.VARIANCE_ARGS + ["--out", str(out_path)])
        assert code == 0 and empty == ""
        assert out_path.read_text(encoding="utf-8") == stdout

    def test_log_scale_is_not_an_option(self, capsys):
        # The tables run at C = 0; the flag used to be accepted and ignored.
        with pytest.raises(SystemExit) as exc:
            main(self.VARIANCE_ARGS + ["--log-scale", "4"])
        assert exc.value.code == 2
        assert "--log-scale" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,flags", [
        (["--tau", "-5"], "--tau"),
        (["--alpha", "7"], "--alpha"),
        (["--draws", "1"], "--draws"),
        (["--alternatives", "bogus"], "--alternatives"),
        (["--divisor", "8"], "--divisor"),
        (["--tau", "-5", "--alpha", "7", "--draws", "1", "--alternatives", "bogus"],
         "--alternatives, --alpha, --draws, --tau"),
    ], ids=["tau", "alpha", "draws", "alternatives", "divisor", "four-at-once"])
    def test_variance_refuses_power_options(self, capsys, extra, flags):
        code, out, err = _run(capsys, self.VARIANCE_ARGS + extra)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == f"--table variance does not take {flags}"

    def test_power_refuses_variance_options(self, capsys):
        code, out, err = _run(capsys, self.POWER_ARGS + ["--divisors", "1,0"])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "--table power does not take --divisors"

    @pytest.mark.parametrize("table,extra,error", [
        ("variance", ["--divisors", "4,4"], "divisors must be distinct, got (4, 4)"),
        ("power", ["--alternatives", "uniform,uniform"], "alternatives must be distinct, got ('uniform', 'uniform')"),
    ])
    def test_repeated_table_option_is_json_error(self, capsys, table, extra, error):
        # Repeats once emitted every row of a divisor or an alternative twice.
        args = self.VARIANCE_ARGS if table == "variance" else self.POWER_ARGS
        code, out, err = _run(capsys, args + extra)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == error

    def test_unset_options_take_the_library_defaults(self, capsys):
        # Only the options given reach the table; the rest keep its defaults.
        argv = ["simulate", "--table", "power", "--d", "1", "--n", "16", "--m", "16", "--reps", "2",
                "--subsample-iters", "20", "--sigma", "0.4", "--seed", "2"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        want = type1_power_table([("0.4", 1, 16, 16)], reps=2, iterations=20, seed=2)
        assert out == _result_csv(want)
        config = json.loads(out.split("\n")[0][len("# config "):])
        assert (config["alpha"], config["divisor"], config["draws"], config["tau"]) == (0.05, 8, 10000, None)
        assert config["alternatives"] == ["uniform", "exponential"]

    def test_infeasible_plan_is_json_error(self, capsys):
        # n = 3 gives a split point of 1, below the minimum subsample size; the
        # cell check refuses it before any replication.
        code, _, err = _run(capsys, ["simulate", "--table", "power", "--d", "1",
                                     "--n", "3", "--m", "6", "--reps", "1",
                                     "--divisor", "8", "--draws", "100",
                                     "--subsample-iters", "20", "--sigma", "0.4"])
        assert code == 1
        assert "need integers d >= 1, n >= 4 and m >= 2" in json.loads(err)["error"]


class TestEntryPoint:
    def test_module_execution(self):
        proc = subprocess.run([sys.executable, "-m", "mvdtest", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("mvdtest ")

    def test_console_script_help(self):
        proc = subprocess.run(["mvdtest", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        for command in ("test", "curves", "simulate", "closed-form"):
            assert command in proc.stdout
