"""Command-line interface: the complex-literal grammar, output formats,
exit codes, config precedence, and byte-identical determinism."""

import json
import math

import pytest

from dilogzeta import cli
from dilogzeta.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    RunConfig,
    format_complex,
    parse_complex,
    worker_count,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComplexGrammar:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2+0i", 2.0 + 0.0j),
            ("-0.5+1i", -0.5 + 1.0j),
            ("0.5-2e1i", 0.5 - 20.0j),
            ("1e-3+.5i", 0.001 + 0.5j),
        ],
    )
    def test_accepts(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["2", "1 + 2i", "2+3j", "i", "0.5+", "(1+2i)"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

    def test_format_roundtrip(self):
        z = -0.5 + 14.134725141734695j
        assert parse_complex(format_complex(z)) == z


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(tolerance=1.0)
        with pytest.raises(ValueError):
            RunConfig(n_periods=0)
        with pytest.raises(ValueError):
            RunConfig(tail_order=3)
        with pytest.raises(ValueError):
            RunConfig(output_format="xml")

    def test_env_config_and_flag_precedence(self, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tolerance = 1e-6\nn_periods = 5000\n# comment\n")
        monkeypatch.setenv("DILOG_ZETA_CONFIG", str(cfg_file))
        code, out, _ = run_cli(
            capsys, "eval", "--s", "0.5+3i", "--method", "d", "--n-periods", "800"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        # flag wins over file for n_periods, and pins N exactly
        assert report["work"] == 800
        code, out, _ = run_cli(capsys, "eval", "--s", "0.5+3i", "--method", "d")
        assert code == EXIT_OK
        assert json.loads(out)["work"] == 5000  # so does the file

    def test_bad_env_config_is_usage_error(self, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("no_such_key = 3\n")
        monkeypatch.setenv("DILOG_ZETA_CONFIG", str(cfg_file))
        code, _, err = run_cli(capsys, "eval", "--s", "2+0i", "--method", "ref")
        assert code == EXIT_USAGE
        assert "no_such_key" in err

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("DILOG_ZETA_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("DILOG_ZETA_THREADS", "0")
        assert worker_count() >= 1


class TestEval:
    def test_ref_value_json(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--s", "2+0i", "--method", "ref")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["value_re"] == pytest.approx(math.pi ** 2 / 6.0, abs=1e-12)
        assert report["value_im"] == pytest.approx(0.0, abs=1e-12)
        assert report["s"] == "2+0i"

    def test_negative_real_part_literal(self, capsys):
        # leading-minus complex literal must not be eaten as a flag
        code, _, _ = run_cli(capsys, "eval", "--s", "-0.5+1i", "--method", "ref")
        assert code == EXIT_DOMAIN

    def test_pole_is_domain_exit(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--s", "1+0i", "--method", "ref")
        assert code == EXIT_DOMAIN
        assert "error" in err

    def test_bad_literal_is_usage_exit(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--s", "1 + 2i", "--method", "ref")
        assert code == EXIT_USAGE

    def test_unknown_command_is_usage_exit(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_n_periods_from_tolerance(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--s", "0.5+14.134725i", "--method", "d", "--tolerance", "1e-8"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["work"] < 100_000
        assert report["abs_err"] <= 1e-8

    def test_deterministic_output(self, capsys):
        args = ("eval", "--s", "0.3+7i", "--method", "e", "--n-periods", "2000")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--s", "2+0i", "--method", "ref",
            "--output-format", "text",
        )
        assert code == EXIT_OK
        assert "value_re = " in out


class TestMellinCommand:
    def test_closed_reference_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "mellin", "--kernel", "p", "--alpha", "-4+0i", "--method", "closed"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        expected = math.pi ** 2 / 18.0 - math.pi / 4.0 + 0.25 - math.pi / 144.0
        assert report["value_re"] == pytest.approx(expected, abs=1e-13)

    def test_pole_alpha_is_domain_exit(self, capsys):
        code, _, _ = run_cli(
            capsys, "mellin", "--kernel", "p", "--alpha", "-3+0i", "--method", "closed"
        )
        assert code == EXIT_DOMAIN

    def test_methods_agree(self, capsys):
        values = {}
        for method in ("closed", "period", "gamma"):
            code, out, _ = run_cli(
                capsys, "mellin", "--kernel", "p", "--alpha", "-2.5+0i",
                "--method", method, "--n-periods", "100000",
            )
            assert code == EXIT_OK
            values[method] = json.loads(out)["value_re"]
        assert values["closed"] == pytest.approx(values["period"], abs=1e-8)
        assert values["closed"] == pytest.approx(values["gamma"], abs=1e-5)


class TestCertifyAndBounds:
    def test_certify_holding_point(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--u0", "0.1", "--v0", "1.1")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["holds"] is True

    def test_certify_failing_point_exit(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--u0", "0.5", "--v0", "14.1")
        assert code == EXIT_TOLERANCE
        assert json.loads(out)["holds"] is False

    def test_c_bounds_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "c-bounds", "--N", "100", "--output-format", "csv"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "N,lower,upper"
        _, lower, upper = lines[1].split(",")
        assert -0.14 <= float(lower) <= -0.10
        assert 0.34 <= float(upper) <= 0.38


class TestZeroScan:
    def test_csv_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "zero-scan", "--u", "0.5", "--v-min", "14.0", "--v-max", "14.3",
            "--step", "0.05", "--n-periods", "20000", "--output-format", "csv",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "v,re_res,im_res,abs_res"
        assert len(lines) == 8  # header + 7 grid rows
        for line in lines[1:]:
            assert len(line.split(",")) == 4

    def test_json_candidates(self, capsys):
        code, out, _ = run_cli(
            capsys, "zero-scan", "--u", "0.5", "--v-min", "14.0", "--v-max", "14.3",
            "--step", "0.05", "--n-periods", "20000",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["n_candidates"] == 1
        assert float(report["candidates"]) == pytest.approx(14.134725, abs=1e-3)

    def test_tolerance_driven_candidates_match_pinned(self, capsys):
        argv = ("zero-scan", "--u", "0.5", "--v-min", "14.0", "--v-max", "14.3", "--step", "0.05")
        reports = []
        for extra in ((), ("--n-periods", "20000")):
            code, out, _ = run_cli(capsys, *argv, *extra)
            assert code == EXIT_OK
            reports.append(json.loads(out))
        auto, pinned = reports
        assert auto["n_candidates"] == pinned["n_candidates"] == 1
        assert auto["candidates"] == pinned["candidates"]
