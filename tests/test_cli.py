import json
import math
import re

import pytest

from lerchsum.cli import main

PI = math.pi


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_pair(out):
    parts = out.strip().split("\t")
    assert len(parts) == 2
    return complex(float(parts[0]), float(parts[1]))


# ----------------------------------------------------------------------- eval

def test_eval_phi_dilog(capsys):
    code, out, _ = run_cli(["eval", "phi", "--z", "0.5", "0", "--s", "2", "0",
                            "--v", "1", "0"], capsys)
    assert code == 0
    value = parse_pair(out)
    assert abs(value - 1.1644810529300249) <= 3e-10


def test_eval_output_has_17_significant_digits(capsys):
    code, out, _ = run_cli(["eval", "digamma", "--z", "1", "0"], capsys)
    assert code == 0
    real_txt = out.split("\t")[0]
    mantissa = real_txt.lstrip("-0.").replace(".", "")
    assert len(mantissa) >= 16
    assert abs(float(real_txt) + 0.57721566490153286) < 1e-12


def test_eval_domain_error_exit_2(capsys):
    code, _, err = run_cli(["eval", "phi", "--z", "1", "0", "--s", "2", "0",
                            "--v", "1", "0"], capsys)
    assert code == 2
    assert "|z| < 1" in err


def test_eval_convergence_error_exit_3(capsys):
    code, _, err = run_cli(["eval", "phi", "--z", "0.999999", "0", "--s", "1", "0",
                            "--v", "1", "0", "--max-terms", "50"], capsys)
    assert code == 3
    # a value past the double range is a numerical error too, not "inf"
    code, out, _ = run_cli(["eval", "loggamma", "--z", "1e308", "0"], capsys)
    assert (code, out) == (3, "")


def test_eval_zeta_follows_tol_rel_and_max_terms(capsys):
    # zeta(2, 3/2) = pi^2/2 - 4; a looser --tol-rel cuts the sum sooner, and a
    # --max-terms below the cut's head length exits 3
    argv = ["eval", "zeta", "--s", "2", "0", "--a", "1.5", "0"]
    exact = PI * PI / 2.0 - 4.0
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    default = parse_pair(out)
    assert abs(default - exact) <= 1e-10
    code, out, _ = run_cli(argv + ["--tol-rel", "1e-3"], capsys)
    assert code == 0
    loose = parse_pair(out)
    assert loose != default and abs(loose - exact) <= 1e-3
    code, _, err = run_cli(argv + ["--max-terms", "1"], capsys)
    assert code == 3
    assert "max_terms" in err


def test_eval_accepts_negative_numbers_in_exponent_form(capsys):
    expected = run_cli(["eval", "digamma", "--z", "1", "-0.001"], capsys)
    assert expected[0] == 0
    assert run_cli(["eval", "digamma", "--z", "1", "-1e-3"], capsys) == expected
    assert run_cli(["eval", "digamma", "--z", "1", "-1E-3"], capsys) == expected
    # an argument short is still a usage error
    code, _, err = run_cli(["eval", "digamma", "--z", "-1e-3"], capsys)
    assert code == 2
    assert "expected 2 arguments" in err


# function -> the arguments of a finite call
EVAL_ARGS = {"loggamma": {"z": "1.5"}, "digamma": {"z": "1.5"}, "harmonic": {"z": "1.5"},
             "stieltjes1": {"a": "1.5"}, "zeta": {"s": "2", "a": "1.5"},
             "polylog": {"s": "2", "z": "0.5"}, "phi": {"z": "0.5", "s": "2", "v": "1"},
             "phi-integral": {"z": "0.5", "s": "2", "v": "1"}}


@pytest.mark.parametrize("function,field", [(fn, field) for fn, args in EVAL_ARGS.items()
                                            for field in args])
@pytest.mark.parametrize("bad", [("nan", "0"), ("inf", "0"), ("0", "nan"), ("1", "inf")])
def test_eval_non_finite_argument_exit_2(function, field, bad, capsys):
    argv = ["eval", function]
    for name, re_part in EVAL_ARGS[function].items():
        argv += [f"--{name}", *(bad if name == field else (re_part, "0"))]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("domain error")


def test_eval_missing_argument_exit_2(capsys):
    code, _, err = run_cli(["eval", "zeta", "--s", "2", "0"], capsys)
    assert code == 2
    assert "--a" in err


def test_eval_unknown_function_exit_2(capsys):
    code, _, _ = run_cli(["eval", "bogus", "--z", "1", "0"], capsys)
    assert code == 2


def test_eval_all_functions_run(capsys):
    cases = [
        ["eval", "zeta", "--s", "2", "0", "--a", "1", "0"],
        ["eval", "polylog", "--s", "1", "0", "--z", "0.5", "0"],
        ["eval", "loggamma", "--z", "4", "3"],
        ["eval", "harmonic", "--z", "3.5", "0"],
        ["eval", "stieltjes1", "--a", "1", "0"],
        ["eval", "phi-integral", "--z", "-1", "0", "--s", "1", "0", "--v", "1", "0"],
    ]
    expected = [PI * PI / 6.0, math.log(2.0), None, 1.9660865912610617,
                -0.0728158454836767, math.log(2.0)]
    for args, want in zip(cases, expected):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        if want is not None:
            assert abs(parse_pair(out).real - want) < 1e-7


# --------------------------------------------------------------------- verify

def test_verify_degenerate(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["verify", "ID-02", "--count", "30", "--seed", "7"], capsys)
    assert code == 0
    assert re.match(r"ID-02 PASS 30/30 worst_rel=\S+", out.strip())
    data = json.loads((tmp_path / "verify_report.json").read_text())
    assert data["identities"][0]["passed"] == 30


def test_verify_unknown_id(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["verify", "ID-99"], capsys)
    assert code == 2
    assert "ID-99" in err


def test_verify_absolute_tolerance_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["verify", "ID-13", "--count", "6", "--seed", "3",
                            "--tol-abs", "1e-5"], capsys)
    assert code == 0
    data = json.loads((tmp_path / "verify_report.json").read_text())
    row = data["identities"][0]
    assert row["mode"] == "absolute"
    assert row["tol"] == 1e-5


def test_verify_csv_format(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(["verify", "ID-00", "--count", "4", "--seed", "1",
                          "--format", "csv", "--out", "r.csv"], capsys)
    assert code == 0
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0].startswith("identity_id,index,")
    assert len(lines) == 5


# ---------------------------------------------------------------------- suite

def test_suite_filtered(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["suite", "--filter", "ID-00,ID-02", "--count", "5"],
                           capsys)
    assert code == 0
    body = [line for line in out.splitlines() if line.startswith("ID-")]
    assert len(body) == 2


def test_suite_bad_tolerance_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["suite", "--count", "3", "--tol-rel", "-1"], capsys)
    assert code == 2
    assert not (tmp_path / "suite_report.json").exists()


def test_suite_unknown_filter_id(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for ids in ("ID-77", ","):  # an unknown id, and a filter that names no id
        code, _, _ = run_cli(["suite", "--filter", ids], capsys)
        assert code == 2, ids
        assert not (tmp_path / "suite_report.json").exists()


@pytest.mark.parametrize("command", [["verify", "ID-00"], ["suite", "--filter", "ID-00"]])
def test_unwritable_report_path_is_a_usage_error(command, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "r.json"
    code, _, err = run_cli(command + ["--count", "2", "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_suite_reports_are_deterministic(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["suite", "--filter", "ID-02,ID-13", "--count", "8", "--seed", "99"]
    code, _, _ = run_cli(args + ["--out", "a.json"], capsys)
    assert code == 0
    code, _, _ = run_cli(args + ["--out", "b.json"], capsys)
    assert code == 0
    strip = lambda p: re.sub(r'"(timestamp|wall_time_s)": [^,}]+,? ?', "",
                             (tmp_path / p).read_text())
    assert strip("a.json") == strip("b.json")
    code, _, _ = run_cli(args + ["--format", "csv", "--out", "a.csv"], capsys)
    code2, _, _ = run_cli(args + ["--format", "csv", "--out", "b.csv"], capsys)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_suite_exit_1_when_identity_fails(tmp_path, monkeypatch, capsys):
    # the limit-trend gate for ID-12 demands a truncation error its dyadic
    # tail (~0.92 * 2^-12 relative) cannot meet, so it reports as failing
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["suite", "--filter", "ID-12", "--count", "3"], capsys)
    assert code == 1
    assert "ID-12" in out


def test_suite_has_no_jobs_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(["suite", "--filter", "ID-05", "--count", "2",
                          "--jobs", "2"], capsys)
    assert code == 2
    assert not (tmp_path / "suite_report.json").exists()
