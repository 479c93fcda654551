import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import charprime
from charprime.cli import main

from goldens import W1_REFERENCE

CLI = [sys.executable, "-m", "charprime.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("CHARPRIME_WORKING_DIGITS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


def _certified_digits(out):
    return int(re.search(r"certified_digits: (\d+)", out).group(1))


def test_compute_w1(capsys):
    assert main(["compute", "W", "1", "--digits", "7"]) == 0
    out = capsys.readouterr().out
    assert "W(1) = 0.3349813" in out
    assert "method: moebius-inversion" in out
    assert "rigorous: yes" in out


def test_compute_beta3(capsys):
    assert main(["compute", "beta", "3", "--digits", "7"]) == 0
    out = capsys.readouterr().out
    assert "beta(3) = 0.9689461" in out
    assert "method: closed-form" in out


def test_compute_w13(capsys):
    assert main(["compute", "W", "13"]) == 0
    out = capsys.readouterr().out
    assert "W(13) = 0.0000006" in out
    assert "method: moebius-inversion" in out


def test_compute_w3_euler_comma(capsys):
    assert main(["compute", "W", "3", "--digits", "7",
                 "--decimal-style", "euler-comma"]) == 0
    assert "W(3) = 0,0322525" in capsys.readouterr().out


def test_compute_uncertifiable_exits_nonzero(capsys):
    # Past the precision cap the refusal names the most digits compute
    # accepts, before any work; --primes is accepted and not read.
    for digits in ("981", "5000", str(10 ** 40)):
        assert main(["compute", "W", "3", "--digits", digits, "--primes", "50"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot certify W(3) to {digits} digits; "
            "the L-value inversion certifies at most 980 digits\n")
    assert main(["compute", "beta", "3", "--digits", "5000"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot certify beta(3) to 5000 digits; "
        "the closed form certifies at most 981 digits\n")
    assert main(["compute", "W", "3", "--digits", "25", "--primes", "50"]) == 0
    assert _certified_digits(capsys.readouterr().out) >= 25


def test_compute_rejects_even_exponent(capsys):
    assert main(["compute", "W", "4"]) == 2
    assert main(["compute", "beta", "2"]) == 2


def test_guard_digit_validation(capsys):
    # 45 digits need 55 working digits; the library raises the default 50
    # itself.
    assert main(["compute", "W", "3", "--digits", "45"]) == 0
    assert _certified_digits(capsys.readouterr().out) >= 45


@pytest.mark.parametrize("args", [
    ("compute", "W", "13", "--digits", "60"),
    ("compute", "beta", "15", "--digits", "45"),
    ("compute", "W", "1", "--digits", "16"),
    ("scan", "--max-den", "50", "--tol", "1e-12"),
])
def test_certifies_at_default_settings(capsys, args):
    # Each exited 2 while --working-digits and --max-k had to be raised by hand.
    assert main(list(args)) == 0
    out = capsys.readouterr().out
    if args[0] == "compute":
        assert _certified_digits(out) >= int(args[-1])


def test_compute_w1_at_default_depth(capsys):
    for digits in (15, 17, 39):
        assert main(["compute", "W", "1", "--digits", str(digits)]) == 0
        out = capsys.readouterr().out
        shown = Decimal(out.split("W(1) = ")[1].split()[0])
        assert abs(shown - W1_REFERENCE) < Decimal(1).scaleb(-digits)
        assert "rigorous: yes" in out
        assert _certified_digits(out) >= digits
    # Past the precision cap W(1) is refused in its own terms, before any work.
    assert main(["compute", "W", "1", "--digits", "990"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot certify W(1) to 990 digits; "
        "the L-value inversion certifies at most 980 digits\n")


def test_reproduce_is_identical_within_one_process(capsys, monkeypatch):
    # The constant memo lives as long as the process: a cold run, and runs
    # after one at another working precision, must print the same bytes.
    monkeypatch.delenv("CHARPRIME_WORKING_DIGITS", raising=False)
    golden = (Path(__file__).resolve().parent.parent / "bench" / "golden"
              / "tables.json").read_text()
    argv = ["reproduce", "--table", "all", "--format", "json"]
    charprime.arith._series_constant.cache_clear()
    outs = []
    for extra in ([], ["--working-digits", "60"], [], []):
        assert main(argv + extra) == 0
        out = capsys.readouterr().out
        if not extra:
            outs.append(out)
    assert outs == [golden] * 3


def test_certified_digits_past_two_hundred(capsys):
    assert main(["compute", "beta", "15", "--digits", "250"]) == 0
    assert _certified_digits(capsys.readouterr().out) >= 250


def test_reproduce_single_table_exit_zero():
    proc = run_cli("reproduce", "--table", "s13")
    assert proc.returncode == 0
    assert "erratum" in proc.stdout


def test_reproduce_all_json_deterministic():
    a = run_cli("reproduce", "--table", "all", "--format", "json")
    b = run_cli("reproduce", "--table", "all", "--format", "json")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert [t["table_id"] for t in payload] == ["s12", "s13", "s21", "s23_26", "s28"]


def test_reproduce_csv(capsys):
    assert main(["reproduce", "--table", "s21", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("label,printed,recomputed,delta,verdict")


def test_reproduce_at_high_working_digits():
    # The tables take ln 2 at working digits - 5; this failed from 448 up.
    assert main(["reproduce", "--working-digits", "460"]) == 0


def test_env_var_sets_working_digits():
    at_25 = run_cli("compute", "beta", "3", "--digits", "12",
                    env_extra={"CHARPRIME_WORKING_DIGITS": "25"})
    assert at_25.returncode == 0
    # 20 is below digits + 10; the library raises it, with the same output.
    at_20 = run_cli("compute", "beta", "3", "--digits", "12",
                    env_extra={"CHARPRIME_WORKING_DIGITS": "20"})
    assert at_20.returncode == 0
    assert at_20.stdout == at_25.stdout
    proc = run_cli("compute", "beta", "3", "--digits", "12",
                   env_extra={"CHARPRIME_WORKING_DIGITS": "twenty"})
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: invalid CHARPRIME_WORKING_DIGITS")


def test_cli_flag_overrides_env():
    proc = run_cli("reproduce", "--table", "s12", "--format", "json",
                   "--working-digits", "30",
                   env_extra={"CHARPRIME_WORKING_DIGITS": "20"})
    assert proc.returncode == 0
    assert '"working_digits": 30' in proc.stdout


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "error-bound-soundness: PASS" in out
    assert "verify: all groups pass" in out


def test_verify_small_working_digits(capsys):
    assert main(["verify", "--working-digits", "15"]) == 0
    assert "all groups pass" in capsys.readouterr().out


def test_verify_shallow_primes(capsys):
    assert main(["verify", "--primes", "1"]) == 0
    out = capsys.readouterr().out
    assert "sieved-tail-oracle: PASS" in out


def test_verify_json(capsys):
    assert main(["verify", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert {g["group"] for g in payload["groups"]} >= {
        "error-bound-soundness", "character-multiplicativity", "master-identity"}


def test_scan_default_value_finds_nothing(capsys):
    assert main(["scan"]) == 0
    assert "no candidate found" in capsys.readouterr().out


def test_scan_constructed_value(capsys):
    # ln(pi) - ln(2) to 20 places.
    assert main(["scan", "--value", "0.45158270528945486473",
                 "--max-den", "10", "--tol", "1e-9"]) == 0
    out = capsys.readouterr().out
    assert "N = 2/1" in out


def test_scan_bad_tol(capsys):
    proc = run_cli("scan", "--tol", "nope")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: invalid --tol")


@pytest.mark.parametrize("args", [("reproduce",), ("compute", "W", "3"), ("verify",)])
def test_closed_stdout_pipe_ends_quietly(args):
    env = dict(os.environ)
    env.pop("CHARPRIME_WORKING_DIGITS", None)
    proc = subprocess.Popen(CLI + list(args), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait()
    assert "Traceback" not in err
    assert proc.returncode == 1


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_usage_error_on_missing_command():
    proc = run_cli()
    assert proc.returncode == 2


def test_readme_library_surface_is_exported():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library surface", 1)[1]
    block = re.search(r"from charprime import \((.*?)\)", section, re.S).group(1)
    names = [name.strip() for line in block.splitlines()
             for name in line.split("#")[0].split(",") if name.strip()]
    assert names
    assert [n for n in names if n not in charprime.__all__] == []
