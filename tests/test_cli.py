import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from oracles import FROZEN


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "zkconst", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestTableCommand:
    def test_lambda_table_first_row_prefix(self):
        out = run_cli("table", "--seq", "lambda", "--max-n", "2", "--digits", "30")
        assert out.returncode == 0
        first = out.stdout.splitlines()[0].split()
        assert first[0] == "1"
        assert first[1].startswith("0.023")

    def test_gamma_single_entry(self):
        out = run_cli("table", "--seq", "gamma", "--max-n", "0")
        assert out.returncode == 0
        lines = out.stdout.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split()[1].startswith("0.5772156649")

    def test_zeta0_first_derivative(self):
        out = run_cli(
            "table", "--seq", "zeta0", "--max-n", "1", "--format", "json"
        )
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        with mp.workdps(50):
            got = mpf(payload["rows"][1]["value"])
            assert abs(got - mpf(FROZEN["zeta_deriv1_at_0"])) < mpf("1e-29")

    def test_csv_header_contract(self):
        out = run_cli("table", "--seq", "eta", "--max-n", "2", "--format", "csv")
        assert out.returncode == 0
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "n,value,method"
        assert len(lines) == 4
        assert lines[1].split(",")[2] == "recurrence-4.4"

    def test_json_shape(self):
        out = run_cli("table", "--seq", "sigma", "--max-n", "3", "--format", "json")
        payload = json.loads(out.stdout)
        assert set(payload.keys()) == {"seq", "digits", "rows"}
        assert payload["seq"] == "sigma"
        assert payload["digits"] == 30
        for row in payload["rows"]:
            assert set(row.keys()) == {"n", "value", "method"}
            assert isinstance(row["value"], str)

    def test_gamma_with_u(self):
        out = run_cli(
            "table", "--seq", "gamma", "--max-n", "0", "--u", "2",
            "--format", "json",
        )
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        with mp.workdps(50):
            got = mpf(payload["rows"][0]["value"])
            assert abs(got - mpf(FROZEN["gamma_0_at_2"])) < mpf("1e-29")

    def test_u_only_with_gamma(self):
        # refused as misplaced before it is parsed, even when unparsable
        for u in ("2", "abc"):
            out = run_cli("table", "--seq", "eta", "--max-n", "2", "--u", u)
            assert out.returncode == 2
            assert out.stderr == "error: --u is only meaningful with --seq gamma\n"

    def test_cap_exceeded(self):
        out = run_cli("table", "--seq", "gamma", "--max-n", "25")
        assert out.returncode == 2
        out = run_cli("table", "--seq", "zeta0", "--max-n", "11")
        assert out.returncode == 2
        out = run_cli("table", "--seq", "xi1", "--max-n", "13")
        assert out.returncode == 2
        for seq, start in (("eta", 0), ("sigma", 1), ("lambda", 1)):
            out = run_cli("table", "--seq", seq, "--max-n", "21")
            assert out.returncode == 2
            assert f"--max-n for {seq} must lie in [{start}, 20]" in out.stderr

    def test_digits_out_of_range(self):
        out = run_cli("table", "--seq", "gamma", "--max-n", "0", "--digits", "5")
        assert out.returncode == 2
        out = run_cli("table", "--seq", "gamma", "--max-n", "0", "--digits", "65")
        assert out.returncode == 2
        for digits in ("9", "61"):
            out = run_cli("table", "--seq", "gamma", "--max-n", "0", "--digits", digits)
            assert out.returncode == 2

    def test_bad_u_value(self):
        out = run_cli("table", "--seq", "gamma", "--max-n", "0", "--u", "-1")
        assert out.returncode == 2

    def test_determinism_byte_identical(self):
        args = ("table", "--seq", "sigma", "--max-n", "3", "--format", "json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


def table_usage(u_raw):
    """(exit code, stderr) of `table --seq gamma --max-n 0 --u=<u_raw>`, in
    process; the = form keeps argparse from reading a leading '-' as an
    option."""
    from zkconst import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return cli.main(["table", "--seq", "gamma", "--max-n", "0", f"--u={u_raw}"]), err.getvalue()


# positive finite decimals in the forms a user types: 12, 0.5, .5, 5., 1e-7,
# 3.25E+12, with a leading + or not
POSITIVE_DECIMALS = st.builds(
    lambda sign, whole, frac, exp: f"{sign}{whole}{frac}{exp}",
    st.sampled_from(["", "+"]),
    st.integers(0, 10**12).map(str) | st.just(""),
    st.integers(0, 10**12).map(lambda f: f".{f}") | st.sampled_from(["", "."]),
    st.integers(-400, 400).map(lambda e: f"e{e}") | st.sampled_from(["", "E+12"]),
).filter(lambda raw: any(c in "123456789" for c in raw.split("e")[0].split("E")[0]))
ZEROS = st.builds(lambda sign, zeros, exp: f"{sign}{zeros}{exp}",
                  st.sampled_from(["", "+", "-"]),
                  st.sampled_from(["0", "00", "0.0", ".0", "0.", "0.000"]),
                  st.sampled_from(["", "e5", "E-300"]))
NEGATIVES = POSITIVE_DECIMALS.map(lambda raw: "-" + raw.lstrip("+"))
NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "+inf", "-inf", "INF", "Inf"])
# a character no float literal holds, among digits, or a malformed literal;
# "1/0" is a ratio that mpmath reads as a division by zero
UNPARSEABLE = st.builds(
    lambda head, junk, tail: head + junk + tail,
    st.text("0123456789.", max_size=4),
    st.sampled_from(list("x#,;@%")),
    st.text("0123456789", max_size=4),
) | st.sampled_from(["", " ", "1e", "e5", "--1", "1.2.3", "0x10", "1e5/3", "1/0", "0/0"])


class TestParseU:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(raw=POSITIVE_DECIMALS)
    def test_positive_finite_decimals_parse(self, raw, ctx30):
        # read once, at the gamma row's precision, for the CLI and the library
        from zkconst import stieltjes
        from zkconst.precision import FAMILIES

        u = stieltjes._row_u(raw, ctx30)
        exact = Fraction(raw.lstrip("+"))
        row_dps = ctx30.dps("gamma", FAMILIES["gamma"][1])
        assert mp.isfinite(u) and u.man > 0
        with mp.workdps(row_dps + 20):
            want = mpf(exact.numerator) / exact.denominator
            assert abs(u - want) <= want * mpf(10) ** -row_dps

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(ZEROS | NEGATIVES | NON_FINITE | UNPARSEABLE)
    def test_every_other_value_exits_2(self, raw):
        from zkconst.cli import EXIT_USAGE

        assert table_usage(raw)[0] == EXIT_USAGE

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(raw=ZEROS | NEGATIVES | NON_FINITE | UNPARSEABLE)
    def test_the_library_refuses_it_with_the_clis_message(self, raw, ctx30):
        # a ValueError, never a ZeroDivisionError or a float() message
        from zkconst import stieltjes

        stderr = table_usage(raw)[1]
        assert stderr.startswith("error: ") and stderr.endswith("\n")
        for call in (lambda: stieltjes.stieltjes_gamma(0, raw, ctx30),
                     lambda: stieltjes.stieltjes_table(1, ctx30, u=raw)):
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == stderr[len("error: "):-1]

    @pytest.mark.parametrize("raw", ["-1", "0", "inf", "nan"])
    def test_one_message_for_the_cli_and_the_library(self, raw, ctx30):
        from zkconst import stieltjes

        assert table_usage(raw)[1] == "error: --u must be a finite real > 0\n"
        with pytest.raises(ValueError) as called:
            stieltjes.stieltjes_gamma(0, raw, ctx30)
        assert str(called.value) == "--u must be a finite real > 0"


@pytest.mark.parametrize("digits", ["10", "30", "60"])
@pytest.mark.parametrize("raw", ["0.1", "2.5e-20", "1/3", "1e401"])
def test_the_cli_and_the_library_share_one_gamma_row(raw, digits):
    from memos import clear_package_memos
    from zkconst import chain, cli, stieltjes
    from zkconst.precision import PrecisionContext

    clear_package_memos()
    ctx = PrecisionContext(digits=int(digits))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["table", "--seq", "gamma", "--max-n", "20", "--u", raw,
                         "--digits", digits]) == 0
    called = stieltjes.stieltjes_table(20, ctx, u=raw)
    assert stieltjes._gamma_row.cache_info().currsize == 1
    assert chain.table("gamma", 20, ctx, u=raw).values == called.values


class TestVerifyCommand:
    def test_bell_suite_passes(self):
        out = run_cli("verify", "--suite", "bell")
        assert out.returncode == 0
        assert "FAIL" not in out.stdout

    def test_digits_below_minimum(self):
        out = run_cli("verify", "--suite", "all", "--digits", "5")
        assert out.returncode == 2

    def test_unknown_suite(self):
        out = run_cli("verify", "--suite", "nonsense")
        assert out.returncode == 2

    def test_suite_names_are_the_runners(self):
        # --help reads the names from precision, so that it need not execute verify
        from zkconst import precision, verify

        assert precision.SUITES == ("all", *verify._SUITE_RUNNERS)

    def test_json_reports_contract(self):
        out = run_cli(
            "verify", "--suite", "stieltjes", "--format", "json", "--digits", "20"
        )
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert set(payload.keys()) == {"suite", "digits", "reports"}
        assert payload["suite"] == "stieltjes"
        with mp.workdps(60):
            for report in payload["reports"]:
                assert set(report.keys()) == {
                    "identity", "lhs", "rhs", "abs_err", "tol", "pass",
                    "method_tags",
                }
                assert isinstance(report["pass"], bool)
                # pass <=> abs_err <= tol, judged on the emitted decimals
                assert report["pass"] == (mpf(report["abs_err"]) <= mpf(report["tol"]))
                assert report["method_tags"]

    def test_custom_tol_exp(self):
        out = run_cli("verify", "--suite", "stieltjes", "--tol-exp", "10")
        assert out.returncode == 0

    @pytest.mark.parametrize("tol_exp", ["-5", "0", "31"])
    def test_tol_exp_out_of_range(self, tol_exp):
        # 1e5 would pass vacuously, and no check can meet 10^-(digits+1)
        out = run_cli(
            "verify", "--suite", "bell", "--digits", "30", "--tol-exp", tol_exp
        )
        assert out.returncode == 2
        assert "--tol-exp must lie in [1, 30]" in out.stderr
        assert out.stdout == ""


class TestLiCheckCommand:
    def test_single_lambda(self):
        out = run_cli("li-check", "--max-n", "1")
        assert out.returncode == 0
        assert "li-positivity-n1" in out.stdout

    def test_includes_lambda3_verdict(self):
        out = run_cli("li-check", "--max-n", "3")
        assert out.returncode == 0
        assert "li-lambda3-positive" in out.stdout
        for line in out.stdout.splitlines():
            if "li-lambda3-positive" in line:
                assert line.startswith("pass")

    def test_cap(self):
        out = run_cli("li-check", "--max-n", "21")
        assert out.returncode == 2
        assert "[1, 20]" in out.stderr

    def test_json_format(self):
        out = run_cli("li-check", "--max-n", "2", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["suite"] == "li-check"
        assert all(r["pass"] for r in payload["reports"])


class TestExitCodeWiring:
    """In-process checks of the error-to-exit-code mapping."""

    def test_convergence_error_maps_to_3(self, monkeypatch, capsys):
        from zkconst import chain, cli
        from zkconst.precision import ConvergenceError

        def explode(seq, max_n, ctx, u=None):
            raise ConvergenceError("stalled", partial=None, index=4)

        monkeypatch.setattr(chain, "table", explode)
        rc = cli.main(["table", "--seq", "gamma", "--max-n", "3"])
        assert rc == 3
        assert "index 4" in capsys.readouterr().err

    @pytest.mark.parametrize("u, shifted", [("0.123456789", "47.123457"),
                                            ("123456.789", "123456.79")])
    def test_short_gamma_row_exits_3_with_u_to_8_digits(self, u, shifted, monkeypatch, capsys):
        # a row too short to converge: the message names the shifted argument
        # U = u + shift, written to 8 digits (47 = ceil(20 ln 10) at 10
        # digits; 123456.789 is past it), and the index where the sum stopped
        from zkconst import cli, stieltjes

        monkeypatch.setattr(stieltjes, "_series_length", lambda *args: 3)
        rc = cli.main(["table", "--seq", "gamma", "--max-n", "2", "--u", u, "--digits", "10"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"convergence failure at index 3: gamma_0({shifted}) "
                                "did not converge within 3 outer terms\n")

    def test_internal_error_maps_to_4(self, monkeypatch, capsys):
        # exit 1 means "a verification failed"; a crash must not look like one
        from zkconst import chain, cli

        def crash(seq, max_n, ctx, u=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(chain, "table", crash)
        rc = cli.main(["table", "--seq", "gamma", "--max-n", "3"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: boom\n"

    def test_failing_suite_maps_to_1(self, monkeypatch, capsys):
        from zkconst import cli, verify
        from zkconst.precision import PrecisionContext
        from zkconst.reports import equality_report

        ctx = PrecisionContext(digits=30)
        failing = [equality_report("forced-failure", 0, 1, mpf("1e-30"), ctx)]
        monkeypatch.setattr(verify, "run_suite", lambda s, c, t: failing)
        rc = cli.main(["verify", "--suite", "bell"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        "table --seq gamma --max-n 2 --u 1e-100000000 --format json",
        "verify --suite xi --digits 10",
        "li-check --max-n 3 --digits 10",
    ])
    def test_closed_stdout_keeps_the_exit_status(self, command):
        # the read end is closed before the child starts, so its first write
        # meets a pipe without a reader
        read, write = os.pipe()
        os.close(read)
        try:
            out = subprocess.run([sys.executable, "-m", "zkconst", *command.split()],
                                 stdout=write, stderr=subprocess.PIPE, text=True, timeout=600)
        finally:
            os.close(write)
        assert (out.returncode, out.stderr) == (0, "")

    def test_closed_stdout_keeps_a_failing_verdict(self, monkeypatch, tmp_path):
        from zkconst import cli, verify
        from zkconst.precision import PrecisionContext
        from zkconst.reports import equality_report

        class ClosedPipe:
            """A stdout whose reader has gone, on a file descriptor of its own."""

            def __init__(self, path):
                self.fd = os.open(path, os.O_WRONLY | os.O_CREAT)

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        ctx = PrecisionContext(digits=30)
        failing = [equality_report("forced-failure", 0, 1, mpf("1e-30"), ctx)]
        monkeypatch.setattr(verify, "run_suite", lambda s, c, t: failing)
        stdout = ClosedPipe(tmp_path / "stdout")
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert cli.main(["verify", "--suite", "bell"]) == cli.EXIT_VERIFY_FAILED
            # the descriptor now writes to devnull
            os.write(stdout.fd, b"lost")
        finally:
            os.close(stdout.fd)
        assert (tmp_path / "stdout").read_bytes() == b""

    def test_verify_suite_determinism(self):
        args = ("verify", "--suite", "stieltjes", "--digits", "20",
                "--format", "json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout


# runs zkconst as `python -m zkconst` runs it, and reports the frozen heap
# from an atexit hook, which runs after the entry has returned or raised
_FREEZE_COUNT_AT_EXIT = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"frozen {gc.get_freeze_count()}", file=sys.stderr))
runpy.run_module("zkconst", run_name="__main__", alter_sys=True)
"""


class TestExitPath:
    @pytest.mark.parametrize("command, status", [
        ("table --seq gamma --max-n 3", 0),
        ("verify --suite xi --digits 10", 0),
        ("--help", 0),
        ("table --seq nope --max-n 1", 2),
    ])
    def test_the_module_entry_freezes_the_heap_as_it_exits(self, command, status):
        out = subprocess.run([sys.executable, "-c", _FREEZE_COUNT_AT_EXIT, *command.split()],
                             capture_output=True, text=True, timeout=600)
        assert out.returncode == status, out.stderr
        last = out.stderr.splitlines()[-1]
        assert last.startswith("frozen ") and int(last.split()[1]) > 0, out.stderr

    def test_cli_main_leaves_the_heap_unfrozen(self, capsys):
        from zkconst import cli

        before = gc.get_freeze_count()
        assert cli.main(["table", "--seq", "gamma", "--max-n", "3"]) == 0
        assert gc.get_freeze_count() == before
        assert len(capsys.readouterr().out.splitlines()) == 4  # n = 0 .. 3


# sha256 of stdout for a fixed command set, each pinned from the code before
# the refactor that added it: a refactor is correct exactly when these stay
# byte-identical
# (the four `verify --suite all` digests at 10, 30, 60 and json were re-pinned
# when the even-n eta-sign-alternation and odd-n xi-reflection sides began to
# be negated exactly, no longer rounded to 53 bits; no verdict changed;
# they and `verify --suite lambda --digits 30 --tol-exp 30` were re-pinned
# again when the gamma series began summing in fixed-point integers: only
# the rounding-level eq-3.13-n3..n6 residuals and, at 30 digits, the 7th
# digit of eq-5.5-forward-n8's abs_err moved; those five and `li-check
# --max-n 20 --digits 30` were re-pinned once more when the mpf binomial
# transform began reading a difference diagonal: only the last digits of
# lambda-sigma-vs-*, eq-3.13-n5/n6, g-deriv-two-routes-r4..r8 and
# li-positivity-n16/n20 sides and abs_errs moved, and no verdict changed;
# twelve were re-pinned when the gamma row moved its shift to
# ceil(working_dps ln 10) and summed the shifted terms in its integers, and
# sigma_table gained its own budget row for its cancellation: the three
# sigma tables, whose sigma_13..sigma_20 moved closer to a wide-guard
# reference, each of them, and all nine verify and li-check digests, whose
# report sides moved by at most 1.4e-3 of 10^-(digits+5) relative; no
# report name, count or verdict changed; the four `verify --suite all`
# digests and `verify --suite lambda --digits 30 --tol-exp 30` were re-pinned
# when zeta(k) began summing exact integer weights in fixed point and
# coffey-3.34 took its constant 1 in place of a calibration: the abs_errs of
# gamma-deriv-at-one-m2, of m3 at 10 digits and of eq-5.3-vs-s4-zeta2deriv
# at 60 moved below 1e-27, the coffey-3.34 sides by 1e-10 of
# 10^-(digits+5), and coffey-3.34-calibrated-constant compares with 1
# under new method tags; no report name, count or verdict changed; the four
# `verify --suite all` digests were re-pinned when bell-exp-derivative-m*-x*
# became exact reports against the product rule: only those ten reports'
# sides, abs_err, tol and method tags moved; no report name, count or
# verdict changed; twelve were re-pinned when every gamma series began
# summing its whole row with exact weights: the three sigma tables, whose
# sigma_15..sigma_20 now print as under a 60-guard-digit reference, and nine
# verify and li-check digests, whose report sides moved by at most 5.2e-5 of
# 10^-(digits+5) relative; no report name, count or verdict changed; the
# five verify digests were re-pinned when the 16 reports that compared one
# expression with itself (lambda_1 by four routes that are one formula,
# g-deriv-two-routes-r0, the coffey-3.34 calibration and xi-reflection-n*)
# gave way to 19 on lambda_11, lambda_12 and xi^(9..12)(1): every other
# report line stayed byte-identical; the four `verify --suite all` digests
# were re-pinned when eq-3.20's lhs, sigma_1^2, began to be squared at the
# side precision, no longer at 53 bits: only that lhs moved, from its 16th
# significant digit on, and no report name, count or verdict changed; the
# six verify digests were re-pinned when every numeric identity began to be
# judged against the run's one tolerance and cos-weight-even-orders became
# an exact report: only tol fields moved, and no report name, count, side or
# verdict changed)
GOLDEN_STDOUT = {
    "verify --suite all --digits 10":
        "d24d2b28ea71fb6be932aef71f48a01092334b42c3061e2f839400b1074c48ec",
    "verify --suite all --digits 30":
        "414c7c8a8ab088b1edcf8aa1301610c345dc2c8c864b114f079d3b09a912ba41",
    "table --seq gamma --max-n 20 --digits 10":
        "39a847bc2f0379176161bb35f6311dfe89bd9eaa394b7e8da873b7d92166ee54",
    "table --seq eta --max-n 20 --digits 10":
        "7b228581c3e3f5a804a0455965a7a4240ddbc42936ae1dddabf4d7b3874f40af",
    "table --seq sigma --max-n 20 --digits 10":
        "8c7ff6cee520ea737ad91802f3303df4350d119b003b5357f579efc3771233fc",
    "table --seq lambda --max-n 20 --digits 10":
        "a611ee4024dca100246d7c73a23420876d6eb6e105ec38a261e77feb76e563fe",
    "table --seq xi1 --max-n 12 --digits 10":
        "91ddcb6053de1c38ad32697534853b6fab72160c53ad57f9018402e65d7f109d",
    "table --seq zeta0 --max-n 10 --digits 10":
        "3249bd5abd6eaaa819aa2b17bfc91d660f03514c3a898f41864b1bf13b3b2c46",
    "table --seq gamma --max-n 20 --u 0.001 --digits 10":
        "3674c647be139dab25236756cae7449427c8fb56aad2f4ff89aad3d02ac548bb",
    "li-check --max-n 20 --digits 10":
        "430fbf0249a0749d4b8ee140b9648c1b469552ae4eab72f89739e8f24e2588ec",
    "li-check --max-n 20 --digits 30":
        "915ba1ed32e7413d019ff50e56d81d46707cf0017f9ae622a2d58b3d745cfac2",
    "verify --suite all --digits 10 --format json":
        "0d49595fd3ec67137c48108ba65e1e7b04a5113190964d04740090a3f99e69a2",
    "li-check --max-n 20 --digits 10 --format json":
        "e402372c4c3a6a60d8c0ef3177f950199732de089f3b422a0523191d2c90a13b",
    "table --seq sigma --max-n 20 --digits 10 --format json":
        "5ed9187e964e29f7922a9e6d274a960b2960625e631ea69c6a02820f5178b9af",
    "table --seq gamma --max-n 5 --digits 10 --format csv":
        "a38d9328d269a1d9d0824ece92817a933e7a64bbe04991ffb27a4319b9d0ee7e",
    "table --seq zeta0 --max-n 10 --digits 60 --format json":
        "bde1101909b8b7e5c9605a30bd14cd7c80bbdf40d25e6dca16b1d3a6854214ec",
    "table --seq xi1 --max-n 12 --digits 60 --format csv":
        "38d186c58955d0f744f2b8e22ec052be40f17ec67f334259e4530f77ae45b3b0",
    # 220 reports: at 60 digits the escalation checks drop out
    "verify --suite all --digits 60":
        "0899d5acecf68285074f7d4f138b381e29353fa1cf47f33c9fe01a49eceea6d0",
    # the lambda suite judged at the tightest tolerance --tol-exp allows
    "verify --suite lambda --digits 30 --tol-exp 30":
        "67f2799ca5af20b65cbcbadb1ba4fb3653df538aa53e939bfc0eca6de703e715",
    # lambda and sigma at their caps to 60 digits, beyond the 10-digit pins
    "table --seq lambda --max-n 20 --digits 60":
        "46e8e19d5ee7aeb742aff7435bc2282abbfe4b565371de7f69c30a70428b40aa",
    "table --seq sigma --max-n 20 --digits 60 --format csv":
        "8c8e46e8f0b6b5628c87c8fd3bd6a29368ac2f886274982987563c2053d803d7",
    # gamma at 60/45/30 digits, at u = 1 and in three other shift regimes
    "table --seq gamma --max-n 20 --digits 60":
        "e22ed8380743dc64a8f4f4c8dce81b7e99b18f3245c1c0fe65a6564241c7cc7e",
    "table --seq gamma --max-n 20 --u 1e-20 --digits 60":
        "561e74fff8dbf55c223bda7ddde787b25112a273cacff59eb9b79723f98ca42f",
    "table --seq gamma --max-n 20 --u 2.5 --digits 45":
        "ede57af90a1b249317d7e380efcc3c0d94005db6c10710e5d64eab4c91012081",
    "table --seq gamma --max-n 20 --u 1e30 --digits 30":
        "d49f5858e625411355f7cf39186bf6a66035ed6e0d59be4d2225992dbbf328b7",
    # u = 2 has a row of its own, and the stieltjes suite at 45 digits runs
    # its escalated and guard-widened contexts in rows of their own
    "table --seq gamma --max-n 20 --u 2 --digits 30":
        "f36dd72de2f8936c3adc8e2ac7ff8a8cb8e5a6e34c538f6ac319e9ce6200d854",
    "verify --suite stieltjes --digits 45":
        "dbbb065831d200f3cc84a37a7679a6a07f71840313eb4f8664fae512c167bf0c",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(command, capsys):
    from zkconst import cli

    assert cli.main(command.split()) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_STDOUT[command]
