import hashlib
import json
import subprocess
import sys

import pytest
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
        out = run_cli("table", "--seq", "eta", "--max-n", "2", "--u", "2")
        assert out.returncode == 2

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
        from zkconst import cli
        from zkconst.precision import PrecisionContext
        from zkconst.reports import equality_report

        ctx = PrecisionContext(digits=30)
        failing = [equality_report("forced-failure", 0, 1, mpf("1e-30"), ctx)]
        monkeypatch.setattr(cli, "run_suite", lambda s, c, t: failing)
        rc = cli.main(["verify", "--suite", "bell"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_suite_determinism(self):
        args = ("verify", "--suite", "stieltjes", "--digits", "20",
                "--format", "json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout


# sha256 of stdout for a fixed command set, each pinned from the code before
# the refactor that added it: a refactor is correct exactly when these stay
# byte-identical
GOLDEN_STDOUT = {
    "verify --suite all --digits 10":
        "76784d938a2dfe372f686324e0f6724263afabafb5ef019728ae0acf099126f9",
    "verify --suite all --digits 30":
        "3bde71f040fcd27060cd2ac9a4c1e29f622789a61e12e550fb7cebbfeee23ac8",
    "table --seq gamma --max-n 20 --digits 10":
        "39a847bc2f0379176161bb35f6311dfe89bd9eaa394b7e8da873b7d92166ee54",
    "table --seq eta --max-n 20 --digits 10":
        "7b228581c3e3f5a804a0455965a7a4240ddbc42936ae1dddabf4d7b3874f40af",
    "table --seq sigma --max-n 20 --digits 10":
        "39bdab05b275aa0134a21c62072d46071d3a95150b91e22bcc95a4fd2e2fd253",
    "table --seq lambda --max-n 20 --digits 10":
        "a611ee4024dca100246d7c73a23420876d6eb6e105ec38a261e77feb76e563fe",
    "table --seq xi1 --max-n 12 --digits 10":
        "91ddcb6053de1c38ad32697534853b6fab72160c53ad57f9018402e65d7f109d",
    "table --seq zeta0 --max-n 10 --digits 10":
        "3249bd5abd6eaaa819aa2b17bfc91d660f03514c3a898f41864b1bf13b3b2c46",
    "table --seq gamma --max-n 20 --u 0.001 --digits 10":
        "3674c647be139dab25236756cae7449427c8fb56aad2f4ff89aad3d02ac548bb",
    "li-check --max-n 20 --digits 10":
        "9ca5c4169fe6567a826db9eb57c8f36464f50a55dec098e17483ae5141b522d2",
    "li-check --max-n 20 --digits 30":
        "a472267e90566a043a208c1ca4e6ff9a16aa752768ef3b549e4a5f6cc3f192df",
    "verify --suite all --digits 10 --format json":
        "78cb7c8d445a0f96d7a964e18a939d1c47517b32ed97dfa7ff214fb9b4035692",
    "li-check --max-n 20 --digits 10 --format json":
        "834cf41794a12c532442d13cc651a1e72c4993d4cb0efaeade07a91718095db6",
    "table --seq sigma --max-n 20 --digits 10 --format json":
        "e11fd6ced4a6a47aed97ae273438ee4c10d017c0ee77efbfb66de4b209d32dcd",
    "table --seq gamma --max-n 5 --digits 10 --format csv":
        "a38d9328d269a1d9d0824ece92817a933e7a64bbe04991ffb27a4319b9d0ee7e",
    "table --seq zeta0 --max-n 10 --digits 60 --format json":
        "bde1101909b8b7e5c9605a30bd14cd7c80bbdf40d25e6dca16b1d3a6854214ec",
    "table --seq xi1 --max-n 12 --digits 60 --format csv":
        "38d186c58955d0f744f2b8e22ec052be40f17ec67f334259e4530f77ae45b3b0",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(command, capsys):
    from zkconst import cli

    assert cli.main(command.split()) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_STDOUT[command]
