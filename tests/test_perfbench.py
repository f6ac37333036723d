"""The benchmark in perfbench/ must keep tracing the package it measures.

perfbench/run.py reads its per-layer metrics from spans named
<module>.<function>, and perfbench/trace_cli.py refuses to run when a traced
function also sits in a module-level container or a default argument.  Both
break silently when the package changes, so tier-1 checks them, and pins
the call counts of one traced verify run.  Nothing
under perfbench/ is written: bytecode caching is off while it is imported.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def load_bench_run():
    """perfbench/run.py as a module, imported with perfbench/ on sys.path."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look themselves up
        spec.loader.exec_module(module)
        return module
    finally:
        sys.modules.pop("perfbench_run", None)
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def test_spans_name_public_functions():
    spans = load_bench_run().SPANS
    missing = []
    for label in (name for names in spans.values() for name in names):
        short, func = label.split(".")
        module = importlib.import_module(f"zkconst.{short}")
        fn = getattr(module, func, None)
        if func.startswith("_") or not (
            inspect.isfunction(fn) and fn.__module__ == module.__name__
        ):
            missing.append(label)
    assert not missing, f"perfbench spans name no public function: {missing}"


def run_trace_cli(*args):
    """(exit code, the perfbench-trace record or None, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "trace_cli.py"), *args],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
    )
    records = [
        json.loads(line[len("perfbench-trace "):])
        for line in proc.stderr.splitlines()
        if line.startswith("perfbench-trace ")
    ]
    return proc.returncode, (records[-1] if records else None), proc.stderr


def test_trace_cli_runs():
    code, record, stderr = run_trace_cli(
        "table", "--seq", "zeta0", "--max-n", "3", "--digits", "10"
    )
    assert code == 0, stderr
    assert record is not None, stderr


# (calls, total length of returned lists) of every traced function in
# `verify --suite all --digits 10`.  A route that escapes the tracer (held
# in a nested container, say) or runs a different number of times changes
# this table.  binomial_alternating_transform is called 63 times, returning
# 366 entries: 252 in eq-3.27-involution, 13 each in the lambda table and
# g_derivs_at_one, and 88 in the 3.13 residuals, one per n; substitute and
# bell_determinant once per seeded trial of bell-routes-exact-n1..n8
# (8 x 100); bracket_determinant
# once per trial of bell-scaled-determinant-n1..n6 (6 x 20), since
# bell_determinant runs the shared integer elimination itself;
# bell_recurrence_value once per route trial, once per scaled-determinant
# trial, once per convolution trial (its x + y side), once per
# bell-exp-derivative report (10) and once per Gamma^(m)(1), m >= 1 (13);
# bell_recurrence_values once inside each bell_recurrence_value call, twice
# per convolution trial (x and y, 6 x 20) and once per xi, gamma-from-eta
# and log-chain table (gamma-from-eta maps all of eta_0..eta_12, 14 Bell
# values); require once per step map and route, twice in the residual.
# Every route maps the whole table it reads, so each runs once, and
# g_derivs_at_one, g_derivs_at_one_via_eta, L_derivs_at_zero and the
# residual return lists: g^(0..11)(1) twice, L^(1..8)(0) and L^(1..9)(0), and
# the residuals at n = 0..10.
# Every table is built once per process (above gamma, chain.table keeps the
# longest one per family and context and serves shorter requests as its
# prefix; a gamma table is a prefix of the gamma row, the one memo of gamma),
# and log 2, log pi, log(2 pi) and the Apostol weights are memoised, so the
# rows marked "memo" count only first builds: the eta
# suite's eta table to 12 and the lambda suite's sigma and lambda tables to
# 12 serve every other request for them, and each of the five gamma requests
# (three suites', eta's and zeta0's) is one stieltjes_table call, which makes
# one stieltjes_gamma call to fill the row to its max_n.  Gamma^(m)(1) is not memoised: the
# Apostol weights read m = 0..10 once, and the three gamma-deriv-at-one-m*
# reports recompute m = 1..3, each with one gamma_0 read, one Bell value and
# m - 1 zeta reads: 3 stieltjes_gamma, bell_recurrence_value and
# bell_recurrence_values calls, 9 returned Bell entries and 3 zeta_int_mpf
# calls of the counts below.  psi^(n)(3/2) is not memoised either: each of
# the three maps that read it reads each order once, psi^(1..11) in
# lambda_via_eta_psi and psi^(0..11) in g_derivs_at_one_via_eta and the
# residual, and psi(3/2) reads gamma_0 each time.  pi and the logs come
# from one memo per dps, kernel.atoms, an lru_cache that the tracer does not
# wrap, so no row counts them.
VERIFY_ALL_10_COUNTS = {
    "bell.bell_determinant": (800, 0),
    "bell.bell_recurrence_value": (1063, 0),
    "bell.bell_recurrence_values": (1306, 6710),
    "bell.bell_symbolic": (23, 0),
    "bell.bracket_determinant": (120, 0),
    "bell.substitute": (800, 0),
    "cli.main": (1, 0),
    "eta_sigma.eta_from_gamma": (1, 0),  # memo: was 7, one per eta request
    "eta_sigma.eta_from_gamma_coffey": (1, 0),
    "eta_sigma.gamma_from_eta": (1, 0),
    "eta_sigma.sigma_table": (1, 0),  # memo: was 4, the xi suite's three are prefixes
    "kernel.polygamma_three_halves_mpf": (35, 0),
    "kernel.zeta_int_mpf": (176, 0),  # memo
    "li_keiper.binomial_alternating_transform": (63, 366),
    "li_keiper.g_derivs_at_one": (1, 12),
    "li_keiper.g_derivs_at_one_via_eta": (1, 12),
    "li_keiper.lambda2_bounds": (1, 2),  # the xi suite's eq-3.17 and eq-3.18
    "li_keiper.lambda_closed": (1, 0),
    "li_keiper.lambda_table": (1, 0),  # memo: was 2, the xi suite's is a prefix
    "li_keiper.lambda_via_coffey": (1, 0),
    "li_keiper.lambda_via_eta_psi": (1, 0),
    "li_keiper.recurrence_residual_3_13": (1, 11),
    "reports.all_passed": (1, 0),
    "reports.default_tol": (1, 0),  # one per run
    "reports.equality_report": (137, 0),
    "reports.equality_reports": (14, 125),
    "reports.exact_report": (57, 0),
    "reports.inequality_report": (29, 0),
    "reports.inequality_reports": (2, 24),
    "reports.roundtrip_decimal": (446, 0),  # both sides of each of the 223 reports
    "stieltjes.require": (20, 0),  # memo: one per step map and route, and lambda2_bounds
    # 3 per report (sides, tolerance), and one per u that is not a str:
    # each stieltjes_gamma call and each stieltjes_table's own read
    "stieltjes.rounded": (708, 0),
    "stieltjes.stieltjes_gamma": (34, 0),  # memo
    "stieltjes.stieltjes_table": (5, 0),  # one per gamma request
    # one per report verdict (223), default_tol (1), step map (8; sigma_table
    # takes two precisions), lambda_closed (1), lambda route (4 maps and the
    # residual's 11 indices) and psi^(n)(3/2) (35).  zeta_derivs takes 20: 13
    # Gamma^(m)(1) at m >= 1, 2 L-derivative maps, the Apostol weights, both
    # zeta0 tables and 2 forward maps; verify 4: one per side block;
    # lambda2_bounds 1; and one per u that rounded reads (39)
    "stieltjes.workdps": (347, 0),
    "stieltjes.decimal_str": (892, 0),  # 4 per report (sides, abs_err, tolerance)
    "verify.run_suite": (1, 223),
    "verify.suite_bell": (1, 45),
    "verify.suite_eta": (1, 39),
    "verify.suite_lambda": (1, 67),
    "verify.suite_stieltjes": (1, 7),
    "verify.suite_xi": (1, 31),
    "verify.suite_zeta_derivs": (1, 34),
    "xi.xi_deriv_recurrence": (1, 0),
    "xi.xi_table": (1, 0),
    "zeta_derivs.L_derivs_at_zero": (2, 17),
    "zeta_derivs.gamma_derivs_at_one_mpf": (14, 0),  # the weights to the cap, 3 closed forms
    "zeta_derivs.gamma_from_zeta_derivs": (2, 0),
    "zeta_derivs.zeta_derivs_at_zero": (1, 0),
    "zeta_derivs.zeta_derivs_log_chain": (1, 0),
}


def test_trace_counts_of_verify_all():
    code, record, stderr = run_trace_cli("verify", "--suite", "all", "--digits", "10")
    assert code == 0, stderr
    assert record is not None, stderr
    counts = {label: (stat["calls"], stat["items"]) for label, stat in record.items()}
    assert counts == VERIFY_ALL_10_COUNTS
