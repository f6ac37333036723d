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
# this table.  binomial_alternating_transform is called 73 times, returning
# 441 entries: 252 in eq-3.27-involution, the rest in the lambda table,
# g_derivs_at_one and the 3.13 residuals; substitute and bell_determinant once
# per seeded trial of bell-routes-exact-n1..n8 (8 x 100); bracket_determinant
# once per trial of bell-scaled-determinant-n1..n6 (6 x 20), since
# bell_determinant runs the shared integer elimination itself;
# bell_recurrence_value once per route trial, once per scaled-determinant
# trial, once per convolution trial (its x + y side), once per
# bell-exp-derivative report (10) and once per Gamma^(m)(1), m >= 1 (13);
# bell_recurrence_values once inside each bell_recurrence_value call, twice
# per convolution trial (x and y, 6 x 20) and once per xi, gamma-from-eta
# and log-chain table (gamma-from-eta maps all of eta_0..eta_12, 14 Bell
# values); require once per step map and per-index route call.
# Every table is built once per process (chain.table keeps the longest one per
# family and context and serves shorter requests as its prefix), and
# psi^(n)(3/2), log 2, log pi, log(2 pi) and the Apostol weights are memoised,
# so the rows marked "memo" count only first builds: the eta suite's gamma
# and eta tables to 12 and the lambda suite's sigma and lambda tables to 12
# serve every other request for them.  Gamma^(m)(1) is not memoised: the
# Apostol weights read m = 0..10 once, and the three gamma-deriv-at-one-m*
# reports recompute m = 1..3, each with one gamma_0 read, one Bell value and
# m - 1 zeta reads: 3 stieltjes_gamma, bell_recurrence_value and
# bell_recurrence_values calls, 9 returned Bell entries and 3 zeta_int_mpf
# calls of the counts below.  pi and the logs come from one memo per dps,
# kernel.atoms, an lru_cache that the tracer does not wrap, so no row counts
# them.
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
    "kernel.polygamma_three_halves_mpf": (154, 0),
    "kernel.zeta_int_mpf": (148, 0),  # memo
    "li_keiper.binomial_alternating_transform": (73, 441),  # memo
    "li_keiper.g_derivs_at_one": (11, 0),
    "li_keiper.g_derivs_at_one_via_eta": (11, 0),
    "li_keiper.lambda_closed": (1, 0),
    "li_keiper.lambda_table": (1, 0),  # memo: was 2, the xi suite's is a prefix
    "li_keiper.lambda_via_coffey": (11, 0),
    "li_keiper.lambda_via_eta_psi": (11, 0),
    "li_keiper.recurrence_residual_3_13": (11, 0),
    "reports.all_passed": (1, 0),
    "reports.default_tol": (11, 0),
    "reports.equality_report": (138, 0),
    "reports.equality_reports": (14, 125),
    "reports.exact_report": (56, 0),
    "reports.inequality_report": (29, 0),
    "reports.inequality_reports": (2, 24),
    "reports.roundtrip_decimal": (446, 0),  # both sides of each of the 223 reports
    "stieltjes.require": (99, 0),  # memo: one per step map
    # 3 per report (sides, tolerance), and one per u that is not a str:
    # each stieltjes_gamma call and stieltjes_table's own read
    "stieltjes.rounded": (711, 0),
    "stieltjes.stieltjes_gamma": (41, 0),  # memo
    "stieltjes.stieltjes_table": (1, 0),  # memo: was 11, one per gamma request
    # one per report verdict (223), default_tol (11), step map, route and
    # first psi^(n)(3/2) (12); sigma_table takes two precisions.  zeta_derivs
    # takes 41: 13 Gamma^(m)(1) at m >= 1, 9 L derivatives, the Apostol
    # weights, both zeta0 tables and 16 forward evaluations; verify 6: one
    # per side block; and one per u that rounded reads (42)
    "stieltjes.workdps": (399, 0),
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
    "zeta_derivs.L_derivs_at_zero": (9, 0),
    "zeta_derivs.gamma_derivs_at_one_mpf": (14, 0),  # the weights to the cap, 3 closed forms
    "zeta_derivs.gamma_from_zeta_derivs": (16, 0),
    "zeta_derivs.zeta_derivs_at_zero": (1, 0),
    "zeta_derivs.zeta_derivs_log_chain": (1, 0),
}


def test_trace_counts_of_verify_all():
    code, record, stderr = run_trace_cli("verify", "--suite", "all", "--digits", "10")
    assert code == 0, stderr
    assert record is not None, stderr
    counts = {label: (stat["calls"], stat["items"]) for label, stat in record.items()}
    assert counts == VERIFY_ALL_10_COUNTS
