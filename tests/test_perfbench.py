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
# this table.  alternating_binomial_sums is called once per generator it
# starts: once in hasse-normalization-delta, once per gamma series a row sums
# (19, each over the one allocation of its row; gamma_0(2) sums its own
# series in its own row) and once per
# binomial_alternating_transform call (68, returning 372 entries: 252 in
# eq-3.27-involution, the rest in the lambda tables, g_derivs_at_one and the
# 3.13 residuals); substitute once per seeded trial of
# bell-routes-exact-n1..n8 (8 x 100); bell_recurrence_values once inside each
# bell_recurrence_value call and once per xi, gamma-from-eta and log-chain
# table (gamma-from-eta maps all of eta_0..eta_12, 14 Bell values); require
# once per step map and per-index route call, xi_deriv_at_zero included;
# coffey_constant once, for coffey-3.34-calibrated-constant, since
# lambda_via_coffey adds its constant 1 without measuring it.
VERIFY_ALL_10_COUNTS = {
    "bell.bell_determinant": (800, 0),
    "bell.bell_recurrence_value": (2138, 0),
    "bell.bell_recurrence_values": (2141, 8918),
    "bell.bell_symbolic": (23, 0),
    "bell.bracket_determinant": (920, 0),
    "bell.substitute": (800, 0),
    "cli.main": (1, 0),
    "eta_sigma.eta_from_gamma": (7, 0),
    "eta_sigma.eta_from_gamma_coffey": (1, 0),
    "eta_sigma.gamma_from_eta": (1, 0),
    "eta_sigma.sigma_table": (4, 0),
    "kernel.log2_mpf": (27, 0),
    "kernel.log_2pi_mpf": (2, 0),
    "kernel.log_pi_mpf": (35, 0),
    "kernel.polygamma_three_halves_mpf": (89, 0),
    "kernel.zeta_int_mpf": (206, 0),
    "li_keiper.binomial_alternating_transform": (68, 372),
    "li_keiper.coffey_constant": (1, 0),
    "li_keiper.g_derivs_at_one": (9, 0),
    "li_keiper.g_derivs_at_one_via_eta": (9, 0),
    "li_keiper.lambda_closed": (3, 0),
    "li_keiper.lambda_table": (2, 0),
    "li_keiper.lambda_via_coffey": (9, 0),
    "li_keiper.lambda_via_eta_psi": (10, 0),
    "li_keiper.recurrence_residual_3_13": (7, 0),
    "reports.all_passed": (1, 0),
    "reports.default_tol": (11, 0),
    "reports.equality_report": (127, 0),
    "reports.equality_reports": (15, 111),
    "reports.exact_report": (66, 0),
    "reports.inequality_report": (27, 0),
    "reports.inequality_reports": (2, 22),
    "stieltjes.alternating_binomial_sums": (88, 0),
    "stieltjes.family": (56, 0),
    "stieltjes.require": (105, 0),
    "stieltjes.stieltjes_gamma": (151, 0),
    "stieltjes.stieltjes_table": (11, 0),
    "verify.run_suite": (1, 220),
    "verify.suite_bell": (1, 45),
    "verify.suite_eta": (1, 39),
    "verify.suite_lambda": (1, 59),
    "verify.suite_stieltjes": (1, 7),
    "verify.suite_xi": (1, 36),
    "verify.suite_zeta_derivs": (1, 34),
    "xi.xi_deriv_at_zero": (10, 0),
    "xi.xi_deriv_recurrence": (1, 0),
    "xi.xi_table": (1, 0),
    "zeta_derivs.L_derivs_at_zero": (9, 0),
    "zeta_derivs.gamma_derivs_at_one_mpf": (100, 0),
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
