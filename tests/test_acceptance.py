"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Every tolerance below is pinned; nothing is deferred to
runtime calibration.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from mpmath import mp, mpf

from exact import exact
from oracles import FROZEN
from zkconst.bell import bell_determinant, bell_recurrence_value, bell_symbolic, substitute
from zkconst.chain import table
from zkconst.eta_sigma import eta_from_gamma_coffey, gamma_from_eta
from zkconst.li_keiper import (
    lambda_closed,
    lambda_table,
    lambda_via_coffey,
    lambda_via_eta_psi,
    recurrence_residual_3_13,
)
from zkconst.precision import PrecisionContext
from zkconst.xi import xi_deriv_recurrence, xi_table
from zkconst.zeta_derivs import (
    gamma_from_zeta_derivs,
    zeta_derivs_at_zero,
    zeta_derivs_log_chain,
)

PRINTED_POLYS = {
    1: {(1,): 1},
    2: {(2, 0): 1, (0, 1): 1},
    3: {(3, 0, 0): 1, (1, 1, 0): 3, (0, 0, 1): 1},
    4: {(4, 0, 0, 0): 1, (2, 1, 0, 0): 6, (1, 0, 1, 0): 4, (0, 2, 0, 0): 3,
        (0, 0, 0, 1): 1},
    5: {(5, 0, 0, 0, 0): 1, (3, 1, 0, 0, 0): 10, (2, 0, 1, 0, 0): 10,
        (1, 2, 0, 0, 0): 15, (1, 0, 0, 1, 0): 5, (0, 1, 1, 0, 0): 10,
        (0, 0, 0, 0, 1): 1},
}


def report(num, elapsed, limit, detail):
    print(f"criterion {num}: PASS in {elapsed:.2f}s (limit {limit}s) - {detail}")


def build_chain(max_index, ctx):
    kinds = ("gamma", "eta", "sigma", "lambda")
    return tuple(table(kind, max_index, ctx) for kind in kinds)


def test_criterion_1_lambda1_value():
    start = time.perf_counter()
    ctx30 = PrecisionContext(digits=30)
    lam1 = lambda_closed(1, ctx30)
    assert abs(float(lam1) - 0.023) < 5e-4
    ctx50 = PrecisionContext(digits=50)
    lam1_50 = lambda_closed(1, ctx50)
    with mp.workdps(70):
        assert abs(lam1_50 - mpf(FROZEN["lambda_1"])) < mpf("1e-43")
    assert mp.nstr(lam1_50, 20).startswith("0.0230957")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, elapsed, 1, "lambda_1 = 0.0230957... within 5e-4 of 0.023")


def test_criterion_2_four_route_lambda_agreement():
    start = time.perf_counter()
    ctx = PrecisionContext(digits=30)
    tol = mpf("1e-25")
    gammas, etas, sigmas, lambdas = build_chain(10, ctx)
    sigma_route = lambda_table(sigmas)
    eta_psi, coffey = lambda_via_eta_psi(etas), lambda_via_coffey(etas)
    with mp.workdps(60):
        values = {}
        for r in range(1, 11):
            values[r] = [exact(sigma_route[r]), exact(eta_psi[r])]
            if r <= 2:
                values[r].append(exact(lambda_closed(r, ctx)))
            if r >= 2:
                values[r].append(exact(coffey[r]))
        worst = mp.mpf(0)
        for r, vals in values.items():
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    worst = max(worst, abs(vals[i] - vals[j]))
        assert worst < tol, f"worst pairwise disagreement {worst}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(2, elapsed, 120, f"pairwise agreement <= {mp.nstr(worst, 3)} < 1e-25, r <= 10")


def test_criterion_3_master_recurrence():
    start = time.perf_counter()
    ctx = PrecisionContext(digits=30)
    tol = mpf("1e-22")
    gammas, _, _, lambdas = build_chain(9, ctx)
    worst = mp.mpf(0)
    residuals = recurrence_residual_3_13(gammas, lambdas)
    with mp.workdps(60):
        for n in range(7):
            res = exact(residuals[n])
            worst = max(worst, res)
            assert res < tol, f"n={n}: residual {res}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(3, elapsed, 60, f"residuals n=0..6 all <= {mp.nstr(worst, 3)} < 1e-22")


def test_criterion_4_bell_triple_equality():
    start = time.perf_counter()
    rng = random.Random(20250810)
    for n in range(1, 9):
        terms = bell_symbolic(n)
        for _ in range(100):
            v = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n)]
            a = substitute(terms, v)
            b = bell_recurrence_value(v)
            # the determinant takes integers: Y_n(L x_1, ..., L^n x_n) / L^n
            scale = math.lcm(*(x.denominator for x in v))
            c = Fraction(bell_determinant([int(x * scale**j) for j, x in enumerate(v, 1)]),
                         scale**n)
            assert a == b == c, f"route mismatch at n={n}, v={v}"
    for n, expected in PRINTED_POLYS.items():
        assert bell_symbolic(n) == expected, f"printed poly n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    report(4, elapsed, 30, "three routes exactly equal on 100 vectors per n <= 8")


def test_criterion_5_eta_identities():
    start = time.perf_counter()
    ctx = PrecisionContext(digits=30)
    gammas = table("gamma", 12, ctx)
    etas = table("eta", 12, ctx)
    etas_alt = eta_from_gamma_coffey(gammas)
    with mp.workdps(60):
        g0, g1, g2 = exact(gammas[0]), exact(gammas[1]), exact(gammas[2])
        assert abs(exact(etas[0]) + g0) < mpf("1e-22")
        assert abs(exact(etas[1]) - (g0**2 + 2 * g1)) < mpf("1e-22")
        assert abs(3 * g2 - (-2 * g0**3 - 6 * g0 * g1 - 2 * exact(etas[2]))) < mpf(
            "1e-22"
        )
        for n in range(13):
            assert abs(exact(etas[n]) - exact(etas_alt[n])) < mpf("1e-25"), f"n={n}"
        for n in range(1, 13):
            assert (-1) ** (n + 1) * exact(etas[n]) > 0, f"sign at n={n}"
        back = gamma_from_eta(etas)
        for n in range(9):
            assert abs(exact(back[n]) - exact(gammas[n])) < mpf("1e-23"), f"roundtrip n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(5, elapsed, 120, "eta identities, recurrence pair, signs, roundtrip")


def test_criterion_6_zeta_derivatives():
    start = time.perf_counter()
    ctx = PrecisionContext(digits=30)
    gammas = table("gamma", 8, ctx)
    etas = table("eta", 8, ctx)
    apostol = zeta_derivs_at_zero(table("gamma", 7, ctx))
    log_chain = zeta_derivs_log_chain(table("eta", 7, ctx))
    with mp.workdps(60):
        assert abs(exact(apostol[1]) + mp.log(2 * mp.pi) / 2) < mpf("1e-25")
        via_53 = (
            exact(gammas[1])
            + exact(gammas[0]) ** 2 / 2
            - mp.pi**2 / 24
            - mp.log(2 * mp.pi) ** 2 / 2
        )
        # the same quantity written directly in eta terms
        via_s4 = exact(etas[1]) / 2 - (mp.pi**2 / 6) / 4 - mp.log(2 * mp.pi) ** 2 / 2
        assert abs(via_53 - via_s4) < mpf("1e-23")
        assert abs(exact(apostol[2]) - via_53) < mpf("1e-23")
        assert abs(exact(apostol[2]) - mpf(FROZEN["zeta_deriv2_at_0"])) < mpf("1e-23")
        for n in range(9):
            assert abs(exact(apostol[n]) - exact(log_chain[n])) < mpf("1e-22"), f"n={n}"
        forward = gamma_from_zeta_derivs(log_chain)
        for n in range(1, 9):
            got = exact(forward[n - 1])
            assert abs(got - exact(gammas[n - 1])) < mpf("1e-22"), f"n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(6, elapsed, 120, "zeta'(0), zeta''(0), route agreement, forward map")


def test_criterion_7_xi_derivatives_and_signs():
    start = time.perf_counter()
    ctx = PrecisionContext(digits=30)
    gammas, etas, sigmas, lambdas = build_chain(10, ctx)
    xi_bell = xi_table(sigmas)
    xi_rec = xi_deriv_recurrence(sigmas)
    with mp.workdps(60):
        l1, l2, l3 = exact(lambdas[1]), exact(lambdas[2]), exact(lambdas[3])
        assert abs(exact(xi_bell[1]) - l1 / 2) < mpf("1e-23")
        assert abs(exact(xi_bell[2]) - (l1**2 + l2 - 2 * l1) / 2) < mpf("1e-23")
        cubic = (l1**3 + 3 * l1 * (l2 - 2 * l1) + 6 * l1 - 6 * l2 + 2 * l3) / 2
        assert abs(exact(xi_bell[3]) - cubic) < mpf("1e-23")
        for n in range(1, 9):
            assert abs(exact(xi_rec[n]) - exact(xi_bell[n])) < mpf("1e-23"), f"n={n}"
        for n in range(1, 11):
            assert exact(xi_bell[n]) > 0, f"positivity n={n}"
        assert l2 > l1 * (2 - l1)              # lambda_2 lower bound
        assert l2 > l1                          # monotone step
        assert exact(sigmas[1]) ** 2 > exact(sigmas[2])
        assert abs(exact(sigmas[1]) - l1) < mpf("1e-25")
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(7, elapsed, 60, "xi derivative forms, recurrence vs Bell, positivity")


def test_criterion_8_li_check_cli():
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "zkconst", "li-check", "--max-n", "15",
         "--digits", "30", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    positives = [r for r in payload["reports"] if r["identity"].startswith("li-positivity")]
    assert len(positives) == 15
    assert all(r["pass"] for r in payload["reports"])
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(8, elapsed, 120, "li-check --max-n 15 --digits 30 exits 0, all positive")


def test_criterion_9_full_verify_suite():
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "zkconst", "verify", "--suite", "all",
         "--digits", "30"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.perf_counter() - start
    assert out.returncode == 0, out.stdout + out.stderr
    assert "FAIL" not in out.stdout
    assert elapsed < 600
    report(9, elapsed, 600, "verify --suite all --digits 30 exits 0")
