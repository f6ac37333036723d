from fractions import Fraction

import pytest
from mpmath import mp, mpf

from zkconst.reports import (
    all_passed,
    default_tol,
    equality_report,
    exact_report,
    inequality_report,
)
from zkconst.verify import run_suite


class TestEqualityReport:
    def test_pass_iff_within_tol(self, ctx30):
        tol = default_tol(ctx30)
        with mp.workdps(60):
            a = mp.sqrt(2)
            good = equality_report("same", a, a + tol / 10, tol, ctx30)
            bad = equality_report("apart", a, a + tol * 10, tol, ctx30)
        assert good.passed and not bad.passed
        with mp.workdps(60):
            for r in (good, bad):
                assert r.passed == (mpf(r.abs_err) <= mpf(r.tol))

    def test_sides_roundtrip_at_run_precision(self, ctx30):
        with mp.workdps(ctx30.working_dps + 25):
            lhs = mp.exp(1) / 7
            rhs = mp.log(3) * 5
        r = equality_report("x", lhs, rhs, default_tol(ctx30), ctx30)
        with mp.workdps(ctx30.working_dps):
            assert mpf(r.lhs) == +lhs
            assert mpf(r.rhs) == +rhs

    def test_method_tags_preserved(self, ctx30):
        r = equality_report("x", 1, 1, default_tol(ctx30), ctx30,
                            method_tags=("a", "b"))
        assert r.method_tags == ("a", "b")


class TestInequalityReport:
    def test_violation_magnitude(self, ctx30):
        holds = inequality_report("pos", 2, 1, ctx30)
        fails = inequality_report("neg", 1, 2, ctx30)
        assert holds.passed and not fails.passed
        assert holds.abs_err == "0.0"
        with mp.workdps(50):
            assert abs(mpf(fails.abs_err) - 1) < mpf("1e-6")
        with mp.workdps(50):
            for r in (holds, fails):
                assert r.passed == (mpf(r.abs_err) <= mpf(r.tol))


class TestExactReport:
    def test_fraction_witnesses(self, ctx30):
        r = exact_report("frac", True, Fraction(1, 3), Fraction(1, 3), ctx30)
        assert r.passed
        with mp.workdps(50):
            assert abs(mpf(r.lhs) - mpf(1) / 3) < mpf("1e-30")

    def test_failure_marks_error(self, ctx30):
        r = exact_report("frac", False, 1, 2, ctx30)
        assert not r.passed
        assert r.abs_err == "1.0"


def test_all_passed(ctx30):
    tol = default_tol(ctx30)
    rs = [equality_report("a", 1, 1, tol, ctx30)]
    assert all_passed(rs)
    rs.append(equality_report("b", 1, 2, tol, ctx30))
    assert not all_passed(rs)


def test_default_tol_exponent(ctx30):
    with mp.workdps(ctx30.working_dps + 10):
        assert default_tol(ctx30) == mpf(10) ** (-(ctx30.digits - 5))
        assert default_tol(ctx30, 12) == mpf(10) ** (-12)


@pytest.mark.parametrize("tol_exp", [-5, 0, 31])
def test_run_suite_bounds_tol_exp(ctx30, tol_exp):
    # 1e5 would pass every check vacuously, and no check can meet 10^-31
    with pytest.raises(ValueError, match=r"--tol-exp must lie in \[1, 30\]"):
        run_suite("lambda", ctx30, tol_exp)
