import re
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from exact import exact
from zkconst import li_keiper, xi
from zkconst.reports import (
    all_passed,
    default_tol,
    equality_report,
    equality_reports,
    exact_report,
    inequality_report,
    inequality_reports,
    roundtrip_decimal,
)
from zkconst.chain import table
from zkconst.precision import PrecisionContext
from zkconst.stieltjes import ConstantTable
from zkconst.verify import run_suite


class TestEqualityReport:
    def test_pass_iff_within_tol(self, ctx30):
        tol = exact(default_tol(ctx30))
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
        r = exact_report("frac", Fraction(1, 3), Fraction(1, 3), ctx30)
        assert r.passed
        with mp.workdps(50):
            assert abs(mpf(r.lhs) - mpf(1) / 3) < mpf("1e-30")

    def test_failure_marks_error(self, ctx30):
        r = exact_report("frac", 1, 2, ctx30)
        assert not r.passed
        assert r.abs_err == "1.0"

    def test_verdict_is_taken_before_rounding(self, ctx30):
        # 1 + 2^-200 rounds to 1 at any report precision, yet is not 1
        r = exact_report("tiny", Fraction(2**200 + 1, 2**200), 1, ctx30)
        assert not r.passed
        assert r.lhs == r.rhs


NON_FINITE_SIDES = pytest.mark.parametrize(
    "lhs, rhs", [(mp.nan, 0), (0, mp.inf)], ids=["nan-lhs", "inf-rhs"]
)


class TestNonFiniteSides:
    # max(0, nan) is 0, so a NaN side would otherwise pass an inequality
    @NON_FINITE_SIDES
    def test_inequality_raises(self, ctx30, lhs, rhs):
        with pytest.raises(ValueError, match="finite"):
            inequality_report("x", lhs, rhs, ctx30)

    @NON_FINITE_SIDES
    def test_equality_raises(self, ctx30, lhs, rhs):
        with pytest.raises(ValueError, match="finite"):
            equality_report("x", lhs, rhs, default_tol(ctx30), ctx30)


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


class TestReportFamilies:
    def test_names_and_index_major_order(self, ctx30):
        tol = default_tol(ctx30)
        reports = equality_reports(
            (2, 3), tol, ctx30,
            ("a-n", lambda n: n, lambda n: n, ("ta",)),
            ("b-n", lambda n: n * n, lambda n: 3 * n - 2, ("tb",)),
        )
        assert [r.identity for r in reports] == ["a-n2", "b-n2", "a-n3", "b-n3"]
        assert [r.passed for r in reports] == [True, True, True, False]
        assert [r.method_tags for r in reports] == [("ta",), ("tb",)] * 2

    def test_inequality_family(self, ctx30):
        reports = inequality_reports(
            range(3), ctx30, ("pos-n", lambda n: n - 1, lambda n: 0, ("t",))
        )
        assert [(r.identity, r.passed) for r in reports] == [
            ("pos-n0", False), ("pos-n1", True), ("pos-n2", True)
        ]


@pytest.mark.parametrize("tol_exp", [0, -3, 11, True, 2.5])
def test_default_tol_bounds_tol_exp(tol_exp):
    # where 10^-tol_exp is made: 10^0, 10^3 and 10^-11 past digits would
    # judge vacuously or past the cap, True is not the integer 1, and 2.5
    # is no integer at all
    with pytest.raises(ValueError, match=r"^--tol-exp must lie in \[1, 10\]$"):
        default_tol(PrecisionContext(10), tol_exp)


@pytest.mark.parametrize("tol_exp", [-5, 0, 31, 2.5, True])
def test_run_suite_bounds_tol_exp(ctx30, tol_exp):
    # 1e5 would pass every check vacuously, and 10^-31 lies past the cap at
    # digits; 2.5 would judge at 10^-2.5, and True is not the integer 1
    with pytest.raises(ValueError, match=r"--tol-exp must lie in \[1, 30\]"):
        run_suite("lambda", ctx30, tol_exp)


EXACT_OR_INEQUALITY = re.compile(
    r"(bell-(routes-exact|printed-poly|monomial-weights|convolution"
    r"|scaled-determinant)-n\d+|bell-exp-derivative-m\d+-x[\d.]+"
    r"|hasse-normalization-delta|eq-3\.27-involution"
    r"|eq-3\.9-p\d+|cos-weight-(odd-orders-vanish|even-orders)"
    r"|eta1-nonneg-consequence|eta0-negative|eta-sign-alternation-n\d+"
    r"|eq-3\.1[78]|eq-3\.20|xi-deriv-positive-n\d+)"
)


def wrong_tolerances(reports, tol_exp):
    """(identity, tol, wanted) of every report not judged against 10^-tol_exp
    if numeric, or 0 if exact or an inequality."""
    wrong = []
    for r in reports:
        want = "0.0" if EXACT_OR_INEQUALITY.fullmatch(r.identity) else f"1.0e-{tol_exp}"
        if r.tol != want:
            wrong.append((r.identity, r.tol, want))
    return wrong


def test_tol_exp_governs_every_numeric_identity(ctx30):
    reports = run_suite("all", ctx30, 20)
    assert len(reports) == 223
    assert not wrong_tolerances(reports, 20)


@pytest.mark.parametrize("digits, count", [(10, 223), (30, 223), (60, 220)])
def test_default_run_judges_every_numeric_identity_at_digits_minus_5(digits, count):
    reports = run_suite("all", PrecisionContext(digits))
    assert len(reports) == count
    assert not wrong_tolerances(reports, digits - 5)


def test_negated_report_sides_print_the_table_digits(ctx30):
    # eta-sign-alternation (even n) prints a table value with its sign
    # flipped; a negation rounded to mpmath's 53-bit default would print
    # other digits from about the 17th on
    def negated(value):
        text = roundtrip_decimal(value, ctx30)
        return text[1:] if text.startswith("-") else "-" + text

    reports = {r.identity: r for r in run_suite("eta", ctx30)}
    etas = table("eta", 12, ctx30)
    for n in range(2, 13, 2):
        assert reports[f"eta-sign-alternation-n{n}"].lhs == negated(exact(etas[n]))


@pytest.mark.parametrize("kind, n", [("lambda", 11), ("lambda", 12),
                                     *(("xi1", n) for n in range(9, 13))])
def test_a_fault_in_the_last_table_entries_fails_verify(kind, n, monkeypatch):
    # an error of 100 tolerances planted in one of the last entries the
    # lambda and xi suites build; each entry is a side of some report
    module, build, suite = ((li_keiper, "lambda_table", "lambda") if kind == "lambda"
                            else (xi, "xi_table", "xi"))
    good = getattr(module, build)

    def planted(sigmas):
        built = good(sigmas)
        values = list(built.values)
        values[n - 1] = exact(values[n - 1]) + 100 * exact(default_tol(built.ctx))
        return ConstantTable(kind, values, built.methods, built.ctx)

    monkeypatch.setattr(module, build, planted)
    assert not all_passed(run_suite(suite, PrecisionContext(10)))
