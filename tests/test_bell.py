import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from memos import clear_package_memos
from oracles import bracket_matrix, central_derivative, cofactor_determinant
from zkconst import bell
from zkconst.bell import (
    bell_determinant,
    bell_recurrence_value,
    bell_recurrence_values,
    bell_symbolic,
    bracket_determinant,
    substitute,
)
from zkconst.precision import PrecisionContext
from zkconst.reports import default_tol
from zkconst.verify import _first_mismatch, _random_pairs, _scale_to_integers, suite_bell

PRINTED = {
    1: {(1,): 1},
    2: {(2, 0): 1, (0, 1): 1},
    3: {(3, 0, 0): 1, (1, 1, 0): 3, (0, 0, 1): 1},
    4: {(4, 0, 0, 0): 1, (2, 1, 0, 0): 6, (1, 0, 1, 0): 4, (0, 2, 0, 0): 3,
        (0, 0, 0, 1): 1},
    5: {(5, 0, 0, 0, 0): 1, (3, 1, 0, 0, 0): 10, (2, 0, 1, 0, 0): 10,
        (1, 2, 0, 0, 0): 15, (1, 0, 0, 1, 0): 5, (0, 1, 1, 0, 0): 10,
        (0, 0, 0, 0, 1): 1},
}


def random_fractions(rng, n):
    return [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n)]


class TestSymbolic:
    def test_degree_zero_is_one(self):
        terms = bell_symbolic(0)
        assert terms == {(): 1}
        assert substitute(terms, []) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_printed_polynomials_term_for_term(self, n):
        assert bell_symbolic(n) == PRINTED[n]

    @pytest.mark.parametrize("n", list(range(1, 13)))
    def test_monomial_weights_and_positive_coefficients(self, n):
        for expo, coeff in bell_symbolic(n).items():
            assert sum((j + 1) * e for j, e in enumerate(expo)) == n
            assert isinstance(coeff, int) and coeff > 0

    def test_capacity_cap(self):
        with pytest.raises(ValueError):
            bell_symbolic(21)
        with pytest.raises(ValueError):
            bell_symbolic(-1)

    @pytest.mark.parametrize("bad", [True, False, 2.0])
    def test_non_int_rejected(self, bad):
        # True == 1 and hash(True) == hash(1), so only the type tells them apart
        with pytest.raises(ValueError, match=r"bell_symbolic's n must lie in \[0, 20\]"):
            bell_symbolic(bad)

    def test_a_returned_dict_is_the_callers_own(self):
        # the enumeration is memoised, so a caller's edit must not reach it
        terms = bell_symbolic(5)
        terms[(0, 1, 1, 0, 0)] += 1
        del terms[(5, 0, 0, 0, 0)]
        assert bell_symbolic(5) == PRINTED[5]

    def test_clearing_the_package_memos_clears_the_enumeration(self):
        bell_symbolic(7)
        assert bell._partition_terms.cache_info().currsize > 0
        clear_package_memos()
        assert bell._partition_terms.cache_info().currsize == 0

    def test_substitute_on_a_callers_dict_is_the_sum_of_its_monomials(self):
        # substitute multiplies only the nonzero exponents; a dict built by
        # hand, with zero exponents, keys in any order and Fraction
        # coefficients, takes every position of every monomial here, and so
        # does its sparse form, built once
        rng = random.Random(9101)
        for n in range(1, 9):
            terms = list(bell_symbolic(n).items())
            terms += [(tuple(rng.choice((0, 0, 1, 3)) for _ in range(n)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(3)]
            rng.shuffle(terms)
            built = dict(terms)
            v = random_fractions(rng, n)
            want = sum(c * math.prod(x**e for x, e in zip(v, expo)) for expo, c in built.items())
            assert substitute(built, v) == substitute(bell._sparse(built), v) == want, n

    def test_substitute_needs_enough_values(self):
        with pytest.raises(ValueError):
            substitute(bell_symbolic(3), [1, 2])


class TestRecurrence:
    def test_single_argument_is_identity(self):
        assert bell_recurrence_value([5]) == 5
        assert bell_recurrence_value([mpf(5)]) == 5

    def test_printed_degree_two_value(self):
        # substitute into x1^2 + x2 by hand
        assert bell_recurrence_value([2, 3]) == 7
        assert bell_recurrence_value([mpf(2), mpf(3)]) == 7

    def test_empty_args_give_one(self):
        assert bell_recurrence_value([]) == 1

    def test_values_are_the_values_of_every_prefix(self):
        rng = random.Random(8999)
        for n in range(9):
            v = random_fractions(rng, n)
            ys = bell_recurrence_values(v)
            assert ys == [bell_recurrence_value(v[:k]) for k in range(n + 1)]

    @pytest.mark.parametrize("n", list(range(1, 9)))
    def test_matches_symbolic_substitution_on_rationals(self, n):
        rng = random.Random(9000 + n)
        terms = bell_symbolic(n)
        for _ in range(100):
            v = random_fractions(rng, n)
            assert bell_recurrence_value(v) == substitute(terms, v)


class TestDeterminant:
    def test_one_by_one(self):
        assert bell_determinant([7]) == 7

    def test_two_by_two_expanded_by_hand(self):
        # [x1, -x2/1!] is det [[2, -3], [1, 2]] = 4 + 3 at (2, 3)
        assert bell_determinant([2, 3]) == 7

    @pytest.mark.parametrize("n", list(range(1, 9)))
    def test_matches_recurrence_on_rationals(self, n):
        # the determinant at the integers L^j x_j, divided by L^n
        rng = random.Random(7000 + n)
        for _ in range(100):
            pairs = _random_pairs(rng, n)
            scale, w = _scale_to_integers(pairs)
            want = bell_recurrence_value([Fraction(p, q) for p, q in pairs])
            assert Fraction(bell_determinant(w), scale**n) == want

    def test_zero_leading_argument_pivots(self):
        v = [0, 1, 2, 3]
        assert bell_determinant(v) == bell_recurrence_value(v)

    def test_singular_brackets(self):
        # [1, 1, 1] and [2, 4] have nonzero pivots but a zero last one;
        # all zeros gives a zero pivot at every step; [3, 3, 3, 3] is singular
        # after two zero pivots that elimination itself made
        for cs in ([1, 1, 1], [2, 4], [0, 0, 0, 0], [3, 3, 3, 3]):
            assert cofactor_determinant(bracket_matrix(cs)) == 0
            assert bracket_determinant(cs) == 0

    @pytest.mark.parametrize(
        "cs",
        [[0, 0, 0, 5], [0, 0, 0, 0, 2], [0, 0, 3, 0, 0, -7], [3, 3, 3, 1]],
    )
    def test_zero_pivots_in_a_row(self, cs):
        # leading zeros give zero pivots at steps 0, 1, 2, ... in turn; in [3, 3, 3, 1]
        # elimination itself leaves zero pivots at steps 1 and 2
        assert bracket_determinant(cs) == cofactor_determinant(bracket_matrix(cs))

    def test_needs_at_least_one_entry(self):
        with pytest.raises(ValueError):
            bell_determinant([])

    @pytest.mark.parametrize("route", [bell_determinant, bracket_determinant])
    @pytest.mark.parametrize("bad", [Fraction(1, 3), Fraction(2), 0.5, "1/2", True, mpf(2)])
    def test_entries_are_ints(self, route, bad):
        # True == 1 and Fraction(2) == 2 would pass silently, and a float or
        # str has no exact numerator to eliminate with
        with pytest.raises(ValueError, match="int entries"):
            route([1, bad, 2])

    def test_a_remainder_raises(self, monkeypatch):
        # (n-1)!^n divides the elimination at any integer arguments, so a
        # remainder is a fault of the elimination, never floored away
        real = bell._scaled_bracket
        monkeypatch.setattr(bell, "_scaled_bracket", lambda nums, den: real(nums, den) + 1)
        with pytest.raises(ArithmeticError, match="remainder"):
            bell_determinant([1, 2, 3])

    @pytest.mark.parametrize("n", list(range(1, 7)))
    def test_scaled_bracket_form(self, n):
        # Y_n(b1, 1! b2, ..., (n-1)! bn) = [b1, -b2, ..., (-1)^(n+1) bn], the
        # bracket taken at the integers L^j b_j and divided by L^n
        rng = random.Random(5000 + n)
        for _ in range(25):
            pairs = _random_pairs(rng, n)
            scale, w = _scale_to_integers(pairs)
            scaled = [math.factorial(j) * Fraction(p, q) for j, (p, q) in enumerate(pairs)]
            bracket = bracket_determinant([(-1) ** k * w[k] for k in range(n)])
            assert bell_recurrence_value(scaled) == Fraction(bracket, scale**n)


class TestIdentities:
    @pytest.mark.parametrize("n", list(range(1, 7)))
    def test_binomial_convolution(self, n):
        rng = random.Random(3000 + n)
        for _ in range(25):
            xs = random_fractions(rng, n)
            ys = random_fractions(rng, n)
            lhs = bell_recurrence_value([a + b for a, b in zip(xs, ys)])
            rhs = sum(
                math.comb(n, k)
                * bell_recurrence_value(xs[: n - k])
                * bell_recurrence_value(ys[:k])
                for k in range(n + 1)
            )
            assert lhs == rhs

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_derivative_rule_for_exp_of_cubic(self, m, ctx30):
        # d^m/dx^m e^(x^3) = e^(x^3) Y_m(3x^2, 6x, 6, 0, 0, ...)
        tol_exp = ctx30.digits - 3
        for x_str in ("0.3", "0.7"):
            with mp.workdps(ctx30.working_dps + 10):
                x = mpf(x_str)
                args = [3 * x**2, 6 * x, mpf(6), mpf(0), mpf(0)][:m]
                lhs = mp.exp(x**3) * bell_recurrence_value(args)
            rhs = central_derivative(lambda t: mp.exp(t**3), x_str, m, ctx30.digits)
            with mp.workdps(ctx30.working_dps + 10):
                assert abs(lhs - rhs) < mpf(10) ** (-tol_exp)


# zero-heavy small integers, so zero pivots and singular brackets occur
ZERO_HEAVY = st.one_of(st.just(0), st.integers(min_value=-4, max_value=4))


class TestProperties:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.lists(ZERO_HEAVY, min_size=1, max_size=6))
    def test_bracket_equals_cofactor_oracle(self, cs):
        assert bracket_determinant(cs) == cofactor_determinant(bracket_matrix(cs))

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.lists(ZERO_HEAVY, min_size=1, max_size=6))
    def test_three_routes_agree(self, v):
        partition = substitute(bell_symbolic(len(v)), v)
        assert partition == bell_recurrence_value(v) == bell_determinant(v)


# unreduced (p, q) pairs: gcd(p, q) > 1 is drawn too, as the suite draws it
PAIRS = st.tuples(st.integers(-20, 20), st.integers(1, 30))


def reduced(pairs):
    return [Fraction(p, q) for p, q in pairs]


class TestScaledTrials:
    """The bell suite draws (p, q) pairs, runs each route at the integers
    L^j p_j/q_j with L the lcm of the unreduced q, and divides by L^n;
    weighted homogeneity makes that exact for every route."""

    @pytest.mark.parametrize("seed", [0, 1, 1729, 2**70 + 11])
    def test_pairs_follow_the_seeded_stream(self, seed):
        # randint's pairs, numerator first, for every size the suite draws,
        # twice back to back as a convolution trial draws xs and ys; the
        # stream is left where randint would leave it
        rng, twin = random.Random(seed), random.Random(seed)
        for n in range(1, 9):
            for _ in range(2):
                expected = [(twin.randint(-20, 20), twin.randint(1, 12)) for _ in range(n)]
                assert _random_pairs(rng, n) == expected
        assert rng.getstate() == twin.getstate()

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.lists(PAIRS, min_size=1, max_size=8))
    def test_each_route_at_scaled_integers(self, pairs):
        scale, w = _scale_to_integers(pairs)
        assert all(type(x) is int for x in w)
        v = reduced(pairs)
        n = len(v)
        terms = bell_symbolic(n)
        want = substitute(terms, v)
        assert bell_recurrence_value(v) == want
        for route in (lambda x: substitute(terms, x), bell_recurrence_value,
                      bell_determinant):
            assert Fraction(route(w), scale**n) == want

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(*[st.lists(PAIRS, min_size=n, max_size=n)] * 2)))
    def test_one_scale_covers_two_vectors(self, pair):
        xs, ys = pair
        scale, xs_int, ys_int = _scale_to_integers(xs, ys)
        summed = bell_recurrence_value([a + b for a, b in zip(xs_int, ys_int)])
        want = bell_recurrence_value([a + b for a, b in zip(reduced(xs), reduced(ys))])
        assert Fraction(summed, scale ** len(xs)) == want

    def test_no_trial_drawn_raises(self, ctx30):
        with pytest.raises(RuntimeError, match="no trial"):
            _first_mismatch("empty", iter(()), ctx30, ())

    def test_witness_is_divided_by_the_scale(self, ctx30):
        report = _first_mismatch("w", iter([(6, 6, 4), (3, 5, 9)]), ctx30, ())
        assert not report.passed
        with mp.workdps(50):
            assert abs(mpf(report.lhs) - mpf(1) / 3) < mpf("1e-30")
            assert abs(mpf(report.rhs) - mpf(5) / 9) < mpf("1e-30")


class _OneWrongBinomial:
    """The math module, but with C(3, 1) off by one."""

    def __getattr__(self, name):
        return getattr(math, name)

    @staticmethod
    def comb(m, k):
        return math.comb(m, k) + ((m, k) == (3, 1))


def _plant_partition_coefficient(monkeypatch):
    real = bell.bell_symbolic

    def planted(n):
        terms = real(n)
        if n == 5:
            terms[(0, 1, 1, 0, 0)] += 1
        return terms

    monkeypatch.setattr(bell, "bell_symbolic", planted)


def _plant_determinant_sign(monkeypatch):
    real = bell._scaled_bracket

    def planted(nums, den):
        nums = list(nums)
        if len(nums) > 1:
            nums[1] = -nums[1]
        return real(nums, den)

    monkeypatch.setattr(bell, "_scaled_bracket", planted)


def _plant_recurrence_binomial(monkeypatch):
    monkeypatch.setattr(bell, "math", _OneWrongBinomial())


EXACT_FAMILIES = ("bell-routes-exact-n", "bell-convolution-n", "bell-scaled-determinant-n")


# each plant must fail every family listed (a tuple entry: any one of its
# prefixes); the two determinant routes share one elimination, so a sign
# flip there reaches the three-route family and the scaled bracket alike
@pytest.mark.parametrize(
    "plant, families",
    [
        (_plant_partition_coefficient, (EXACT_FAMILIES,)),
        (_plant_determinant_sign, ("bell-routes-exact-n", "bell-scaled-determinant-n")),
        (_plant_recurrence_binomial, (EXACT_FAMILIES,)),
    ],
    ids=["partition-coefficient", "determinant-sign", "recurrence-binomial"],
)
def test_planted_fault_fails_an_exact_family(plant, families, monkeypatch, ctx30):
    assert all(r.passed for r in suite_bell(ctx30, default_tol(ctx30)))
    plant(monkeypatch)
    failed = [r.identity for r in suite_bell(ctx30, default_tol(ctx30)) if not r.passed]
    for family in families:
        assert any(name.startswith(family) for name in failed), (family, failed)


@pytest.mark.parametrize("digits", [10, 30, 60])
def test_derivative_rule_check_is_exact(digits, monkeypatch):
    # a relative error of 1e-12 in every non-integer Bell value: the exact
    # families run in integers and pass, while each derivative report, whose
    # Bell value is rational, must fail at any precision, 10 digits included
    real = bell.bell_recurrence_value

    def planted(args):
        v = real(args)
        return v if isinstance(v, int) else v + v / 10**12

    monkeypatch.setattr(bell, "bell_recurrence_value", planted)
    ctx = PrecisionContext(digits=digits)
    verdicts = {r.identity: r.passed for r in suite_bell(ctx, default_tol(ctx))}
    derivative = [name for name in verdicts if name.startswith("bell-exp-derivative-")]
    assert len(derivative) == 10
    assert not any(verdicts[name] for name in derivative)
    assert all(ok for name, ok in verdicts.items() if name not in derivative)
