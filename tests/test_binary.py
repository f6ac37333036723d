"""The package's number layer, on the standard library, against mpmath.

stieltjes reads a string u, --u or a library argument, rounds every
gamma_n(u) and writes every decimal of the package without mpmath, and every
step map, route and verify side computes in Binary arithmetic, so each piece
is held to the mpmath operation it replaces, on seeded random cases: the
writer to libmp.to_str (mp.nstr), the parser to libmp.from_str (mpf(raw)) at
the gamma row's precisions, where it reads u, the rounding helpers to mpf
division and addition at the gamma precisions, and every Binary operator to
the mpf operator it stands for.
"""
import operator
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import finf, fnan, fninf, from_str, to_str

from exact import exact
from zkconst import kernel, stieltjes
from zkconst.precision import (
    MAX_DIGITS,
    MIN_DIGITS,
    PrecisionContext,
    dps_to_prec,
)
from zkconst.reports import default_tol, equality_report, exact_report, inequality_report
from zkconst.stieltjes import (
    Binary,
    ConstantTable,
    _from_decimal,
    _round,
    _sum,
    _times_ten,
    decimal_str,
    stieltjes_gamma,
)


def random_binary(rng):
    """A signed Binary whose exponent reaches past mpmath's +-3500-bit
    cutoff, beyond which its own writer divides by a rounded power of ten."""
    man = rng.getrandbits(rng.choice((1, 3, 8, 53, 100, 200, 400))) | 1
    exp = rng.choice((rng.randint(-300, 300), rng.randint(-8000, 8000)))
    return Binary(man if rng.random() < 0.5 else -man, exp)


def test_writer_is_mpmaths_to_str():
    rng = random.Random(2901)
    cases = [(random_binary(rng), rng.randint(1, 80), rng.random() < 0.5) for _ in range(3000)]
    assert sum(abs(x.exp + abs(x.man).bit_length()) > 3500 for x, _, _ in cases) > 500
    assert {strip for _, _, strip in cases} == {False, True}
    for x, digits, strip in cases:
        assert decimal_str(x, digits, strip) == to_str(x._mpf_, digits, strip_zeros=strip), (
            x, digits, strip)


def test_writer_reads_an_mpf_and_refuses_the_special_values():
    # the last few values carry into a new leading digit at some digits
    carries = ("0.99999999999", "999.9996", "-9.9999999", "99999.5", "9999999999.6")
    with mp.workdps(50):
        for x in (+mp.pi, -mp.e / 10**30, mpf(0), mpf(1234567890), mpf("0.125"),
                  *map(mpf, carries)):
            for digits in (1, 2, 3, 4, 8, 10, 45):
                assert decimal_str(x, digits) == mp.nstr(x, digits)
                assert decimal_str(x, digits, False) == mp.nstr(x, digits, strip_zeros=False)
    # no value reaches the writer unchecked: an inf or nan is refused, not
    # printed
    for special in (mp.inf, -mp.inf, mp.nan):
        with pytest.raises(ValueError, match="finite"):
            decimal_str(special, 8)


def random_decimal(rng):
    """A decimal literal with a decimal exponent within +-400, or a ratio."""
    if rng.random() < 0.2:
        return f"{rng.randint(-10**30, 10**30)}/{rng.choice((1, -1)) * rng.randint(1, 10**20)}"
    digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 40)))
    point = rng.randint(0, len(digits))
    raw = digits[:point] + "." + digits[point:] if rng.random() < 0.7 else digits
    if rng.random() < 0.7:
        raw += rng.choice("eE") + str(rng.randint(-400, 400))
    return rng.choice(("", "-", "+")) + raw


def read_by_mpmath(raw, prec):
    """from_str's raw mpf, None for inf and nan, or the exception it raises."""
    try:
        value = from_str(raw, prec, "n")
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    return None if value in (finf, fninf, fnan) else value


def read_here(raw, prec):
    try:
        value = _from_decimal(raw, prec)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    return None if value is None else value._mpf_


@pytest.mark.parametrize("man, exp", [(1, 0), (-12345, -7), (2**200 + 1, 90)])
def test_times_ten_is_exact_to_400(man, exp):
    # up to mpmath's 400-digit cutoff the power of five is taken whole
    for k in range(-400, 401):
        num, den, e = _times_ten(man, exp, k, 64)
        assert Fraction(num, den) * Fraction(2) ** e == man * Fraction(2) ** exp * Fraction(10) ** k, k


# every precision the package parses at: the gamma row's, where it reads a
# str u, --u or a library argument alike
PARSE_PRECS = [dps_to_prec(PrecisionContext(d).dps("gamma", 20))
               for d in (10, 30, 45, 60)]


def test_parser_is_mpmaths_from_str():
    rng = random.Random(2902)
    for _ in range(3000):
        raw, prec = random_decimal(rng), rng.choice(PARSE_PRECS)
        assert read_here(raw, prec) == read_by_mpmath(raw, prec), (raw, prec)


EDGE_STRINGS = [
    "1/3", " 2 ", "1_0", "1e401", "1e-401", "5l", "5L", "1/3l", ".5", "5.", "-.5", "1e+5",
    "1e5_0", "+1/+3", "1 / 3", "1/-3", "1e99999", "inf", "+inf", "-inf", "nan", "INF",
    "", " ", "abc", "0x10", "1/0", "0/0", "1//3", "1e", "e5", "--1", "1.2.3", "1e5/3",
    "-nan", "infinity", "1_0.5_0", "1.5_0", "0x1p3",
]


def test_parser_refuses_exactly_what_mpmath_refuses():
    rng = random.Random(2903)
    alphabet = "0123456789.eE+-_/ lLinfatyx"
    strings = EDGE_STRINGS + ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                              for _ in range(3000)]
    for raw in strings:
        assert read_here(raw, 100) == read_by_mpmath(raw, 100), raw


@pytest.mark.parametrize("raw, message", [
    ("abc", "cannot parse --u value 'abc'"), ("1/0", "cannot parse --u value '1/0'"),
    ("0x10", "cannot parse --u value '0x10'"), ("nan", "--u must be a finite real > 0"),
    ("-1", "--u must be a finite real > 0"), ("0/5", "--u must be a finite real > 0"),
])
def test_parse_u_keeps_its_two_messages(raw, message):
    with pytest.raises(ValueError) as info:
        stieltjes_gamma(0, raw, PrecisionContext(digits=30))
    assert str(info.value) == message


# the gamma precisions: gamma_n at every digits and n
GAMMA_PRECS = sorted({dps_to_prec(PrecisionContext(d).dps("gamma", n))
                      for d in range(10, 61) for n in range(21)})


def test_rounding_is_mpf_arithmetic():
    # a gamma row's three mpf steps: ldexp(total, -P) / (n + 1),
    # ldexp(head, -P) / u and their sum, at the working precision of gamma_n
    rng = random.Random(2904)
    for _ in range(3000):
        prec, big = rng.choice(GAMMA_PRECS), rng.randint(300, 700)
        total = rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, big + 200))
        head, n = rng.getrandbits(rng.randint(1, big + 60)), rng.randint(0, 20)
        u = random_binary(rng)
        u = Binary(abs(u.man), u.exp)
        with mp.workprec(prec):
            quotient = _round(total, n + 1, -big, prec)
            assert quotient._mpf_ == (mp.ldexp(total, -big) / (n + 1))._mpf_
            over_u = _round(head, u.man, -big - u.exp, prec)
            assert over_u._mpf_ == (mp.ldexp(head, -big) / exact(u))._mpf_
            added = _sum(over_u.man, over_u.exp, quotient.man, quotient.exp, prec)
            assert added._mpf_ == (exact(over_u) + exact(quotient))._mpf_


def test_far_apart_terms_add_as_mpf_adds_them():
    # a term far below the other's last bit moves the sum only by its sign,
    # as u = 1e-100000000 moves u + 1; the sum never builds 2^100000000
    for prec in (53, 200, 400):
        for a, b in [(Binary(1), Binary(1, -10**8)), (Binary(1), Binary(-1, -10**8)),
                     (Binary(3, 10**6), Binary(-5, -10**6)), (Binary(-7, prec), Binary(1, -3))]:
            with mp.workprec(prec):
                want = exact(a) + exact(b)
            got = _sum(a.man, a.exp, b.man, b.exp, prec), _sum(b.man, b.exp, a.man, a.exp, prec)
            assert got[0]._mpf_ == got[1]._mpf_ == want._mpf_, (a, b)


def test_a_binary_reads_exactly_as_an_mpf_and_a_fraction():
    x = Binary(-12, -3)
    assert (x.man, x.exp) == (-3, -1)
    assert Fraction(x) == Fraction(-3, 2)
    assert exact(x) == mpf(-1.5) and mp.nstr(x, 5) == "-1.5"
    assert Binary(0, 7) == Binary(0) and hash(Binary(4)) == hash(Binary(1, 2))


# every working precision of a step map, report or atom at digits 10..60
ARITHMETIC_DPS = (15, 20, 35, 53, 70, 95, 120)


def random_operand(rng):
    """A Binary, now and then 0, or an int."""
    pick = rng.random()
    if pick < 0.05:
        return Binary(0)
    if pick < 0.2:
        return rng.randint(-10**30, 10**30)
    return random_binary(rng)


def mpf_of(x):
    return exact(x) if isinstance(x, Binary) else x


def test_arithmetic_is_mpf_arithmetic():
    # each operator rounds once, as mpf's does, whichever side an int takes
    # and however far apart the exponents lie
    rng = random.Random(3001)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for _ in range(4000):
        a, b, op = random_operand(rng), random_operand(rng), rng.choice(ops)
        if not isinstance(a, Binary) and not isinstance(b, Binary) or (
                op is operator.truediv and b == 0):
            continue
        dps = rng.choice(ARITHMETIC_DPS)
        with mp.workdps(dps):
            want = op(mpf_of(a), mpf_of(b))
        with stieltjes.workdps(dps):
            got = op(a, b)
        assert isinstance(got, Binary) and got._mpf_ == want._mpf_, (a, b, op, dps)


def test_unary_operators_and_powers_are_mpfs():
    rng = random.Random(3002)
    for _ in range(2000):
        man = rng.getrandbits(rng.choice((1, 8, 53, 100))) | 1
        x = Binary(man if rng.random() < 0.5 else -man, rng.randint(-300, 300))
        dps, n = rng.choice(ARITHMETIC_DPS), rng.randint(-6, 6)
        with mp.workdps(dps):
            want = [-exact(x), +exact(x), abs(exact(x)), exact(x) ** n]
        with stieltjes.workdps(dps):
            got = [-x, +x, abs(x), x**n]
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want], (x, dps, n)


def test_comparisons_are_exact():
    rng = random.Random(3003)
    for _ in range(2000):
        a, b = random_operand(rng), random_operand(rng)
        if rng.random() < 0.1:
            b = a
        if not isinstance(a, Binary):
            a, b = b, a
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq,
                   operator.ne):
            assert op(a, b) == op(mpf_of(a), mpf_of(b)), (a, b, op)
        # equal numbers hash alike, whatever their type
        assert hash(a) == hash(Fraction(a)), a


ARITHMETIC_OPS = (
    operator.neg, operator.pos, abs, lambda x: x**2, lambda x: x**-3,
    lambda x: x + 1, lambda x: 1 + x, lambda x: x - x, lambda x: 2 - x,
    lambda x: x * x, lambda x: 3 * x, lambda x: x / 3, lambda x: 1 / x,
)


def test_outside_workdps_arithmetic_raises():
    # no default precision: a value computed outside workdps would round to
    # one nobody chose, whatever mpmath's own precision is
    x = Binary(2**80 + 1, -70)
    for op in ARITHMETIC_OPS:
        with pytest.raises(RuntimeError):
            op(x)
        for dps in (15, 40):
            with mp.workdps(dps), pytest.raises(RuntimeError):
                op(x)
    # reading one needs no precision
    assert x > 1 and x == Binary(2**80 + 1, -70) and x != 0 and float(x) == 1024.0
    assert hash(x) == hash(Fraction(2**80 + 1, 2**70))


def test_an_mpf_operand_is_mpmaths():
    # mpf's reflected operator reads a Binary exactly and rounds as mpmath
    # does, inside workdps or not
    x, y = Binary(2**80 + 1, -70), Binary(-3, -200)
    for dps in (15, 40):
        with mp.workdps(dps):
            want = [exact(x) / 3, exact(x) * exact(y), 1 + exact(x), exact(y) - exact(x)]
            for inside in (False, True):
                with stieltjes.workdps(60) if inside else mp.workdps(dps):
                    got = [x / mpf(3), exact(y) * x, mpf(1) + x, y - exact(x)]
                assert all(type(v) is mpf for v in got)
                assert [v._mpf_ for v in got] == [v._mpf_ for v in want], (dps, inside)


def test_powers_are_mpf_powers_at_the_zeta0_and_side_precisions():
    # zeta_derivs takes (pi/2)^m and (-log 2 pi)^k at the zeta0 solve
    # precision and verify at the elementary side precision, m, k <= 10:
    # many of these exact powers have 1000 bits or more, where mpmath's
    # mpf_pow_int truncates instead of rounding once, as Binary.__pow__ does
    wide = 0
    for digits in range(MIN_DIGITS, MAX_DIGITS + 1):
        ctx = PrecisionContext(digits)
        for dps in (ctx.dps("zeta0"), ctx.dps("elementary_side")):
            bases = [kernel.atoms(dps).pi, kernel.atoms(dps).log_2pi]
            with stieltjes.workdps(dps):
                bases = [bases[0] / 2, -bases[1]]
                got = [base**m for base in bases for m in range(2, 11)]
            with mp.workdps(dps):
                want = [exact(base) ** m for base in bases for m in range(2, 11)]
            wide += sum(abs(base.man).bit_length() * m >= 1000
                        for base in bases for m in range(2, 11))
            assert [v._mpf_ for v in got] == [v._mpf_ for v in want], digits
    assert wide > 500


# every way a number enters the package: a table value, a report side, the u
# of a gamma row and a value to print each refuse an inf, a nan and what is
# no real number, with ValueError, never a verdict, a row or a string; a
# report's refusal begins with the report's name
ENTRIES = {
    "table-value": lambda x, ctx: ConstantTable("gamma", [x], "hasse-2.8", ctx),
    "equality-lhs": lambda x, ctx: equality_report("x", x, 0, default_tol(ctx), ctx),
    "equality-rhs": lambda x, ctx: equality_report("x", 0, x, default_tol(ctx), ctx),
    "inequality-lhs": lambda x, ctx: inequality_report("x", x, 0, ctx),
    "inequality-rhs": lambda x, ctx: inequality_report("x", 0, x, ctx),
    "exact-lhs": lambda x, ctx: exact_report("x", x, 0, ctx),
    "exact-rhs": lambda x, ctx: exact_report("x", 0, x, ctx),
    "gamma-u": lambda x, ctx: stieltjes_gamma(0, x, ctx),
    "decimal-str": lambda x, ctx: decimal_str(x, 8),
}
REFUSED = {
    "float-inf": float("inf"), "float-minus-inf": float("-inf"), "float-nan": float("nan"),
    "mpf-inf": mp.inf, "mpf-minus-inf": -mp.inf, "mpf-nan": mp.nan,
    "None": None, "complex": 1 + 2j,
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("value", REFUSED)
def test_every_entry_refuses_what_is_no_finite_number(ctx30, entry, value):
    named = entry.startswith(("equality", "inequality", "exact"))
    with pytest.raises(ValueError, match="^x: " if named else None):
        ENTRIES[entry](REFUSED[value], ctx30)
