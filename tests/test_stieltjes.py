import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from exact import exact
from oracles import FROZEN, em_gamma_table
from zkconst import stieltjes as stieltjes_module
from zkconst import verify
from zkconst.li_keiper import binomial_alternating_transform
from zkconst.precision import ConvergenceError, PrecisionContext, dps_to_prec
from zkconst.reports import default_tol
from zkconst.stieltjes import (
    GAMMA_TAG,
    Binary,
    _two_atanh,
    stieltjes_gamma,
    stieltjes_table,
)


def _primes(top):
    return [p for p in range(2, top + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


@pytest.mark.parametrize("bits", [64, 574, 1400])
def test_two_atanh_of_a_unit_fraction_is_within_its_bound(bits):
    # the atom logs take 2 atanh(1/3), and an integer row's sieve 2 atanh(1/(2p - 1))
    # for each prime p: each off by at most twice its number of terms
    for q in [3, *(2 * p - 1 for p in _primes(300))]:
        terms = sum(1 for j in range(1, bits + 2, 2) if q**j <= 1 << bits)
        with mp.workdps(bits // 3 + 30):
            want = mpf(2) ** bits * 2 * mp.atanh(mpf(1) / q)
            assert abs(_two_atanh(1, q, bits) - want) <= 2 * terms, q


class TestGammaValues:
    def test_euler_mascheroni(self, ctx30):
        g = stieltjes_gamma(0, 1, ctx30)
        assert mp.nstr(g, 20).startswith("0.5772156649")
        with mp.workdps(60):
            assert abs(g - mpf(FROZEN["gamma"])) < mpf("1e-38")

    def test_gamma_1(self, ctx30):
        g = stieltjes_gamma(1, 1, ctx30)
        assert mp.nstr(g, 20).startswith("-0.0728158454")
        with mp.workdps(60):
            assert abs(g - mpf(FROZEN["gamma_1"])) < mpf("1e-38")

    def test_gamma_0_at_2_is_gamma_minus_1(self, ctx30):
        # gamma_0(u) = -psi(u); at u = 2 this is gamma - 1
        g = stieltjes_gamma(0, 2, ctx30)
        with mp.workdps(60):
            assert abs(g - mpf(FROZEN["gamma_0_at_2"])) < mpf("1e-38")

    def test_generalized_u_against_oracle(self, ctx30):
        oracle = em_gamma_table(2, mpf(0.5), 50)
        for n in range(3):
            got = stieltjes_gamma(n, 0.5, ctx30)
            with mp.workdps(60):
                assert abs(got - oracle[n]) < mpf(10) ** (-(ctx30.digits - 5))

    def test_string_u_is_decimal_exact(self, ctx30):
        # "0.3" as a string must mean decimal 0.3, not the nearest binary64
        oracle = em_gamma_table(1, "0.3", 50)
        got = stieltjes_gamma(1, "0.3", ctx30)
        with mp.workdps(60):
            assert abs(got - oracle[1]) < mpf(10) ** (-(ctx30.digits - 5))

    def test_table_against_oracle(self, ctx30, em_gammas):
        table = stieltjes_table(5, ctx30)
        tol = mpf(10) ** (-(ctx30.digits - 5))
        with mp.workdps(60):
            for n in range(6):
                assert abs(exact(table[n]) - em_gammas[n]) < tol


class TestTableShape:
    def test_single_entry_table_is_gamma(self, ctx30, em_gammas):
        table = stieltjes_table(0, ctx30)
        assert [n for n, _, _ in table.rows()] == [0]
        with mp.workdps(60):
            assert abs(exact(table[0]) - em_gammas[0]) < mpf("1e-38")

    def test_contiguous_indices(self, ctx30):
        table = stieltjes_table(2, ctx30)
        assert [n for n, _, _ in table.rows()] == [0, 1, 2]

    def test_method_tags(self, ctx30):
        table = stieltjes_table(2, ctx30)
        assert all(method == GAMMA_TAG for _, _, method in table.rows())


class TestInnerSumNormalization:
    """li_keiper.binomial_alternating_transform, the alternating binomial sum
    of every sigma and lambda route, against its definition."""

    def test_constant_one_collapses_to_kronecker_delta(self):
        # the 0th sum of the all-ones sequence is 1; every later one is 0
        assert binomial_alternating_transform([1] * 16) == [1] + [0] * 15

    # int and Fraction lists of up to 40 values, about twice the 21 that the
    # lambda table reads at its cap
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-(10**30), 10**30), max_size=40),
        st.lists(st.fractions(-1000, 1000, max_denominator=1000), max_size=40),
    ))
    def test_sums_match_the_binomial_definition(self, values):
        want = [
            sum(math.comb(i, j) * (-1) ** j * values[j] for j in range(i + 1))
            for i in range(len(values))
        ]
        assert binomial_alternating_transform(values) == want


class TestStability:
    def test_precision_escalation(self):
        lo = PrecisionContext(digits=30)
        hi = PrecisionContext(digits=50)
        with mp.workdps(70):
            diff = abs(
                exact(stieltjes_gamma(0, 1, lo)) - exact(stieltjes_gamma(0, 1, hi))
            )
            assert diff < mpf(10) ** (-(30 - 2))

    @pytest.mark.parametrize("n", [1, 3])
    def test_guard_digit_stability(self, n):
        base = PrecisionContext(digits=30, guard_digits=10)
        wide = PrecisionContext(digits=30, guard_digits=20)
        with mp.workdps(70):
            diff = abs(
                exact(stieltjes_gamma(n, 1, base))
                - exact(stieltjes_gamma(n, 1, wide))
            )
            assert diff < mpf(10) ** (-(30 - 2))


class TestErrors:
    def test_nonpositive_u_rejected(self, ctx30):
        for bad in (0, -1, -0.5):
            with pytest.raises(ValueError):
                stieltjes_gamma(0, bad, ctx30)

    def test_negative_index_rejected(self, ctx30):
        with pytest.raises(ValueError):
            stieltjes_gamma(-1, 1, ctx30)

    @pytest.mark.parametrize("bad", [None, object(), 1j], ids=["None", "object", "complex"])
    def test_a_u_that_is_no_real_number_is_rejected(self, ctx30, bad):
        with pytest.raises(ValueError, match="^--u must be a finite real > 0$"):
            stieltjes_gamma(0, bad, ctx30)

    def test_index_cap(self, ctx30):
        with pytest.raises(ValueError):
            stieltjes_gamma(21, 1, ctx30)
        with pytest.raises(ValueError):
            stieltjes_table(21, ctx30)

    def test_digits_cap(self):
        # the cap is the context's, so no gamma row is asked for more digits
        with pytest.raises(ValueError, match=r"digits must lie in \[10, 60\]"):
            PrecisionContext(digits=61)

    @pytest.mark.usefixtures("fresh_rows")
    def test_convergence_error_carries_partial(self, monkeypatch):
        # a row too short for its series fails at gamma_0; the table passes
        # the kernel's error on unchanged: the message names gamma_0, and the
        # index is where its summation stopped
        monkeypatch.setattr(stieltjes_module, "_series_length", lambda *args: SHORT_ROW)
        with pytest.raises(ConvergenceError, match=r"gamma_0\(") as info:
            stieltjes_table(1, PrecisionContext(digits=10))
        assert info.value.index == SHORT_ROW
        assert info.value.__cause__ is None
        with pytest.raises(ConvergenceError) as kernel:
            stieltjes_gamma(0, 1, PrecisionContext(digits=10))
        assert info.value.partial == kernel.value.partial


# a row length whose last outer term at gamma_0(47), 47 = ceil(20 ln 10),
# is -3.7e-14, far larger in size than the 10-digit threshold 10^-20
SHORT_ROW = 12


@pytest.fixture
def fresh_rows():
    # a planted failure leaves its row in the cache, so no row outlives its test
    stieltjes_module._gamma_row.cache_clear()
    yield
    stieltjes_module._gamma_row.cache_clear()


def row_cache():
    """(misses, hits) of the row cache."""
    info = stieltjes_module._gamma_row.cache_info()
    return info.misses, info.hits


@pytest.mark.usefixtures("fresh_rows")
class TestMemo:
    """gamma_n(u) is remembered in one row per (u at working precision,
    context)."""

    def test_spellings_of_one_u_share_an_entry(self, ctx30):
        # a str, a Rational, a float, an mpf and a Binary, each read by one
        # reader, give one row key
        for rows, spellings in enumerate([
            (1, "1", Fraction(1), mpf(1), 1.0),
            ("2.5", Fraction(5, 2), 2.5, mpf("2.5"), Binary(5, -1)),
        ], 1):
            values = [stieltjes_gamma(0, u, ctx30) for u in spellings]
            assert row_cache() == (rows, 4 * rows)
            assert all(v._mpf_ == values[0]._mpf_ for v in values)

    @pytest.mark.parametrize(
        "other",
        [
            PrecisionContext(digits=31),
            PrecisionContext(digits=30, guard_digits=11),
        ],
        ids=["digits", "guard_digits"],
    )
    def test_each_context_field_is_part_of_the_key(self, ctx30, other):
        stieltjes_gamma(0, 1, ctx30)
        stieltjes_gamma(0, 1, other)
        assert row_cache() == (2, 0)

    def test_convergence_error_is_not_cached(self, monkeypatch):
        ctx = PrecisionContext(digits=10)
        monkeypatch.setattr(stieltjes_module, "_series_length", lambda *args: SHORT_ROW)
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                stieltjes_gamma(0, 1, ctx)
        assert row_cache() == (1, 1)  # the second call ran the series again
        assert stieltjes_module._gamma_row(stieltjes_module.Binary(1), ctx).values == {}
        # a row of the bound's own length sums the same series to the end
        monkeypatch.undo()
        stieltjes_module._gamma_row.cache_clear()
        gamma = stieltjes_gamma(0, 1, ctx)
        with mp.workdps(60):
            assert abs(gamma - mpf(FROZEN["gamma"])) < mpf("1e-18")


@pytest.mark.usefixtures("fresh_rows")
class TestLogRow:
    """Every gamma_n at one (u, context) sums its series from one row of
    fixed-point logs at one shifted argument."""

    @pytest.mark.parametrize("u", ["1e-20", "0.001"])
    def test_one_row_per_table(self, u):
        # u is rounded once, so the shifted argument is one number for all n
        stieltjes_table(20, PrecisionContext(digits=60), u=u)
        assert row_cache() == (1, 20)

    def test_planted_cap_raises_with_partial_and_index(self, monkeypatch):
        # a row too short for its series: the last of its outer terms at
        # gamma_0(47) lies above the threshold
        monkeypatch.setattr(stieltjes_module, "_series_length", lambda *args: SHORT_ROW)
        with pytest.raises(ConvergenceError) as info:
            stieltjes_gamma(0, 1, PrecisionContext(digits=10))
        assert info.value.index == SHORT_ROW
        # the partial is the series alone, the row's outer terms at 47, summed
        # here from its definition
        with mp.workdps(200):
            want = -double_series(0, 47, SHORT_ROW)
            assert abs(info.value.partial - want) < mpf("1e-24")

    @pytest.mark.parametrize("n", [0, 1, 20])
    def test_the_whole_row_tail_is_the_double_series(self, n):
        # gamma_n(1) at 10 digits runs its series at 47 = ceil(20 ln 10); the
        # dot product with the weights is the double series over every outer
        # term of the row, summed here from its definition, to the working
        # precision of gamma_20: the row's bits less its alloc + 64 extra ones
        ctx = PrecisionContext(digits=10)
        row = make_row("1", ctx)
        assert row.shift == 46
        got = row._tail(n, dps_to_prec(ctx.dps("gamma", n)))
        with mp.workdps(200):
            want = double_series(n, 47, row.alloc)
            err = abs(mp.ldexp(got, -row.prec) - want)
            assert err < mpf(2) ** (row.alloc + 64 - row.prec) * max(1, abs(want))

    @pytest.mark.parametrize("digits", [10, 30, 60])
    @pytest.mark.parametrize("u", ["1e-30", "0.001", "1", "2", "2.5", "57.3", "100", "150", "1e30"])
    def test_logs_and_shifted_sums_match_mpmath(self, u, digits):
        # the row's integers against mpmath at 40 more bits; the logs of an
        # integer u no larger than the row come from the primes (1 and 2 at
        # every digits, and 100 at 60 digits, past the shift target: shift 62,
        # row 191), those of any other u, 150 and 1e30 among them, from the chain
        row = make_row(u, PrecisionContext(digits=digits))
        with mp.workprec(row.prec + 40):
            xs = [mp.fadd(row.u, k, exact=True) for k in range(row.shift + row.alloc)]
            logs = [mp.log(x) for x in xs]
            assert len(row.logs) == len(xs)
            # the 32 guard bits keep the recurrence's rounding out of the
            # last place, so each log is within one unit of it
            for k, (got, want) in enumerate(zip(row.logs, logs)):
                assert abs(got - mp.ldexp(want, row.prec)) < 1 + mpf(2) ** -10, k
            # the term m = 0 of a u < 1 is left to mpf
            for n in (0, 1, 5, 20):
                want = mp.fsum(logs[m] ** n / xs[m] for m in range(row.first, row.shift))
                err = abs(row._shifted(n) - mp.ldexp(want, row.prec))
                # 2^12 units of 2^-prec are 2^-(alloc + 52) units of the
                # working precision of gamma_20
                assert err <= 2**12 * max(1, abs(want)), n

    @pytest.mark.parametrize("u, guard, digits", [
        # ids without a digits suffix are the 60-digit rows
        pytest.param(u, guard, digits, id=f"{name}-{guard}" + ("" if digits == 60 else f"-d{digits}"))
        for digits in (60, 10, 30, 45)
        for name, u in [("tiny", "1e-20"), ("unit", "2.5"), ("moderate", "57.3"),
                        ("huge", "1e30"), ("one", "1"), ("two", "2")]
        for guard in (10, 20)
    ] + [
        # the band where the fixed-point noise of log^21(U) comes closest to
        # the stopping threshold
        pytest.param(u, guard, digits, id=f"band-{u}-{guard}-d{digits}")
        for u in ("1.3e148", "6.5e151") for guard in (45, 60) for digits in (35, 60)
    ])
    def test_a_60_digit_row_never_reallocates(self, u, guard, digits):
        # the row's one allocation, read off the convergence bound, holds
        # every series up to gamma_20: each stops inside the row, which
        # would raise ConvergenceError otherwise, for u from each of the
        # four sweep regimes and the integers 1 and 2, at 60 digits and below
        row = make_row(u, PrecisionContext(digits=digits, guard_digits=guard))
        for n in range(21):
            row.gamma(n)

    @pytest.mark.parametrize("digits", [10, 30, 60])
    @pytest.mark.parametrize("u", ["1", "1e-20", "2.5", "57.3"])
    def test_a_lower_n_restarts_to_the_same_bits(self, u, digits):
        # the terms are carried as running products, one power at a time, so
        # an n below the row's power restarts from the reciprocals; each
        # value keeps the bits of a fresh row asked in order
        ctx = PrecisionContext(digits=digits)
        fresh = make_row(u, ctx)
        want = {n: fresh.gamma(n) for n in range(21)}
        row = make_row(u, ctx)
        for n in (5, 1, 20, 0, 13, 3):
            assert row.gamma(n)._mpf_ == want[n]._mpf_, n
        assert row.power == 3  # the last ask restarted from 0

    def test_a_planted_short_row_raises_and_caches_nothing(self, monkeypatch):
        # a row whose bound were short fails loudly instead of growing
        monkeypatch.setattr(stieltjes_module, "_series_length", lambda *args: 3)
        ctx = PrecisionContext(digits=10)
        for _ in range(2):
            with pytest.raises(ConvergenceError) as info:
                stieltjes_gamma(0, 1, ctx)
            assert info.value.index == 3
        assert row_cache() == (1, 1)  # the second call ran the series again

    @pytest.mark.parametrize("u", ["1e-100000000", "1e-100000", "1e100000", "1e100000000"])
    def test_extreme_exponents_stay_cheap(self, u):
        # the row's integers keep the size of its precision whatever the
        # exponent of u: log^n(u)/u of a tiny u is divided in mpf, and the
        # log chain of a huge u stops growing at 2^(2 bits)
        ctx = PrecisionContext(digits=60)
        start = time.process_time()
        values = stieltjes_table(20, ctx, u=u)
        assert time.process_time() - start < 5
        with mp.workdps(ctx.digits + 20):
            x = mpf(u)
            for n in (0, 1, 5, 20):
                # the terms left out are below 10^-99990 of these, relative
                if x < 1:
                    want = mp.log(x) ** n / x
                else:
                    want = -mp.log(x) ** (n + 1) / (n + 1)
                assert abs(exact(values[n]) - want) <= mpf(10) ** -ctx.digits * abs(want), n


class TestSeriesLength:
    """The row length _series_length reads off the convergence bound."""

    @pytest.mark.parametrize("u, digits, want", [
        (1, 30, 90), (1, 60, 126), (10**30, 60, 5),
    ])
    def test_module_docstring_figures(self, u, digits, want):
        ctx = PrecisionContext(digits=digits)
        # U = u shifted to ceil(working_dps ln 10), or u itself past it
        big_u = max(u, math.ceil(ctx.working_dps * math.log(10)))
        got = stieltjes_module._series_length(math.log(big_u), ctx.digits + ctx.guard_digits, 20)
        assert got == want
        assert make_row(str(u), ctx).alloc == want

    # U at or past the shift target ceil(120 ln 10) = 277 of the largest
    # stop_digits, as every row has it
    @pytest.mark.parametrize("log_u", [math.log(277), math.log(1000), 30 * math.log(10),
                                       1e8 * math.log(10)])
    def test_never_decreases_in_stop_digits_or_max_n(self, log_u):
        lengths = [[stieltjes_module._series_length(log_u, stop, max_n) for max_n in range(21)]
                   for stop in range(10, 121, 5)]
        for row in lengths:
            assert row == sorted(row)
        for column in zip(*lengths):
            assert list(column) == sorted(column)


class TestTailWeights:
    """The exact weights every gamma series sums its row with."""

    @pytest.mark.parametrize("length", [*range(1, 13), 90, 126])
    def test_weights_are_the_swapped_double_sum(self, length):
        scale, weights, last = stieltjes_module._tail_weights(length)
        assert scale == math.lcm(*range(1, length + 1))
        for j in range(length):
            w = sum(Fraction(math.comb(i, j), i + 1) for i in range(j, length))
            assert weights[j] == (-1) ** j * scale * w, j
        assert last == [(-1) ** j * math.comb(length - 1, j) for j in range(length)]

    def test_one_pass_matches_the_pascal_pass(self):
        # a row at u = 1 is 126 terms long at 60 digits, 189 with 60 guard
        # digits; 250 reaches past both
        one_pass = stieltjes_module._tail_weights.__wrapped__
        for length in range(1, 251):
            assert one_pass(length) == pascal_weights(length), length

    @pytest.mark.usefixtures("fresh_rows")
    def test_planted_hockey_stick_weights_fail_the_normalization(self, monkeypatch):
        # C(I+1, j+1)/(j+1) in place of sum_{i>=j} C(i,j)/(i+1) sums the
        # constant 1 to H_(I+1), not 1, so the report must catch it
        exact = stieltjes_module._tail_weights

        def hockey_stick(length):
            scale, _, last = exact(length)
            return scale, [(-1) ** j * scale * math.comb(length, j + 1) // (j + 1)
                           for j in range(length)], last

        monkeypatch.setattr(stieltjes_module, "_tail_weights", hockey_stick)
        ctx = PrecisionContext(digits=10)
        (check,) = [r for r in verify.suite_stieltjes(ctx, default_tol(ctx))
                    if r.identity == "hasse-normalization-delta"]
        assert not check.passed


def pascal_weights(length):
    """_tail_weights(length) from one Pascal pass: row i of signed binomials
    (-1)^j C(i, j) adds D/(i+1) times itself to the weights, O(I^2) steps."""
    scale = math.lcm(*range(1, length + 1))
    weights, row = [0] * length, []
    for i in range(length):
        # (-1)^j C(i, j) = (-1)^j C(i-1, j) - (-1)^(j-1) C(i-1, j-1)
        row = [a - b for a, b in zip(row + [0], [0] + row)] if row else [1]
        weights[:i + 1] = [w + c * (scale // (i + 1)) for w, c in zip(weights, row)]
    return scale, weights, row


# (low, high) of u, drawn log-uniformly: the four gamma-sweep regimes (tiny,
# unit, moderate, huge) and the band where the fixed-point noise of
# log^21(U) comes closest to the stopping threshold
SEEDED_REGIMES = ((1e-30, 1e-3), (0.5, 5.0), (5.0, 100.0), (1e6, 1e300), (1e140, 1e180))


@pytest.mark.usefixtures("fresh_rows")
def test_seeded_rows_sum_to_their_end():
    # every series of 60 seeded rows, gamma_0 .. gamma_20, ends its row with
    # a last outer term below the threshold; ConvergenceError would fail the
    # test, which takes about 0.7 s of CPU
    rng = random.Random(2121)
    for _ in range(12):
        for low, high in SEEDED_REGIMES:
            u = f"{10 ** rng.uniform(math.log10(low), math.log10(high)):.6g}"
            ctx = PrecisionContext(digits=rng.randint(10, 60), guard_digits=rng.randint(5, 60))
            row = make_row(u, ctx)
            for n in range(21):
                row.gamma(n)


def double_series(n, x, length):
    """sum_{i<length} sum_{j<=i} C(i,j) (-1)^j log^(n+1)(x + j) / (i + 1) in
    the current precision."""
    logs = [mp.log(x + j) ** (n + 1) for j in range(length)]
    return mp.fsum(
        mp.fsum(math.comb(i, j) * (-1) ** j * logs[j] for j in range(i + 1)) / (i + 1)
        for i in range(length)
    )


def make_row(u, ctx):
    """A fresh gamma row at u, converted as stieltjes_gamma converts it."""
    return stieltjes_module._GammaRow(stieltjes_module._row_u(u, ctx), ctx)


@pytest.mark.parametrize("u", ["1", "2.5", "0.001", "1e30"])
def test_against_mpmath_quadrature(u):
    # mpmath's stieltjes integrates numerically and shares no code with the
    # double series; every entry must agree to digits - 1 relative digits
    ctx = PrecisionContext(digits=60)
    for n in (0, 1, 5, 10, 20):
        got = stieltjes_gamma(n, u, ctx)
        with mp.workdps(ctx.digits + 10):
            ref = mp.stieltjes(n, mpf(u))
            assert abs(got - ref) <= mpf(10) ** (1 - ctx.digits) * abs(ref), (n, u)
