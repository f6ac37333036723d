import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from oracles import FROZEN, em_gamma_table
from zkconst import stieltjes as stieltjes_module
from zkconst.precision import ConvergenceError, PrecisionContext
from zkconst.stieltjes import (
    GAMMA_TAG,
    alternating_binomial_sum,
    stieltjes_gamma,
    stieltjes_table,
)


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
                assert abs(table.mpf(n) - em_gammas[n]) < tol


class TestTableShape:
    def test_single_entry_table_is_gamma(self, ctx30, em_gammas):
        table = stieltjes_table(0, ctx30)
        assert [n for n, _, _ in table] == [0]
        with mp.workdps(60):
            assert abs(table.mpf(0) - em_gammas[0]) < mpf("1e-38")

    def test_contiguous_indices(self, ctx30):
        table = stieltjes_table(2, ctx30)
        assert [n for n, _, _ in table] == [0, 1, 2]

    def test_method_tags(self, ctx30):
        table = stieltjes_table(2, ctx30)
        assert all(method == GAMMA_TAG for _, _, method in table)


class TestInnerSumNormalization:
    def test_constant_one_collapses_to_kronecker_delta(self):
        # i = 0 inner sum of the all-ones sequence is 1; every i >= 1 is 0
        assert alternating_binomial_sum([1], [1]) == 1
        for i in range(1, 16):
            row = [math.comb(i, j) for j in range(i + 1)]
            assert alternating_binomial_sum(row, [1] * (i + 1)) == 0


class TestStability:
    def test_precision_escalation(self):
        lo = PrecisionContext(digits=30)
        hi = PrecisionContext(digits=50)
        with mp.workdps(70):
            diff = abs(
                stieltjes_gamma(0, 1, lo) - stieltjes_gamma(0, 1, hi)
            )
            assert diff < mpf(10) ** (-(30 - 2))

    @pytest.mark.parametrize("n", [1, 3])
    def test_guard_digit_stability(self, n):
        base = PrecisionContext(digits=30, guard_digits=10)
        wide = PrecisionContext(digits=30, guard_digits=20)
        with mp.workdps(70):
            diff = abs(
                stieltjes_gamma(n, 1, base)
                - stieltjes_gamma(n, 1, wide)
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

    def test_index_cap(self, ctx30):
        with pytest.raises(ValueError):
            stieltjes_gamma(21, 1, ctx30)
        with pytest.raises(ValueError):
            stieltjes_table(21, ctx30)

    def test_digits_cap(self):
        ctx = PrecisionContext(digits=70)
        with pytest.raises(ValueError):
            stieltjes_gamma(0, 1, ctx)

    def test_convergence_error_carries_partial(self, ctx30):
        # a series that cannot meet its tolerance within the cap is simulated
        # by replacing the double-series tail with one that always gives up
        from zkconst import stieltjes as module

        module._gamma_memo.cache_clear()
        original = module._hasse_tail

        def strangled(n, big_u, ctx):
            raise ConvergenceError("forced", partial=mpf(0), index=7)

        module._hasse_tail = strangled
        try:
            with pytest.raises(ConvergenceError) as info:
                stieltjes_gamma(0, 1, ctx30)
            assert info.value.index == 7
            with pytest.raises(ConvergenceError) as info2:
                stieltjes_table(1, ctx30)
            assert info2.value.index == 0  # failing table index
        finally:
            module._hasse_tail = original


class TestMemo:
    """gamma_n(u) is memoised on (n, u at working precision, context)."""

    @pytest.fixture
    def tail_calls(self, monkeypatch):
        stieltjes_module._gamma_memo.cache_clear()
        calls = []
        original = stieltjes_module._hasse_tail

        def counted(n, big_u, ctx):
            calls.append((n, ctx))
            return original(n, big_u, ctx)

        monkeypatch.setattr(stieltjes_module, "_hasse_tail", counted)
        yield calls
        stieltjes_module._gamma_memo.cache_clear()

    def test_spellings_of_one_u_share_an_entry(self, ctx30, tail_calls):
        values = [
            stieltjes_gamma(0, u, ctx30)
            for u in (1, "1", Fraction(1), mpf(1), 1.0)
        ]
        assert len(tail_calls) == 1
        assert all(v is values[0] for v in values)

    @pytest.mark.parametrize(
        "other",
        [
            PrecisionContext(digits=31),
            PrecisionContext(digits=30, guard_digits=11),
        ],
        ids=["digits", "guard_digits"],
    )
    def test_each_context_field_is_part_of_the_key(self, ctx30, other, tail_calls):
        stieltjes_gamma(0, 1, ctx30)
        stieltjes_gamma(0, 1, other)
        assert tail_calls == [(0, ctx30), (0, other)]

    def test_convergence_error_is_not_cached(self, ctx30, monkeypatch, tail_calls):
        def strangled(n, big_u, ctx):
            tail_calls.append((n, ctx))
            raise ConvergenceError("forced", partial=mpf(0), index=7)

        monkeypatch.setattr(stieltjes_module, "_hasse_tail", strangled)
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                stieltjes_gamma(0, 1, ctx30)
        assert len(tail_calls) == 2


class TestLogRow:
    """Every gamma_n at one (u, context) sums its series from one row of
    fixed-point logs at one shifted argument."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        stieltjes_module._gamma_memo.cache_clear()
        stieltjes_module._log_row.cache_clear()
        yield
        stieltjes_module._gamma_memo.cache_clear()
        stieltjes_module._log_row.cache_clear()

    @staticmethod
    def misses():
        return stieltjes_module._log_row.cache_info().misses

    @pytest.mark.parametrize("u", ["1e-20", "0.001"])
    def test_one_row_per_table(self, u):
        # u is rounded once, so the shifted argument is one number for all n
        before = self.misses()
        stieltjes_table(20, PrecisionContext(digits=60), u=u)
        assert self.misses() == before + 1

    def test_arguments_with_one_shift_target_share_a_row(self, ctx30):
        # u = 1 and u = 2 are both shifted to working_dps + 2
        stieltjes_gamma(0, 1, ctx30)
        before = self.misses()
        stieltjes_gamma(0, 2, ctx30)
        assert self.misses() == before

    def test_planted_cap_raises_with_partial_and_index(self, monkeypatch):
        # no run of small terms is long enough, so the series hits its cap
        # 10 * (10 + 10) * (0 + 2) = 400 at gamma_0(22), 22 = working_dps + 2
        monkeypatch.setattr(stieltjes_module, "CONSECUTIVE_SMALL", 10**9)
        with pytest.raises(ConvergenceError) as info:
            stieltjes_gamma(0, 1, PrecisionContext(digits=10))
        assert info.value.index == 401
        with mp.workdps(40):
            want = mpf("-3.068143039861196669924876")
            assert abs(info.value.partial - want) < mpf("1e-24")


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
