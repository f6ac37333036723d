import pytest
from mpmath import mp, mpf

from zkconst.precision import BigReal, PrecisionContext, roundtrip_decimal
from zkconst.stieltjes import ConstantTable


class TestPrecisionContext:
    def test_defaults(self):
        ctx = PrecisionContext()
        assert ctx.digits == 30
        assert ctx.guard_digits == 10
        assert ctx.working_dps == 40

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"digits": 9},
            {"digits": 30, "guard_digits": 4},
            {"digits": 30, "guard_digits": 10.0},
            {"digits": 30.0},
        ],
    )
    def test_invariant_violations_raise(self, kwargs):
        with pytest.raises(ValueError):
            PrecisionContext(**kwargs)

    def test_series_tol_bounds(self):
        for digits in (10, 30, 60):
            ctx = PrecisionContext(digits=digits)
            tol = ctx.series_tol
            assert tol > 0
            with mp.workdps(ctx.working_dps + 10):
                assert tol < mpf(10) ** (-digits)
                assert tol == mpf(10) ** (-(digits + ctx.guard_digits))

    def test_escalated(self):
        ctx = PrecisionContext(digits=30).escalated(20)
        assert ctx.digits == 50
        assert ctx.guard_digits == 10


class TestBigReal:
    def test_finite_required(self):
        with mp.workdps(30):
            with pytest.raises(ValueError):
                BigReal(value=mp.inf, digits=30)
            with pytest.raises(ValueError):
                BigReal(value=mp.nan, digits=30)

    def test_decimal_and_float(self):
        with mp.workdps(40):
            b = BigReal(value=mpf(1) / 3, digits=30)
        assert b.decimal(5).startswith("0.3333")
        assert abs(float(b) - 1 / 3) < 1e-15

    def test_roundtrip_decimal_reparses_to_run_precision(self):
        ctx = PrecisionContext(digits=30)
        with mp.workdps(ctx.working_dps + 25):
            value = mp.sqrt(2) / mp.pi
        s = roundtrip_decimal(value, ctx)
        with mp.workdps(ctx.working_dps):
            assert mpf(s) == +value


class TestConstantTable:
    def test_natural_starts(self, ctx30):
        starts = {"gamma": 0, "eta": 0, "sigma": 1, "lambda": 1, "xi1": 1, "zeta0": 0}
        for kind, start in starts.items():
            table = ConstantTable.of(kind, [mpf(1), mpf(2)], "hasse-2.8", ctx30)
            assert table.start == start
            assert table.max_n == start + 1

    def test_method_tag_required(self, ctx30):
        with pytest.raises(ValueError):
            ConstantTable.of("gamma", [mpf(1)], "", ctx30)

    def test_unknown_kind(self, ctx30):
        with pytest.raises(ValueError):
            ConstantTable.of("mystery", [], "hasse-2.8", ctx30)

    def test_values_must_be_finite(self, ctx30):
        with pytest.raises(ValueError):
            ConstantTable.of("gamma", [mpf(1), mp.inf], "hasse-2.8", ctx30)

    def test_of_starts_at_family_index(self, ctx30):
        starts = {"gamma": 0, "eta": 0, "sigma": 1, "lambda": 1, "xi1": 1, "zeta0": 0}
        for kind, start in starts.items():
            table = ConstantTable.of(kind, [mpf(1), mpf(2)], "t", ctx30)
            assert [n for n, _, _ in table] == [start, start + 1]
            assert table.digits == 30
            assert all(value.digits == 30 for _, value, _ in table)

    def test_of_one_tag_for_every_entry(self, ctx30):
        table = ConstantTable.of("eta", [mpf(1)] * 3, "recurrence-4.4", ctx30)
        assert [method for _, _, method in table] == ["recurrence-4.4"] * 3

    def test_of_keeps_per_entry_tags(self, ctx30):
        tags = ["closed-2.13", "eta-zeta-s4", "eta-zeta-s4"]
        table = ConstantTable.of("sigma", [mpf(1)] * 3, tags, ctx30)
        assert [method for _, _, method in table] == tags

    def test_of_rejects_tag_count_mismatch(self, ctx30):
        with pytest.raises(ValueError):
            ConstantTable.of("sigma", [mpf(1)] * 3, ["closed-2.13", "eta-zeta-s4"], ctx30)

    def test_value_range(self, ctx30):
        table = ConstantTable.of("gamma", [mpf(1), mpf(2)], "hasse-2.8", ctx30)
        assert float(table.value(1)) == 2.0
        with pytest.raises(ValueError):
            table.value(2)
