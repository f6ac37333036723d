import pytest
from mpmath import mp, mpf

from zkconst import kernel, precision, stieltjes, zeta_derivs
from zkconst.chain import table
from zkconst.precision import PrecisionContext, roundtrip_decimal
from zkconst.reports import default_tol, equality_report
from zkconst.stieltjes import ConstantTable, family


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


class TestBigReal:
    # values are plain mpf; the package refuses inf and nan where one leaves it
    def test_finite_required(self, ctx30):
        for bad in (mp.inf, mp.nan):
            with pytest.raises(ValueError, match="finite"):
                ConstantTable.of("gamma", [bad], "hasse-2.8", ctx30)
            with pytest.raises(ValueError, match="finite"):
                equality_report("x", bad, mpf(0), default_tol(ctx30), ctx30)


def test_roundtrip_decimal_reparses_to_run_precision():
    ctx = PrecisionContext(digits=30)
    with mp.workdps(ctx.working_dps + 25):
        value = mp.sqrt(2) / mp.pi
    s = roundtrip_decimal(value, ctx)
    with mp.workdps(ctx.working_dps):
        assert mpf(s) == +value


# sigma_13..sigma_20 lose digits to the gamma series' truncation at
# 10^-(digits + guard), which no budget row reaches; see the FOUND line on
# sigma in CHANGES.md
FAMILY_CASES = ["gamma", "eta", "lambda", "xi1", "zeta0", pytest.param(
    "sigma", marks=pytest.mark.xfail(strict=True, reason="sigma_13..20 (FOUND)"))]


def _printed(kind, ctx):
    """The `kind` table at its cap, as `zkconst table` prints it."""
    return [mp.nstr(v, ctx.digits, strip_zeros=False)
            for _, v, _ in table(kind, family(kind)[1], ctx)]


@pytest.fixture
def clear_memos():
    """Clears the memos (the gamma rows, the CRVZ weight rows, zeta(n) and
    the gamma derivatives), which are keyed by context or dps, not by the
    budget, before and after the test; the test may call it in between."""
    def clear():
        stieltjes._gamma_row.cache_clear()
        kernel._crvz_weights.cache_clear()
        kernel._zeta_int_raw.cache_clear()
        zeta_derivs._gamma_derivs_memo.cache_clear()

    clear()
    yield clear
    clear()


@pytest.mark.parametrize("kind", FAMILY_CASES)
def test_budget_has_headroom(kind, clear_memos, monkeypatch):
    # ten more digits on every budget row changes no printed digit
    before = {d: _printed(kind, PrecisionContext(d)) for d in (10, 30)}
    raised = {step: (per_index, fixed + 10)
              for step, (per_index, fixed) in precision._BUDGET.items()}
    monkeypatch.setattr(precision, "_BUDGET", raised)
    clear_memos()
    assert {d: _printed(kind, PrecisionContext(d)) for d in (10, 30)} == before


@pytest.mark.parametrize("kind", FAMILY_CASES)
def test_tables_match_a_wide_guard_reference(kind):
    for d in (10, 30):
        assert _printed(kind, PrecisionContext(d)) == _printed(
            kind, PrecisionContext(d, guard_digits=30))


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
        # the only check between a computed value and the printed table
        for bad in (mp.inf, -mp.inf, mp.nan):
            with pytest.raises(ValueError, match="finite"):
                ConstantTable.of("gamma", [mpf(1), bad], "hasse-2.8", ctx30)

    def test_of_starts_at_family_index(self, ctx30):
        starts = {"gamma": 0, "eta": 0, "sigma": 1, "lambda": 1, "xi1": 1, "zeta0": 0}
        for kind, start in starts.items():
            table = ConstantTable.of(kind, [mpf(1), mpf(2)], "t", ctx30)
            assert [n for n, _, _ in table] == [start, start + 1]
            assert table.digits == 30

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
        assert float(table.mpf(1)) == 2.0
        with pytest.raises(ValueError):
            table.mpf(2)
