import pytest
from exact import exact
from memos import clear_package_memos, package_memos
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec as mpmath_dps_to_prec

from zkconst import chain, precision, stieltjes
from zkconst.chain import table
from zkconst.eta_sigma import eta_from_gamma, eta_from_gamma_coffey, gamma_from_eta, sigma_table
from zkconst.li_keiper import lambda_table, lambda_via_coffey, lambda_via_eta_psi, positivity_report
from zkconst.precision import FAMILIES, ConvergenceError, PrecisionContext, check_index, family
from zkconst.reports import default_tol, equality_report, roundtrip_decimal
from zkconst.stieltjes import ConstantTable, stieltjes_gamma
from zkconst.xi import xi_deriv_recurrence, xi_table
from zkconst.zeta_derivs import zeta_derivs_at_zero, zeta_derivs_log_chain


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


def test_dps_to_prec_is_mpmaths():
    # the package's one digits-to-bits rule, on the standard library, is
    # mpmath's own
    assert [precision.dps_to_prec(d) for d in range(1, 401)] == [
        mpmath_dps_to_prec(d) for d in range(1, 401)]


@pytest.mark.parametrize("digits, guard", [(10, 10), (30, 10), (60, 10), (30, 30)])
def test_dps_is_working_dps_plus_the_row(digits, guard):
    # ctx.dps is the one place a budget row meets working_dps, and it gives
    # every step the integer working_dps + extra_digits(step, n)
    ctx = PrecisionContext(digits, guard)
    for step in precision._BUDGET:
        for n in range(21):
            assert ctx.dps(step, n) == ctx.working_dps + precision.extra_digits(step, n), (step, n)
    # the zeta0 solve precision: the per-index row 2n + 10 it replaced, read
    # at the cap n = 10
    assert ctx.dps("zeta0") == ctx.working_dps + 30


class TestBigReal:
    # values are plain mpf; the package refuses inf and nan where one leaves it
    def test_finite_required(self, ctx30):
        for bad in (mp.inf, mp.nan):
            with pytest.raises(ValueError, match="finite"):
                ConstantTable.of("gamma", [bad], "hasse-2.8", ctx30)
            with pytest.raises(ValueError, match="finite"):
                equality_report("x", bad, mpf(0), default_tol(ctx30), ctx30)


class TestCheckIndex:
    def test_wording(self):
        check_index(60, "digits", 10, 60)
        check_index(7, "n", 0)
        with pytest.raises(ValueError, match=r"^digits must lie in \[10, 60\]$"):
            check_index(61, "digits", 10, 60)
        with pytest.raises(ValueError, match=r"^n must be an integer >= 0$"):
            check_index(-1, "n", 0)
        for bad in (1.0, "1", None):
            with pytest.raises(ValueError):
                check_index(bad, "n", 0)

    # True would pass for 1 wherever an index is only compared (run_suite's
    # tol_exp is covered in test_reports)
    @pytest.mark.parametrize("call", [
        lambda ctx, chain: table("gamma", True, ctx),
        lambda ctx, chain: stieltjes_gamma(True, 1, ctx),
        lambda ctx, chain: positivity_report(True, ctx),
        lambda ctx, chain: lambda_via_eta_psi(True, chain["etas"]),
        lambda ctx, chain: chain["gammas"][True],
    ], ids=["table", "stieltjes_gamma", "positivity_report", "lambda_via_eta_psi",
            "ConstantTable[]"])
    def test_bool_is_refused(self, call, ctx30, chain30):
        with pytest.raises(ValueError):
            call(ctx30, chain30)


@pytest.mark.parametrize("digits", [10, 30, 60])
@pytest.mark.parametrize("kind", FAMILIES)
def test_tables_are_prefix_stable(kind, digits, clear_memos):
    # a step map maps the whole table it is given, so the table up to m must
    # be the first entries of the table at the cap, exactly: the invariant
    # that lets the table memo serve a shorter request as a prefix.  Every
    # build here is fresh, not a prefix of the memoised one.
    ctx = PrecisionContext(digits)
    start, cap = family(kind)
    full = table(kind, cap, ctx).values
    for m in range(start, cap):
        clear_memos()
        assert table(kind, m, ctx).values == full[:m - start + 1], f"m={m}"


@pytest.mark.parametrize("digits, guard", [(10, 10), (30, 10), (60, 10), (30, 25)])
def test_every_map_computes_under_its_tables_context(digits, guard):
    # no map takes a context: each returns a table at its input's, and
    # chain.table's table is the map of chain.table's table below it
    ctx = PrecisionContext(digits, guard)
    gammas, etas, sigmas = (table(kind, 4, ctx) for kind in ("gamma", "eta", "sigma"))
    for step, below in [(eta_from_gamma, gammas), (eta_from_gamma_coffey, gammas),
                        (gamma_from_eta, etas), (sigma_table, etas), (lambda_table, sigmas),
                        (xi_table, sigmas), (xi_deriv_recurrence, sigmas),
                        (zeta_derivs_at_zero, gammas), (zeta_derivs_log_chain, etas)]:
        assert step(below).ctx == ctx, step.__name__
    assert eta_from_gamma(gammas) == etas
    assert sigma_table(table("eta", 3, ctx)) == sigmas
    assert lambda_table(sigmas) == table("lambda", 4, ctx)
    assert xi_table(sigmas) == table("xi1", 4, ctx)
    assert zeta_derivs_at_zero(table("gamma", 3, ctx)) == table("zeta0", 4, ctx)


class TestTableMemo:
    def test_a_failed_build_stores_nothing(self, clear_memos, monkeypatch):
        ctx = PrecisionContext(10)
        monkeypatch.setattr(stieltjes, "_series_length", lambda *args: 3)
        with pytest.raises(ConvergenceError):
            table("lambda", 5, ctx)
        assert chain._longest.cache_info().currsize == 4  # one holder per family built
        one = stieltjes._row_u(1, ctx)  # the u gamma's holder is keyed on
        assert all(chain._longest(kind, ctx, one if kind == "gamma" else None).table is None
                   for kind in ("gamma", "eta", "sigma", "lambda"))
        assert chain._longest.cache_info().currsize == 4

    def test_one_entry_per_u_as_the_gamma_row_reads_it(self, clear_memos):
        # four spellings of one u at the row's precision share one table
        # and one gamma row
        ctx = PrecisionContext(20)
        tables = [table("gamma", 20, ctx, u=raw) for raw in ("0.1", "0.10", " 0.1", "1/10")]
        assert chain._longest.cache_info().currsize == 1
        assert stieltjes._gamma_row.cache_info().currsize == 1
        assert all(t.values == tables[0].values for t in tables)


def test_roundtrip_decimal_reparses_to_run_precision():
    ctx = PrecisionContext(digits=30)
    with mp.workdps(ctx.working_dps + 25):
        value = mp.sqrt(2) / mp.pi
    s = roundtrip_decimal(value, ctx)
    with mp.workdps(ctx.working_dps):
        assert mpf(s) == +value


def _printed(kind, ctx):
    """The `kind` table at its cap, as `zkconst table` prints it."""
    return [mp.nstr(v, ctx.digits, strip_zeros=False)
            for v in table(kind, family(kind)[1], ctx).values]


@pytest.fixture
def clear_memos():
    """Clears every memo of the package (the gamma rows, the chain's tables,
    zeta(n), the atoms and the rest, which are keyed by context or dps, not
    by the budget) before and after the test; the test may call it in
    between."""
    clear_package_memos()
    yield clear_package_memos
    clear_package_memos()


def test_every_memo_is_found_and_bounded():
    # the exact set, so that a new memo is added here on purpose
    names = {name: memo.cache_info().maxsize for name, memo in package_memos()}
    assert set(names) == {
        "bell._partition_terms", "chain._longest", "kernel.atoms", "kernel._crvz_weights",
        "kernel._polygamma_memo", "stieltjes._tail_weights", "stieltjes._gamma_row",
        "zeta_derivs._apostol_weights"}
    assert all(maxsize is not None for maxsize in names.values()), names


def test_clear_memos_reaches_every_table(clear_memos, monkeypatch):
    # with no budget digits the 10-digit sigma table moves; a memo that
    # clear_memos missed would serve the old table, and the budget test
    # below would pass whatever the budget
    ctx = PrecisionContext(10)
    before = table("sigma", family("sigma")[1], ctx).values
    monkeypatch.setattr(precision, "_BUDGET", {step: (0, 0) for step in precision._BUDGET})
    clear_memos()
    assert table("sigma", family("sigma")[1], ctx).values != before


@pytest.mark.parametrize("kind", ["gamma", "eta", "sigma", "lambda", "xi1", "zeta0"])
def test_budget_has_headroom(kind, clear_memos, monkeypatch):
    # ten more digits on every budget row changes no printed digit
    before = {d: _printed(kind, PrecisionContext(d)) for d in (10, 30)}
    raised = {step: (per_index, fixed + 10)
              for step, (per_index, fixed) in precision._BUDGET.items()}
    monkeypatch.setattr(precision, "_BUDGET", raised)
    clear_memos()
    assert {d: _printed(kind, PrecisionContext(d)) for d in (10, 30)} == before


@pytest.mark.parametrize("kind", ["gamma", "eta", "sigma", "lambda", "xi1", "zeta0"])
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

    def test_empty_table_rejected(self, ctx30):
        # no step map can return one: each maps a table of at least one entry
        with pytest.raises(ValueError, match="at least one value"):
            ConstantTable.of("eta", [], "recurrence-4.4", ctx30)

    def test_no_table_reaches_past_its_cap(self, ctx30):
        # sigma_1 .. sigma_21 from eta_0 .. eta_20 would lie past every
        # budget row and every check of the sigma family
        with pytest.raises(ValueError, match=r"last index of a sigma table must lie in \[1, 20\]"):
            sigma_table(table("eta", 20, ctx30))
        with pytest.raises(ValueError, match=r"last index of a gamma table must lie in \[0, 20\]"):
            ConstantTable.of("gamma", [mpf(1)] * 22, "t", ctx30)

    def test_a_map_refuses_what_is_not_a_table(self):
        with pytest.raises(ValueError, match="^eta_from_gamma needs a gamma table$"):
            eta_from_gamma([mpf(1)])
        with pytest.raises(ValueError, match="^lambda_via_coffey needs an eta table$"):
            lambda_via_coffey(3, (mpf(1),) * 4)

    def test_unknown_kind(self, ctx30):
        with pytest.raises(ValueError):
            ConstantTable.of("mystery", [], "hasse-2.8", ctx30)

    @pytest.mark.parametrize("values", [[1, 2], [0.5], ["0.1"]], ids=["int", "float", "str"])
    def test_values_must_be_binary_or_mpf(self, ctx30, values):
        # a value with no _mpf_ is a bad input, not an internal error
        with pytest.raises(ValueError, match="must be a Binary or an mpf, not "):
            ConstantTable.of("sigma", values, "closed-2.13", ctx30)

    def test_values_must_be_finite(self, ctx30):
        # the only check between a computed value and the printed table
        for bad in (mp.inf, -mp.inf, mp.nan):
            with pytest.raises(ValueError, match="finite"):
                ConstantTable.of("gamma", [mpf(1), bad], "hasse-2.8", ctx30)

    def test_of_starts_at_family_index(self, ctx30):
        starts = {"gamma": 0, "eta": 0, "sigma": 1, "lambda": 1, "xi1": 1, "zeta0": 0}
        for kind, start in starts.items():
            table = ConstantTable.of(kind, [mpf(1), mpf(2)], "t", ctx30)
            assert [n for n, _, _ in table.rows()] == [start, start + 1]
            assert table.ctx.digits == 30

    def test_of_one_tag_for_every_entry(self, ctx30):
        table = ConstantTable.of("eta", [mpf(1)] * 3, "recurrence-4.4", ctx30)
        assert [method for _, _, method in table.rows()] == ["recurrence-4.4"] * 3

    def test_of_keeps_per_entry_tags(self, ctx30):
        tags = ["closed-2.13", "eta-zeta-s4", "eta-zeta-s4"]
        table = ConstantTable.of("sigma", [mpf(1)] * 3, tags, ctx30)
        assert [method for _, _, method in table.rows()] == tags

    def test_of_rejects_tag_count_mismatch(self, ctx30):
        with pytest.raises(ValueError):
            ConstantTable.of("sigma", [mpf(1)] * 3, ["closed-2.13", "eta-zeta-s4"], ctx30)

    def test_value_range(self, ctx30):
        table = ConstantTable.of("gamma", [mpf(1), mpf(2)], "hasse-2.8", ctx30)
        assert float(exact(table[1])) == 2.0
        with pytest.raises(ValueError):
            table[2]
