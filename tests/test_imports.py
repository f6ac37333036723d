"""Every name a package module imports is used in that module.

No linter ships with the package, so this stdlib check keeps refactors from
leaving dead imports behind.  Names listed in a module's __all__ count as
used, which covers the names __init__ resolves through its __getattr__; so
every such name must also resolve on its module, or a removed function could
linger in __all__.  Likewise every module-level private function, class or
assignment must be referenced somewhere in the package outside its own
definition, every working precision outside precision.py is ctx.working_dps
or ctx.dps(step, n), no module but precision.py and bell.py tests for an int itself, no
file under src/ holds an assert statement, imports mpmath or imports
inside a function, no code but stieltjes.Binary reads an mpf's _mpf_, and
no function takes both a ConstantTable and a PrecisionContext.

The package registers its modules lazily: importing it executes none of
them, and a command's startup cost is the modules its route executes.  So
the startup checks run commands in fresh processes: `table --seq gamma` executes exactly cli,
chain, precision and stieltjes and loads neither mpmath nor fractions, every
table, li-check and every verify suite load no mpmath, no table or li-check
loads fractions, no table or li-check command executes verify, --help
executes only cli and precision, no command loads dataclasses or inspect,
help and the usage errors load no fractions either, and json is loaded
only by --format json.
"""
import ast
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import zkconst
from zkconst.precision import FAMILIES, SUITES

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "zkconst"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            # only a literal list exports names; a computed __all__ exports none
            exported |= {ast.literal_eval(e) for e in node.value.elts}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nsys.exit(pi)\n"
    assert unused_imports(source) == ["os"]
    computed = ("from math import e, pi\n_HOMES = {'math': ('pi',)}\n"
                "__all__ = [n for names in _HOMES.values() for n in names]\n")
    assert unused_imports(computed) == ["e", "pi"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unresolved_exports(module) -> list:
    """Names in module.__all__ that are not attributes of the module."""
    return sorted(name for name in getattr(module, "__all__", ()) if not hasattr(module, name))


def test_checker_flags_a_stale_export():
    module = types.ModuleType("stub")
    module.f = len
    module.__all__ = ["f", "gone"]
    assert unresolved_exports(module) == ["gone"]


def test_every_export_resolves():
    # __init__ is the one module of the package with an __all__
    assert unresolved_exports(zkconst) == []


def imports_in_functions(sources: dict) -> list:
    """"module:line" of every import statement inside a function.  Every
    package module is registered lazily, so an import at the top of a module
    executes nothing until the imported module is read, and no import cycle
    needs an import deferred into a function."""
    found = set()
    for module, src in sources.items():
        for fn in ast.walk(ast.parse(src)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{module}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    return sorted(found)


def test_checker_flags_an_import_in_a_function():
    source = ("import math\nfrom . import chain\ndef f():\n    from .chain import table\n"
              "class C:\n    import os\n    def g(self):\n        def h():\n"
              "            import sys\n        return h\n")
    assert imports_in_functions({"m": source, "n": "from fractions import Fraction\n"}) == [
        "m:4", "m:9"]


def test_no_import_inside_a_function_under_src():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert sources
    assert imports_in_functions(sources) == []


def _bound_names(node) -> list:
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    names = []
    for target in targets:
        elts = target.elts if isinstance(target, ast.Tuple) else [target]
        names += [e.id for e in elts if isinstance(e, ast.Name)]
    return names


def _references(tree) -> list:
    """Every name read in `tree`: loaded names, attribute names (as in
    module._helper) and names imported from another module."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append(node.id)
        elif isinstance(node, ast.Attribute):
            refs.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs += [a.name for a in node.names]
    return refs


def unreferenced_privates(sources: dict) -> list:
    """Module-level private names, as "module.name", that no module of
    `sources` references outside the statement that defines them."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    everywhere = Counter(ref for tree in trees.values() for ref in _references(tree))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _bound_names(node):
                private = name.startswith("_") and not name.startswith("__")
                if private and everywhere[name] == _references(node).count(name):
                    dead.append(f"{module}.{name}")
    return sorted(dead)


def test_checker_flags_an_unreferenced_private():
    sources = {
        "a": "_SEED = 1\n_A, _B = 2, 3\nclass _Row:\n    pass\n"
             "def _loop(n):\n    return _loop(n - 1)\ndef _used():\n    return _A\n"
             "__all__ = []\n",
        "b": "from . import a\nfrom .a import _Row\nprint(a._used(), _SEED)\n",
    }
    assert unreferenced_privates(sources) == ["a._B", "a._loop"]


def test_every_private_is_referenced():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []


# the functions that may set a working precision outside the budget, and why
BUDGET_EXEMPT = {
    "kernel._CrvzWeights.__init__":
        "the CRVZ row's working digits: the zeta_int row stacked on the "
        "digits zeta_int_mpf asks for, which already read the zeta_atom row, "
        "not on working_dps",
    "stieltjes._GammaRow.__init__":
        "bit margins of the fixed-point log row: alloc bits for the 2^i "
        "cancellation of the inner sums, 64 bits of rounding, 32 guard bits "
        "of the logs, from the prime sieve or the chain, and 16 for the "
        "chain's start u + 1, rounded before its fixed point; sized in bits, "
        "not in digits per step",
}


def _owned_nodes(node, qualname, out):
    """Map each function (or the module) to the nodes in its own body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _owned_nodes(child, f"{qualname}.{child.name}", out)
        else:
            out.setdefault(qualname, []).append(child)
            _owned_nodes(child, qualname, out)
    return out


def _called_name(call):
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def _sum_terms(node) -> list:
    """The terms of a chain of + and -."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return _sum_terms(node.left) + _sum_terms(node.right)
    return [node]


def _is_working_dps(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "working_dps"


def _is_dps_call(node) -> bool:
    return isinstance(node, ast.Call) and _called_name(node) == "dps"


def budget_violations(sources: dict) -> list:
    """Functions, as "module.qualname", outside precision.py that add to or
    subtract from ctx.working_dps, add an integer literal to a ctx.dps(step,
    n) read, call extra_digits, or set a working precision (mp.workdps,
    mp.workprec, extra_dps=) to anything but ctx.working_dps or ctx.dps(step,
    n) itself."""
    owned = {}
    for module, src in sources.items():
        if module != "precision":
            _owned_nodes(ast.parse(src), module, owned)
    bad = set()
    for qualname, nodes in owned.items():
        for node in nodes:
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                terms = _sum_terms(node)
                literal = any(isinstance(t, ast.Constant) and type(t.value) is int for t in terms)
                budget = any(map(_is_dps_call, ast.walk(node)))
                if any(map(_is_working_dps, terms)) or literal and budget:
                    bad.add(qualname)
            if isinstance(node, ast.Call):
                values = [kw.value for kw in node.keywords if kw.arg == "extra_dps"]
                if _called_name(node) in ("workdps", "workprec"):
                    values += node.args[:1]
                budget = all(_is_working_dps(v) or _is_dps_call(v) for v in values)
                if _called_name(node) == "extra_digits" or not budget:
                    bad.add(qualname)
    return sorted(bad)


def test_checker_flags_a_precision_outside_the_budget():
    source = (
        "def planted(ctx):\n    with mp.workdps(ctx.working_dps + 7):\n        pass\n"
        "def literal_step(ctx):\n    return zeta_int_mpf(2, ctx, extra_dps=5)\n"
        "def fixed():\n    with mp.workdps(50):\n        pass\n"
        "def padded(ctx):\n"
        "    with mp.workdps(ctx.working_dps + extra_digits('step') + 1):\n        pass\n"
        "def by_hand(ctx):\n    with mp.workdps(ctx.working_dps + extra_digits('step')):\n"
        "        pass\n"
        "def row_read(n):\n    return extra_digits('gamma', n)\n"
        "def shifted(ctx):\n    return atoms(ctx.dps('step') - 2)\n"
        "def via_local(ctx):\n    dps = ctx.dps('zeta0')\n    with mp.workdps(dps):\n"
        "        pass\n"
        "def budgeted(ctx):\n    with mp.workdps(ctx.dps('step')):\n"
        "        return zeta_int_mpf(2, ctx, extra_dps=ctx.dps('gamma', 3))\n"
        "def plain(ctx):\n    with mp.workdps(ctx.working_dps):\n"
        "        return int(1.32 * ctx.working_dps) + 4\n"
        "class Row:\n    def grow(self):\n        with mp.workprec(self.prec + 16):\n"
        "            pass\n"
    )
    assert budget_violations({"m": source, "precision": source}) == [
        "m.Row.grow", "m.by_hand", "m.fixed", "m.literal_step", "m.padded", "m.planted",
        "m.row_read", "m.shifted", "m.via_local",
    ]


def test_every_precision_reads_the_budget():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert budget_violations(sources) == sorted(BUDGET_EXEMPT)


# the modules that may test for an int themselves: precision.py holds the one
# integer-range rule, check_index, and bell.py's exact routines keep their own
INT_CHECK_EXEMPT = {"precision", "bell"}


def _is_int(node) -> bool:
    """node is the name int, or a tuple of types naming it."""
    if isinstance(node, ast.Tuple):
        return any(_is_int(e) for e in node.elts)
    return isinstance(node, ast.Name) and node.id == "int"


def int_checks(sources: dict) -> list:
    """"module:line" of every isinstance(x, int) and type(x) is [not] int
    outside INT_CHECK_EXEMPT: an integer argument is checked by check_index."""
    found = []
    for module, src in sources.items():
        if module in INT_CHECK_EXEMPT:
            continue
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call) and _called_name(node) == "isinstance":
                hit = len(node.args) == 2 and _is_int(node.args[1])
            elif isinstance(node, ast.Compare):
                hit = (isinstance(node.left, ast.Call) and _called_name(node.left) == "type"
                       and any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                               and _is_int(c) for op, c in zip(node.ops, node.comparators)))
            else:
                continue
            if hit:
                found.append(f"{module}:{node.lineno}")
    return found


def test_checker_flags_an_int_check_outside_precision():
    planted = (
        "def f(n, m, k):\n"
        "    if not isinstance(n, int):\n        raise ValueError\n"
        "    if type(m) is not int or isinstance(k, (float, int)):\n        raise ValueError\n"
        "    return isinstance(n, str) or type(k) is float\n"
    )
    sources = {"m": planted, "precision": planted, "bell": planted}
    assert int_checks(sources) == ["m:2", "m:4", "m:4"]


def test_integer_checks_live_in_precision():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert int_checks(sources) == []


def assert_statements(sources: dict) -> list:
    """"module:line" of every assert statement: `python -O` strips them, so a
    check the package relies on must raise instead."""
    return [f"{module}:{node.lineno}" for module, src in sources.items()
            for node in ast.walk(ast.parse(src)) if isinstance(node, ast.Assert)]


def test_checker_flags_an_assert():
    source = "def f(x):\n    assert x > 0\n    if x:\n        assert x, 'msg'\n    return x\n"
    assert assert_statements({"m": source, "n": "x = 1\n"}) == ["m:2", "m:4"]


def test_no_asserts_under_src():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert sources
    assert assert_statements(sources) == []


def mpmath_imports(sources: dict) -> list:
    """"module:line" of every import of mpmath or one of its submodules."""
    found = []
    for module, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "mpmath" for name in names):
                found.append(f"{module}:{node.lineno}")
    return found


def test_checker_flags_an_mpmath_import():
    source = ("import math, mpmath\nfrom mpmath import mp\nfrom .mpmath import x\n"
              "def f():\n    import mpmath.libmp as lib\n    from mpmathx import y\n")
    assert mpmath_imports({"m": source}) == ["m:1", "m:2", "m:5"]


def test_no_mpmath_import_under_src():
    # every number in the package is a stieltjes.Binary
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert sources
    assert mpmath_imports(sources) == []


def mpf_readers(sources: dict) -> list:
    """Functions, classes or modules, as "module.qualname", that read an
    mpf's _mpf_ (as an attribute, or by name through getattr or hasattr)
    outside stieltjes.Binary, whose Binary.of is the one reader of an mpf's
    bits."""
    owned = {}
    for module, src in sources.items():
        _owned_nodes(ast.parse(src), module, owned)
    return sorted(
        qualname for qualname, nodes in owned.items()
        if qualname.split(".")[:2] != ["stieltjes", "Binary"] and any(
            isinstance(n, ast.Attribute) and n.attr == "_mpf_"
            or isinstance(n, ast.Constant) and n.value == "_mpf_" for n in nodes)
    )


def test_checker_flags_an_mpf_read_outside_binary():
    sources = {
        "stieltjes": "class Binary:\n    @classmethod\n    def of(cls, x):\n"
                     "        return x._mpf_\n    @property\n    def _mpf_(self):\n"
                     "        return ()\nclass BinaryRow:\n    def read(self, x):\n"
                     "        return x._mpf_\ndef _finite(x):\n    return x._mpf_[1]\n",
        "reports": "def to_mpf(x):\n    return hasattr(x, '_mpf_')\n"
                   "def doc():\n    '''reads no _mpf_'''\nSIGN = ONE._mpf_[0]\n",
    }
    assert mpf_readers(sources) == [
        "reports", "reports.to_mpf", "stieltjes.BinaryRow.read", "stieltjes._finite"]


def test_only_binary_reads_an_mpf():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert mpf_readers(sources) == []


def _annotation_name(node) -> str | None:
    """The last dotted name of an annotation, whether written as a name, an
    attribute (stieltjes.ConstantTable) or a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1]
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def table_and_context_takers(sources: dict) -> list:
    """Functions, as "module.qualname", with both a parameter annotated
    ConstantTable and one annotated PrecisionContext: a table records its
    context, so a second one could only contradict it."""
    found = []

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, qualname)
                continue
            name = f"{qualname}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                params = [*child.args.posonlyargs, *child.args.args, *child.args.kwonlyargs]
                if {"ConstantTable", "PrecisionContext"} <= {
                        _annotation_name(p.annotation) for p in params if p.annotation}:
                    found.append(name)
            visit(child, name)

    for module, src in sources.items():
        visit(ast.parse(src), module)
    return sorted(found)


def test_checker_flags_a_table_and_a_context():
    source = (
        "def step(t: ConstantTable, ctx: PrecisionContext):\n    pass\n"
        "def route(n: int, t: 'stieltjes.ConstantTable', *, ctx: 'PrecisionContext'):\n"
        "    pass\n"
        "def build(kind: str, ctx: precision.PrecisionContext) -> ConstantTable:\n    pass\n"
        "def read(t: ConstantTable, ctx) -> PrecisionContext:\n    pass\n"
        "class Maps:\n    def lam(self, s: ConstantTable, c: PrecisionContext):\n        pass\n"
    )
    assert table_and_context_takers({"m": source}) == ["m.Maps.lam", "m.route", "m.step"]


def test_no_function_takes_a_table_and_a_context():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert table_and_context_takers(sources) == []


# prints, on the last line of stderr, the package modules a CLI command
# executed and which of dataclasses, fractions, inspect and mpmath it loaded;
# a lazily registered module that has not executed is still a _LazyModule,
# and type() reads no attribute of it, so asking triggers no load
_AFTER_COMMAND = """
import sys, types
from zkconst import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
executed = sorted(name.split(".", 1)[1] for name, module in sys.modules.items()
                  if name.startswith("zkconst.") and type(module) is types.ModuleType)
print((executed, sorted({"dataclasses", "fractions", "inspect", "json", "mpmath"}
                         & set(sys.modules))),
      file=sys.stderr)
"""


def after_command(command: str) -> tuple:
    """(package modules executed, heavy modules loaded) by one CLI command
    in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", _AFTER_COMMAND, *command.split()],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=600)
    executed, loaded = ast.literal_eval(proc.stderr.splitlines()[-1])
    return set(executed), set(loaded)


# help and the usage errors that argparse, PrecisionContext and chain.table's
# cap and --u checks raise: none of them reads a module that computes
HELP_AND_USAGE_ERRORS = (
    "--help", "table --help", "verify --help", "li-check --help", "verify --suite nope",
    "table --seq nope --max-n 1", "table --seq gamma --max-n 1 --digits 61",
    "table --seq gamma --max-n 21", "table --seq eta --max-n 2 --u 2",
    "table --seq eta --max-n 2 --u abc",
)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every command is a fresh process, and these (with the ast, dis and
    # tokenize that inspect pulls in, and the decimal that fractions does)
    # cost it milliseconds before any work; fractions is needed only by
    # verify, whose exact witnesses are Fractions, and json only by
    # --format json
    for command in (*HELP_AND_USAGE_ERRORS, "table --seq gamma --max-n 3",
                    "li-check --max-n 3"):
        assert after_command(command)[1] == set(), command
    assert after_command("verify --suite all --digits 10")[1] <= {"fractions"}


# every table above gamma, li-check and every verify suite compute on the
# standard library: Binary arithmetic rounds each step as mpf arithmetic would
@pytest.mark.parametrize("command", [
    *(f"table --seq {kind} --max-n {FAMILIES[kind][1]} --format {fmt}"
      for kind in ("eta", "sigma", "lambda", "xi1") for fmt in ("text", "csv", "json")),
    *(f"li-check --max-n 20 --format {fmt}" for fmt in ("text", "json")),
])
def test_tables_above_gamma_and_li_check_load_no_mpmath(command):
    loaded = after_command(command)[1]
    assert "mpmath" not in loaded
    # json is loaded by --format json alone
    assert ("json" in loaded) == command.endswith("--format json")


@pytest.mark.parametrize("command", [
    *(f"table --seq zeta0 --max-n 10 --format {fmt}" for fmt in ("text", "csv", "json")),
    *(f"verify --suite {suite}" for suite in SUITES),
    "verify --suite bell --format json",
])
def test_zeta0_and_verify_load_no_mpmath(command):
    loaded = after_command(command)[1]
    assert "mpmath" not in loaded
    assert ("json" in loaded) == command.endswith("--format json")


# every table and li-check runs its Bell recurrence on Binary values, and
# Bell's determinants, the routes only verify runs, take integers
@pytest.mark.parametrize("command", [
    *(f"table --seq {kind} --max-n {FAMILIES[kind][1]}"
      for kind in ("eta", "sigma", "lambda", "xi1", "zeta0")),
    "li-check --max-n 20",
])
def test_tables_and_li_check_load_no_fractions(command):
    assert not {"fractions", "json"} & after_command(command)[1]


def test_gamma_table_loads_no_fractions():
    # a gamma table parses --u, sums, rounds and prints on the standard
    # library: at the default u and at one u from each gamma-sweep regime
    # (tiny, unit, moderate, huge), in every format; json is loaded by
    # --format json alone
    for u in ("", " --u 1e-20", " --u 2.5", " --u 57.3", " --u 1e30"):
        for fmt in ("text", "csv", "json"):
            command = f"table --seq gamma --max-n 3{u} --format {fmt}"
            assert after_command(command)[1] == ({"json"} if fmt == "json" else set()), command


# the modules that compute or check constants, as opposed to parsing
# arguments (cli) and holding limits (precision)
STEP_MODULES = {"bell", "chain", "eta_sigma", "kernel", "li_keiper", "reports", "stieltjes",
                "verify", "xi", "zeta_derivs"}


def test_help_executes_no_step_module():
    assert after_command("--help")[0] == {"cli", "precision"}
    assert not after_command("table --help")[0] & STEP_MODULES


def test_gamma_table_executes_only_its_route():
    assert after_command("table --seq gamma --max-n 3")[0] == {
        "cli", "chain", "precision", "stieltjes"}


@pytest.mark.parametrize("command", [
    *(f"table --seq {kind} --max-n {start}" for kind, (start, _) in FAMILIES.items()),
    "li-check --max-n 3",
])
def test_no_table_or_li_check_executes_verify(command):
    executed = after_command(command)[0]
    assert "verify" not in executed
    assert {"cli", "chain"} <= executed
