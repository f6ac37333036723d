"""Compare the CLI output of two source trees over a fixed command set.

    python3 tools/compare_stdout.py OLD_SRC NEW_SRC

runs `python3 -m zkconst` once per command with PYTHONPATH set to each
`src/` directory in turn.  The command set is the golden commands of
tests/test_cli.py (GOLDEN_STDOUT), `verify --suite` every suite at 10, 30,
45 and 60 digits, every family at its cap, `li-check --max-n 20`,
`verify --suite zeta-derivs` and `verify --suite all` at every --digits from
10 to 60 (a rounding slip, of a power, an atom or a budget row one digit
short say, may show at one precision only, and li-check and verify print
their sides to working_dps + 5 digits, where a last-bit change shows),
zeta0 at every max_n below its cap at 10, 30 and 60 digits (each a fresh build of a shorter table, whose rows are the first
rows of the table at the cap), gamma to 20 at seven values of u at 30, 45
and 60 digits, gamma and `li-check` at every max_n below their caps at 10,
30 and 60 digits (a gamma table is a prefix of its row, and li-check's
eq-3.17 and eq-3.18 come from one function), and the help and usage errors (`--help`, each subcommand's
`--help`, an unknown suite and family, `--digits 61`, an unparsable,
infinite, negative, `1/0`, `0/0`, `1/2/3` and `1e5/3` `--u`, `--u` on eta,
and gamma and `li-check` past their caps), and the `--u` edge cases
(gamma to 20 at a ratio, at exponents past mpmath's 400-digit cutoff, with
spaces and with an underscore, in csv and json, and the refused nan, 0 and
0x10), and the `--tol-exp` cases (`verify --suite all --tol-exp 10` at 30
and at 10 digits, and the refused `--tol-exp` 0, 31 and -5 of
`verify --suite bell --digits 30`), each command once.  Arguments are split as a shell splits them.  The
suites and families are read from the package source.
For every command it prints whether its exit code, stdout and stderr are
byte-identical and, when they are not:
  - a change in the report count, the reports removed and added (matched
    by name), a change in the order of the rest, and the reports whose
    verdict changed;
  - the worst change of a report side (lhs or rhs) as a multiple of
    10^-(digits+5) * max(1, |old side|);
  - how many reports' tol and abs_err moved, and the first few by name as
    old -> new, so a change of tolerance alone reads as one;
  - the table rows whose printed value changed, as n: old -> new.
Exit status 0 when every command keeps its exit code, stderr, report names
and verdicts and every side moves by at most that bound; 1 otherwise.  A
changed table row is reported but does not set the exit status.
"""

from __future__ import annotations

import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from mpmath import mp, mpf

REPO = Path(__file__).resolve().parents[1]
GAMMA_US = ("2", "0.001", "1e-20", "2.5", "1e30", "150", "1000")
# --u values at the edges of mpmath's syntax, read to 20 digits' worth of rows
EDGE_US = ("1/3", "1e300", "1e401", "1e-401", "2.5e-30", "' 2 '", "1_0")
SIDE_MARGIN = 5  # a side may move by 10^-(digits + SIDE_MARGIN), relative above 1
FIRST_FEW = 5  # moved tol and abs_err fields listed by name per command


def assigned(path: Path, name: str) -> ast.expr:
    """The value assigned to `name` at the top level of a Python file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise SystemExit(f"{path.relative_to(REPO)} defines no {name}")


def golden_commands() -> list:
    """The keys of GOLDEN_STDOUT in tests/test_cli.py, in file order."""
    golden = assigned(REPO / "tests" / "test_cli.py", "GOLDEN_STDOUT")
    return [ast.literal_eval(k) for k in golden.keys]


def package_literal(module: str, name: str):
    """The literal value of `name` in src/zkconst/<module>.py."""
    return ast.literal_eval(assigned(REPO / "src" / "zkconst" / f"{module}.py", name))


def family_caps() -> dict:
    """kind -> largest index, from FAMILIES in src/zkconst/precision.py."""
    return {kind: cap for kind, (_, cap) in package_literal("precision", "FAMILIES").items()}


def command_set() -> list:
    caps = family_caps()
    commands = golden_commands()
    suites = package_literal("precision", "SUITES")
    commands += [f"verify --suite {s} --digits {d}" for s in suites for d in (10, 30, 45, 60)]
    every_digits = range(package_literal("precision", "MIN_DIGITS"),
                         package_literal("precision", "MAX_DIGITS") + 1)
    commands += [
        f"table --seq {kind} --max-n {cap} --digits {d}"
        for kind, cap in caps.items() for d in every_digits
    ]
    commands += [f"li-check --max-n 20 --digits {d}" for d in every_digits]
    commands += [f"verify --suite {s} --digits {d}"
                 for s in ("zeta-derivs", "all") for d in every_digits]
    commands += [
        f"table --seq zeta0 --max-n {n} --digits {d}"
        for n in range(1, caps["zeta0"]) for d in (10, 30, 60)
    ]
    commands += [
        f"table --seq gamma --max-n 20 --u {u} --digits {d}" for u in GAMMA_US for d in (30, 45, 60)
    ]
    commands += [
        f"{cmd} --max-n {n} --digits {d}"
        for cmd, start, cap in (("table --seq gamma", 0, caps["gamma"]), ("li-check", 1, caps["lambda"]))
        for n in range(start, cap) for d in (10, 30, 60)
    ]
    commands += ["--help", "table --help", "verify --help", "li-check --help",
                 "verify --suite nope", "table --seq nope --max-n 1",
                 "table --seq gamma --max-n 1 --digits 61", "table --seq gamma --max-n 1 --u abc",
                 "table --seq gamma --max-n 1 --u inf", "table --seq gamma --max-n 1 --u -1",
                 "table --seq gamma --max-n 1 --u 1/0", "table --seq gamma --max-n 1 --u 0/0",
                 "table --seq gamma --max-n 1 --u 1/2/3", "table --seq gamma --max-n 1 --u 1e5/3",
                 "table --seq gamma --max-n 21",
                 "table --seq eta --max-n 1 --u 2", "li-check --max-n 21"]
    commands += [f"table --seq gamma --max-n 20 --u {u}" for u in EDGE_US]
    commands += [f"table --seq gamma --max-n 1 --u {u}" for u in ("nan", "0", "0x10")]
    commands += [f"table --seq gamma --max-n 20 --u 2.5e-30 --format {fmt}" for fmt in ("csv", "json")]
    commands += [f"verify --suite all --digits {d} --tol-exp 10" for d in (30, 10)]
    commands += [f"verify --suite bell --digits 30 --tol-exp {t}" for t in ("0", "31", "-5")]
    return list(dict.fromkeys(commands))


def run(src: str, command: str) -> tuple:
    """(exit code, stdout, stderr) of one fresh CLI process."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "zkconst", *shlex.split(command)],
        env=env, capture_output=True, text=True, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def parse(stdout: str) -> tuple:
    """(reports, rows) of one output: reports as [(identity, passed, lhs,
    rhs, abs_err, tol)] in order, table rows as {n: printed value}."""
    if stdout.startswith("{"):
        data = json.loads(stdout)
        reports = [(r["identity"], r["pass"], r["lhs"], r["rhs"], r["abs_err"], r["tol"])
                   for r in data.get("reports", [])]
        return reports, {r["n"]: r["value"] for r in data.get("rows", [])}
    reports, rows = [], {}
    for line in stdout.splitlines():
        if line.startswith(("pass  ", "FAIL  ")):
            verdict, identity, *fields = line.split("  ")[:6]
            reports.append((identity, verdict == "pass",
                            *(field.partition("=")[2] for field in fields)))
            continue
        fields = line.replace(",", " ").split()
        if len(fields) == 3 and fields[0].isdigit():
            rows[int(fields[0])] = fields[1]
    return reports, rows


def digits_of(command: str) -> int:
    words = command.split()
    return int(words[words.index("--digits") + 1]) if "--digits" in words else 30


def compare(command: str, old: tuple, new: tuple) -> tuple:
    """(ok, lines) describing how new differs from old."""
    if old == new:
        return True, []
    ok, lines = True, []
    if old[0] != new[0] or old[2] != new[2]:
        ok = False
        lines.append(f"exit {old[0]} -> {new[0]}; stderr {old[2]!r} -> {new[2]!r}")
    old_reports, old_rows = parse(old[1])
    new_reports, new_rows = parse(new[1])
    if len(old_reports) != len(new_reports):
        ok = False
        lines.append(f"report count {len(old_reports)} -> {len(new_reports)}")
    # reports are matched by name, so one removed or added report does not
    # shift every report after it
    old_by_name = {r[0]: r for r in old_reports}
    new_by_name = {r[0]: r for r in new_reports}
    for label, names in (("removed", [r[0] for r in old_reports if r[0] not in new_by_name]),
                         ("added", [r[0] for r in new_reports if r[0] not in old_by_name])):
        if names:
            ok = False
            lines.append(f"reports {label}: " + " ".join(names))
    pairs = [(old_by_name[r[0]], r) for r in new_reports if r[0] in old_by_name]
    if [a[0] for a, _ in pairs] != [r[0] for r in old_reports if r[0] in new_by_name]:
        ok = False
        lines.append("report order changed")
    changed = [f"{a[0]} {'pass' if a[1] else 'FAIL'} -> {'pass' if b[1] else 'FAIL'}"
               for a, b in pairs if a[1] != b[1]]
    if changed:
        ok = False
        lines.append("verdicts changed: " + "; ".join(changed))
    digits = digits_of(command)
    worst, where = mpf(0), None
    for a, b in pairs:
        for side, x, y in (("lhs", a[2], b[2]), ("rhs", a[3], b[3])):
            if x != y:
                x, y = mpf(x), mpf(y)
                ratio = abs(y - x) / (mpf(10) ** -(digits + SIDE_MARGIN) * max(1, abs(x)))
                if ratio > worst or where is None:
                    worst, where = ratio, f"{a[0]} {side}"
    if where is not None:
        ok = ok and worst <= 1
        lines.append(f"worst side change {mp.nstr(worst, 3)} x 10^-(digits+{SIDE_MARGIN}) at {where}")
    for field, i in (("abs_err", 4), ("tol", 5)):
        moved = [f"{a[0]} {a[i]} -> {b[i]}" for a, b in pairs if a[i] != b[i]]
        if moved:
            more = f"; {len(moved) - FIRST_FEW} more" if len(moved) > FIRST_FEW else ""
            lines.append(f"{field} moved in {len(moved)} reports: "
                         + "; ".join(moved[:FIRST_FEW]) + more)
    rows = [
        f"{n}: {old_rows.get(n)} -> {new_rows.get(n)}"
        for n in sorted(set(old_rows) | set(new_rows)) if old_rows.get(n) != new_rows.get(n)
    ]
    if rows:
        lines.append("table rows changed: " + "; ".join(rows))
    return ok, lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old_src, new_src = (str(Path(a).resolve()) for a in args)
    mp.dps = 120
    commands = command_set()
    identical = failed = 0
    for command in commands:
        old, new = run(old_src, command), run(new_src, command)
        ok, lines = compare(command, old, new)
        identical += old == new
        failed += not ok
        status = "identical" if old == new else ("differs" if ok else "DIFFERS, out of bounds")
        print(f"{status}: {command}")
        for line in lines:
            print(f"    {line}")
    print(f"{len(commands)} commands: {identical} byte-identical, "
          f"{len(commands) - identical} differ, {failed} out of bounds")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
