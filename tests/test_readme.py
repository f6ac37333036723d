"""README's python examples run as written, in order, in one namespace, its
Method tags table names every tag the reports emit, and its budget table is
precision's budget."""

import re
from pathlib import Path

from zkconst import PrecisionContext, precision, run_suite
from zkconst.li_keiper import positivity_report

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README has no python code block"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.splitlines()[-1] == "True"


def test_method_tags_table_names_every_emitted_tag():
    ctx = PrecisionContext(10)
    reports = run_suite("all", ctx) + positivity_report(20, ctx)
    # a trailing " (...)" states a convention; "@<digits>d" names a precision
    emitted = {
        re.sub(r"@\d+d$", "@<D>d", re.sub(r" \(.*\)$", "", tag))
        for report in reports for tag in report.method_tags
    }
    section = README.read_text().split("### Method tags", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([^`]+)`", section))
    assert sorted(emitted - documented) == []


def test_budget_table_is_the_budget():
    # the one hand-kept copy of precision._BUDGET, row for row: "n + 15"
    # reads as (1, 15) and "25" as (0, 25)
    lines = README.read_text().split("| row | extra digits | used by |\n", 1)[1].splitlines()
    rows = []
    for line in lines[1:]:  # past the |---| line
        if not line.startswith("|"):
            break
        name, extra = re.match(r"\| `(\w+)` \| ([^|]+?) \|", line).groups()
        index, fixed = re.fullmatch(r"(?:([nm]) \+ )?(\d+)", extra).groups()
        rows.append((name, (1 if index else 0, int(fixed))))
    assert rows == list(precision._BUDGET.items())
