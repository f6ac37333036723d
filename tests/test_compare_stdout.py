"""tools/compare_stdout.py reads a change of tolerance alone as one."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import compare_stdout  # noqa: E402

REPORTS = [(f"eq-3.13-n{n}", "0.0", "1.2e-30") for n in range(1, 8)]


def verify_stdout(tol, fmt):
    """A verify output of the REPORTS, each judged against tol."""
    if fmt == "json":
        return json.dumps({"suite": "lambda", "digits": 30, "reports": [
            {"identity": name, "lhs": lhs, "rhs": "0.0", "abs_err": err, "tol": tol,
             "pass": True, "method_tags": ["residual-3.13"]}
            for name, lhs, err in REPORTS]})
    return "".join(f"pass  {name}  lhs={lhs}  rhs=0.0  abs_err={err}  tol={tol}  "
                   "[residual-3.13]\n" for name, lhs, err in REPORTS)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_tolerance_only_change_is_listed_and_in_bounds(fmt):
    old = (0, verify_stdout("1.0e-22", fmt), "")
    new = (0, verify_stdout("1.0e-25", fmt), "")
    ok, lines = compare_stdout.compare("verify --suite lambda --digits 30", old, new)
    assert ok
    assert lines == ["tol moved in 7 reports: " + "; ".join(
        f"eq-3.13-n{n} 1.0e-22 -> 1.0e-25" for n in range(1, 6)) + "; 2 more"]
