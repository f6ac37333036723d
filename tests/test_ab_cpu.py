"""tools/ab_cpu.py runs one command under two source trees and prints the
median CPU time of each side, with its quartiles, and their difference."""
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = [sys.executable, str(REPO / "tools" / "ab_cpu.py")]
SRC = str(REPO / "src")


def side_lines(runs: int) -> list:
    """(median, q1, q3) of each side of `--help` compared with itself."""
    out = subprocess.run([*TOOL, SRC, SRC, "--runs", str(runs), "--", "--help"],
                         capture_output=True, text=True, check=True).stdout
    head, old, new, diff = out.splitlines()
    assert head == f"command: python3 -m zkconst --help  (runs per side: {runs})"
    assert diff.startswith("diff ") and diff.endswith("%)")
    spreads = []
    for side, line in (("old", old), ("new", new)):
        # "<side>  <median> ms  median CPU  (quartiles <q1> .. <q3>)  <src>"
        match = re.fullmatch(rf"{side}  +([\d.]+) ms  median CPU  "
                             rf"\(quartiles ([\d.]+) \.\. ([\d.]+)\)  {re.escape(SRC)}", line)
        assert match, line
        spreads.append(tuple(map(float, match.groups())))
    return spreads


def test_help_once_per_side():
    # one run is its own median and quartiles
    assert all(q1 == median == q3 for median, q1, q3 in side_lines(1))


def test_the_quartiles_bracket_the_median():
    assert all(q1 <= median <= q3 for median, q1, q3 in side_lines(3))


def test_a_failing_command_stops_the_comparison():
    done = subprocess.run([*TOOL, SRC, SRC, "--runs", "1", "--", "table", "--seq", "nope"],
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert "exited with status 2" in done.stderr
