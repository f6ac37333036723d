"""tools/ab_cpu.py runs one command, or a set of them, under two source trees
and prints the median CPU time of each side, with its quartiles, and their
difference."""
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = [sys.executable, str(REPO / "tools" / "ab_cpu.py")]
SRC = str(REPO / "src")


def compare(runs: int, *commands) -> list:
    """The tool's output lines for `commands`, each a list of zkconst
    arguments, compared under SRC with itself."""
    argv = [*TOOL, SRC, SRC, "--runs", str(runs)]
    for args in commands:
        argv += ["--", *args]
    return subprocess.run(argv, capture_output=True, text=True, check=True).stdout.splitlines()


def side_lines(runs: int) -> list:
    """(median, q1, q3) of each side of `--help` compared with itself."""
    head, *sides = compare(runs, ["--help"])
    assert head == f"command: python3 -m zkconst --help  (runs per side: {runs})"
    return spreads(sides)


def spreads(lines: list) -> list:
    """(median, q1, q3) of each side, from the tool's last three lines."""
    old, new, diff = lines
    assert diff.startswith("diff ") and diff.endswith("%)")
    found = []
    for side, line in (("old", old), ("new", new)):
        # "<side>  <median> ms  median CPU  (quartiles <q1> .. <q3>)  <src>"
        match = re.fullmatch(rf"{side}  +([\d.]+) ms  median CPU  "
                             rf"\(quartiles ([\d.]+) \.\. ([\d.]+)\)  {re.escape(SRC)}", line)
        assert match, line
        found.append(tuple(map(float, match.groups())))
    return found


def test_help_once_per_side():
    # one run is its own median and quartiles
    assert all(q1 == median == q3 for median, q1, q3 in side_lines(1))


def test_the_quartiles_bracket_the_median():
    assert all(q1 <= median <= q3 for median, q1, q3 in side_lines(3))


def test_a_command_set_is_one_run_per_side():
    gamma = ["table", "--seq", "gamma", "--max-n", "1", "--digits", "10"]
    head, *commands, old, new, diff = compare(1, ["--help"], gamma)
    assert head == "commands: 2, a run summed over the set  (runs per side: 1)"
    assert commands == ["  python3 -m zkconst --help", f"  python3 -m zkconst {' '.join(gamma)}"]
    assert all(q1 == median == q3 > 0 for median, q1, q3 in spreads([old, new, diff]))


def test_a_failing_command_in_a_set_stops_the_comparison():
    done = subprocess.run([*TOOL, SRC, SRC, "--runs", "1", "--", "--help",
                           "--", "table", "--seq", "nope"], capture_output=True, text=True)
    assert done.returncode == 1
    assert "`table --seq nope`" in done.stderr and "exited with status 2" in done.stderr


def test_a_failing_command_stops_the_comparison():
    done = subprocess.run([*TOOL, SRC, SRC, "--runs", "1", "--", "table", "--seq", "nope"],
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert "exited with status 2" in done.stderr
