"""tools/ab_cpu.py runs one command under two source trees and prints the
median CPU time of each side and their difference."""
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = [sys.executable, str(REPO / "tools" / "ab_cpu.py")]
SRC = str(REPO / "src")


def test_help_once_per_side():
    out = subprocess.run([*TOOL, SRC, SRC, "--runs", "1", "--", "--help"],
                         capture_output=True, text=True, check=True).stdout
    head, old, new, diff = out.splitlines()
    assert head == "command: python3 -m zkconst --help  (runs per side: 1)"
    assert old.startswith("old ") and old.endswith(SRC)
    assert new.startswith("new ") and new.endswith(SRC)
    assert diff.startswith("diff ") and diff.endswith("%)")


def test_a_failing_command_stops_the_comparison():
    done = subprocess.run([*TOOL, SRC, SRC, "--runs", "1", "--", "table", "--seq", "nope"],
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert "exited with status 2" in done.stderr
