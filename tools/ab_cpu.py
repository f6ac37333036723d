"""Compare the CPU time of one CLI command under two source trees.

    python3 tools/ab_cpu.py OLD_SRC NEW_SRC [--runs N] -- verify --suite all --digits 60

runs `python3 -m zkconst` with the arguments after `--`, with PYTHONPATH set
to OLD_SRC and NEW_SRC in turn, N times each (default 25), alternating
old, new, old, new, ... so a drift in host speed reaches both sides alike.
This process pins itself, and so every command it starts, to the lowest CPU
it may run on.  A run's time is the child's own user + system CPU seconds,
from its `wait4` rusage; a run that exits non-zero stops the comparison.
Prints the median per side, in ms, with its lower and upper quartiles (the
spread a comparison should be read against), and the change of the medians
from old to new, in ms and in percent of the old median.  Standard library
only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys


def cpu_seconds(src: str, args: list) -> float:
    """User + system CPU seconds of one `python3 -m zkconst args` under src."""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen([sys.executable, "-m", "zkconst", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"ab_cpu: `{' '.join(args)}` under {src} exited with status {code}")
    return usage.ru_utime + usage.ru_stime


def spread(runs: list) -> tuple:
    """(median, lower quartile, upper quartile) of runs, in ms."""
    ms = [run * 1e3 for run in runs]
    q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
    return statistics.median(ms), q1, q3


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--runs", type=int, default=25, help="runs per side (default 25)")
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    opts, args = parser.parse_args(argv[:cut]), argv[cut + 1:]
    if opts.runs < 1 or not args:
        parser.error("need --runs >= 1 and zkconst arguments after --")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sides = [(opts.old_src, []), (opts.new_src, [])]
    for _ in range(opts.runs):
        for src, runs in sides:
            runs.append(cpu_seconds(src, args))
    print(f"command: python3 -m zkconst {' '.join(args)}  (runs per side: {opts.runs})")
    for name, (src, runs) in zip(("old", "new"), sides):
        median, q1, q3 = spread(runs)
        print(f"{name}  {median:8.1f} ms  median CPU  (quartiles {q1:.1f} .. {q3:.1f})  {src}")
    old, new = (spread(runs)[0] for _, runs in sides)
    print(f"diff {new - old:+8.1f} ms  ({(new - old) / old:+.1%})")


if __name__ == "__main__":
    main()
