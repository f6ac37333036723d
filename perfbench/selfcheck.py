"""Self-checks for the benchmark itself.

    python3 perfbench/selfcheck.py

Checks, in about two minutes:
  * BENCHMARK.json names exactly the workloads and metrics run.py has, with
    the same units, and a real run of each mode prints every one of them;
  * gamma-sweep inputs follow the seed, with one command per (regime,
    digits) stratum whatever the seed;
  * planted failures (a non-zero exit, a perturbed reference digit) are
    counted as failed commands;
  * traced call counts repeat exactly between two traced runs, and traced
    stdout is byte-identical to plain stdout.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter

import oracle
import run
from mpmath import mp

PROBLEMS = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        PROBLEMS.append(what)


def check_spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS), "workloads match run.WORKLOADS")
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        theirs = {(m["name"], m["unit"]) for m in spec[key]}
        expect(theirs == set(ours), f"{key} names and units match run.py")
        expect(len(ours) == len(set(ours)), f"{key} names are unique")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "gamma-sweep",
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180,
        )
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
        printed = {(name, m["unit"]) for name, m in result.get("metrics", {}).items()}
        expect(printed == {(m["name"], m["unit"]) for m in spec[key]},
               f"--trace {trace} prints every {key} metric with its unit")
        expect(result.get("correct") is True and result.get("failed") == 0,
               f"--trace {trace} run on gamma-sweep is correct")


def check_sweep_inputs():
    a, b = run.sweep_inputs(1), run.sweep_inputs(2)
    expect(a == run.sweep_inputs(1), "the same seed gives the same gamma-sweep inputs")
    expect([u for _, u, _ in a] != [u for _, u, _ in b], "two seeds give different gamma-sweep inputs")
    strata = Counter((regime, digits) for regime, _, digits in a)
    expect(strata == Counter((regime, digits) for regime, _, digits in b)
           and set(strata.values()) == {1}
           and len(strata) == len(run.SWEEP_REGIMES) * len(run.SWEEP_DIGITS),
           "each seed puts one command in every (regime, digits) stratum")
    bounds = {name: (low, high) for name, low, high in run.SWEEP_REGIMES}
    expect(all(bounds[regime][0] <= float(u) <= bounds[regime][1] for regime, u, _ in a + b),
           "every u lies in its regime")


def check_planted_failures():
    with mp.workdps(50):
        refs = {n: mp.nstr(v, 40) for n, v in enumerate(oracle.stieltjes(3, 1, 30))}
    good = run.Cmd(("table", "--seq", "gamma", "--max-n", "3", "--digits", "30"), run.check_table(refs, 30))
    # one digit of gamma_2 = -0.0096903..., 25 significant places in, moves by one
    digits = list(refs[2])
    digits[-15] = str((int(digits[-15]) + 1) % 10)
    perturbed = {**refs, 2: "".join(digits)}
    bad_ref = run.Cmd(good.args, run.check_table(perturbed, 30))
    bad_exit = run.Cmd(("table", "--seq", "gamma", "--max-n", "99", "--digits", "30"), good.check)
    deadline = time.perf_counter() + 120
    results = run.run_pass([good, bad_ref, bad_exit], deadline)
    reasons = [r.failure() for r in results]
    expect(reasons[0] is None, "the unperturbed reference passes")
    expect(reasons[1] is not None, f"a perturbed reference digit fails: {reasons[1]}")
    expect(reasons[2] is not None, f"a non-zero exit fails: {reasons[2]}")
    expect(len(run.failures([results], sys.stdout)) == 2, "both planted failures are counted")


def check_trace_repeats():
    cmd = run.Cmd(("verify", "--suite", "all", "--digits", "30"), run.check_reports(0))
    deadline = time.perf_counter() + 120
    (plain,) = run.run_pass([cmd], deadline)
    traces = []
    for _ in range(2):
        (traced,) = run.run_pass([cmd], deadline, traced=True)
        expect(traced.out == plain.out and traced.code == 0, "traced stdout is byte-identical to plain stdout")
        traces.append({
            label: (s["calls"], s.get("distinct"), s["items"]) for label, s in run.read_trace(traced).items()
        })
    expect(traces[0] == traces[1], "traced counts repeat exactly between two runs")
    calls, distinct, _ = traces[0]["stieltjes.stieltjes_gamma"]
    print(f"      verify --suite all --digits 30: stieltjes_gamma {calls} calls, {distinct} distinct keys")


def main() -> int:
    check_sweep_inputs()
    check_planted_failures()
    check_trace_repeats()
    check_spec()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
