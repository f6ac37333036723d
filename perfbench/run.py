"""zkconst benchmark: the CLI end to end, as fresh processes, one at a time.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
closed-loop client runs each command only after the previous one has exited,
so no two computations ever run at once.  A pass is one run of
the workload's command set; passes repeat while another one fits in
``--seconds`` (at least one pass).  Every command's output is checked: exit
status 0, every verify report passing with no fewer reports than pinned in
``refs.json``, and every table value within 10^-(D-1) * max(1, |ref|) of its
reference.  A command that fails a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one plain
pass and then one pass under ``trace_cli.py``, requires the two passes'
stdout to be byte-identical, and reports the per-layer metrics of the traced
pass.  The last stdout line is the result as JSON; the line before it records
the machine.  See README.md for the workloads and what each metric should
move.

Times are host-speed corrected.  On a shared host the same command's CPU time
swings by up to 2x within minutes, as neighbours load the physical cores.  So
the client and every command run pinned to one CPU, and while a command runs
the client measures that CPU's speed every ``PROBE_GAP_S`` with a fixed probe
(``probe``), timed in the client's own CPU time so that the command's slices
do not count.  A command's time is its own CPU time (user + system, from its
``wait4`` rusage) scaled by ``PROBE_REF_S`` over the probe's mean time during
the command: CPU seconds on a host where the probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import log10
from pathlib import Path
from typing import Callable

import mpmath
import oracle
from mpmath import mp, mpf

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs.json"

SETUP_LAUNCHES = 15
PROBE_GAP_S = 0.04  # the client probes the CPU's speed after each gap this long
PROBE_REF_S = 0.005  # the probe's CPU seconds at reference speed (its median on a 2.1 GHz Xeon vCPU)
RUN_LIMIT_S = 170  # a run never outlives this, whatever the workload does
TRACE_MARKER = "perfbench-trace "

TABLES_60 = (("zeta0", 10), ("gamma", 20), ("eta", 20), ("sigma", 20), ("lambda", 20), ("xi1", 12))
SWEEP_REGIMES = (  # (name, low, high): u drawn log-uniformly from [low, high]
    ("tiny", 1e-30, 1e-3),
    ("unit", 0.5, 5.0),
    ("moderate", 5.0, 100.0),
    ("huge", 1e6, 1e300),
)
SWEEP_DIGITS = (30, 45, 60)
SWEEP_MAX_N = 20

END_TO_END = (("pass_s", "s"), ("slowest_cmd_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
VERIFY_SUITES = ("bell", "stieltjes", "eta", "lambda", "xi", "zeta-derivs")
# per-layer metric -> traced function(s) it reads, as <module>.<function>
SPANS = {
    "stieltjes.gamma": ("stieltjes.stieltjes_gamma",),
    "stieltjes.table": ("stieltjes.stieltjes_table",),
    "zeta_derivs.gamma_derivs": ("zeta_derivs.gamma_derivs_at_one_mpf",),
    "zeta_derivs.at_zero": ("zeta_derivs.zeta_derivs_at_zero",),
    "li_keiper.lambda_closed": ("li_keiper.lambda_closed",),
    "li_keiper.residual": ("li_keiper.recurrence_residual_3_13",),
    "li_keiper.positivity_report": ("li_keiper.positivity_report",),
    "kernel.zeta_int": ("kernel.zeta_int_mpf",),
    "kernel.polygamma": ("kernel.polygamma_three_halves_mpf",),
    "eta_sigma.eta_from_gamma": ("eta_sigma.eta_from_gamma",),
    "eta_sigma.sigma_table": ("eta_sigma.sigma_table",),
    "bell.recurrence": ("bell.bell_recurrence_value",),
    "bell.determinant": ("bell.bell_determinant", "bell.bracket_determinant"),
    "bell.symbolic": ("bell.bell_symbolic",),
    **{f"verify.{s}": (f"verify.suite_{s.replace('-', '_')}",) for s in VERIFY_SUITES},
}
# (metric, unit, span, field): field is calls, distinct, self_s, total_s or items
SPAN_METRICS = (
    ("stieltjes.gamma.calls", "count", "stieltjes.gamma", "calls"),
    ("stieltjes.gamma.distinct", "count", "stieltjes.gamma", "distinct"),
    ("stieltjes.gamma.self_s", "s", "stieltjes.gamma", "self_s"),
    ("stieltjes.table.calls", "count", "stieltjes.table", "calls"),
    ("zeta_derivs.gamma_derivs.calls", "count", "zeta_derivs.gamma_derivs", "calls"),
    ("zeta_derivs.at_zero.s", "s", "zeta_derivs.at_zero", "total_s"),
    ("li_keiper.lambda_closed.calls", "count", "li_keiper.lambda_closed", "calls"),
    ("li_keiper.residual.s", "s", "li_keiper.residual", "total_s"),
    ("li_keiper.positivity_report.s", "s", "li_keiper.positivity_report", "total_s"),
    ("kernel.zeta_int.calls", "count", "kernel.zeta_int", "calls"),
    ("kernel.zeta_int.distinct", "count", "kernel.zeta_int", "distinct"),
    ("kernel.zeta_int.self_s", "s", "kernel.zeta_int", "self_s"),
    ("kernel.polygamma.calls", "count", "kernel.polygamma", "calls"),
    ("kernel.polygamma.self_s", "s", "kernel.polygamma", "self_s"),
    ("eta_sigma.eta_from_gamma.calls", "count", "eta_sigma.eta_from_gamma", "calls"),
    ("eta_sigma.sigma_table.calls", "count", "eta_sigma.sigma_table", "calls"),
    ("bell.recurrence.calls", "count", "bell.recurrence", "calls"),
    ("bell.recurrence.self_s", "s", "bell.recurrence", "self_s"),
    ("bell.determinant.self_s", "s", "bell.determinant", "self_s"),
    ("bell.symbolic.self_s", "s", "bell.symbolic", "self_s"),
    *(
        (f"verify.{s}.{m}", unit, f"verify.{s}", field)
        for s in VERIFY_SUITES
        for m, unit, field in (("s", "s", "total_s"), ("reports", "count", "items"))
    ),
)
MODULE_SELF = ("zeta_derivs", "li_keiper", "eta_sigma", "xi", "cli", "reports")
PER_LAYER = (
    *((name, unit) for name, unit, _, _ in SPAN_METRICS),
    ("stieltjes.gamma.useful_ratio", "ratio"),
    ("stieltjes.gamma.s_per_distinct", "s"),
    *((f"{module}.self_s", "s") for module in MODULE_SELF),
    ("trace.overhead_s", "s"),
    ("error_rate", "ratio"),
)


@dataclass(repr=False)
class Cmd:
    """One CLI invocation and the check its stdout must pass."""

    args: tuple
    check: Callable  # stdout text -> None, or the reason it is wrong

    def __repr__(self):
        return " ".join(self.args)


@dataclass
class Result:
    cmd: Cmd
    secs: float  # host-speed-corrected CPU seconds
    wall: float
    rss_mb: float
    code: int
    out: bytes
    err: bytes

    def failure(self):
        if self.code != 0:
            return f"exit status {self.code}: {self.err.decode(errors='replace').strip()[-300:]}"
        return self.cmd.check(self.out.decode())


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def pin_to_one_cpu():
    """Run this client and, by inheritance, every command on one CPU, the one probed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe():
    """CPU seconds this process takes for a fixed piece of 70-digit mpmath arithmetic."""
    start = time.thread_time()
    with mp.workdps(70):
        for k in range(12):
            x = mpf(k + 2) / 3
            for i in range(20):
                x = x * x / (x + 1) + mp.sqrt(x) - mpf(1) / (i + 2)
    return time.thread_time() - start


def spawn(argv, deadline):
    """Run argv to completion on this client's CPU, probing the CPU's speed meanwhile.

    Returns corrected CPU seconds, wall seconds, peak RSS of this child alone,
    exit code and output.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    probes = []
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                break
            events = sel.select(min(remaining, PROBE_GAP_S))
            if not events:
                probes.append(probe())
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    # wait4 rather than Popen.wait: the rusage is this child's own, where
    # RUSAGE_CHILDREN would be the high-water mark over every child so far
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if not probes:  # a child too quick to be probed: probe the CPU right after it
        probes.append(probe())
    secs = (usage.ru_utime + usage.ru_stime) * PROBE_REF_S / statistics.fmean(probes)
    out, err = b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])
    return secs, wall, usage.ru_maxrss / 1024, code, out, err


def run_pass(cmds, deadline, traced=False):
    entry = [str(BENCH / "trace_cli.py")] if traced else ["-m", "zkconst"]
    return [Result(cmd, *spawn([sys.executable, *entry, *cmd.args], deadline)) for cmd in cmds]


# ---------------------------------------------------------------------------
# output checks


def check_reports(min_reports):
    def check(out):
        lines = out.splitlines()
        summary = re.fullmatch(r"suite=\S+ digits=\d+ passed=(\d+)/(\d+)", lines[-1] if lines else "")
        if summary is None:
            return "no summary line"
        passed, total = map(int, summary.groups())
        failing = sum(line.startswith("FAIL") for line in lines)
        if passed != total or failing:
            return f"{max(total - passed, failing)} of {total} reports fail"
        if total < min_reports:
            return f"{total} reports, fewer than the {min_reports} pinned"
        return None

    return check


def table_rows(out):
    """{n: value string} from the CLI's text table (lines `n  value  method`)."""
    rows = {}
    for line in out.splitlines():
        n, value, _method = line.split(None, 2)
        rows[int(n)] = value
    return rows


def check_table(refs, digits):
    """refs: {n: reference value as a decimal string or mpf}."""

    def check(out):
        with mp.workdps(digits + 20):
            try:
                rows = {n: mpf(value) for n, value in table_rows(out).items()}
            except ValueError as exc:
                return f"unreadable table: {exc}"
            if sorted(rows) != sorted(refs):
                return f"rows {sorted(rows)} where {sorted(refs)} were expected"
            for n, ref in refs.items():
                ref = mpf(ref)
                if abs(rows[n] - ref) > mpf(10) ** (1 - digits) * max(1, abs(ref)):
                    return f"n={n}: {mp.nstr(rows[n], digits)} is off from the reference {mp.nstr(ref, digits + 3)}"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads: seed -> commands with their checks


def load_refs():
    return json.loads(REFS.read_text())


def verify_all(seed):
    mins = load_refs()["verify_min_reports"]
    return [
        Cmd(("verify", "--suite", "all", "--digits", d), check_reports(mins[d])) for d in ("30", "60")
    ]


def tables_60(seed):
    refs = load_refs()
    tables = refs["tables-60"]
    cmds = [
        Cmd(
            ("table", "--seq", seq, "--max-n", str(cap), "--digits", "60"),
            check_table({int(n): v for n, v in tables[seq].items()}, 60),
        )
        for seq, cap in TABLES_60
    ]
    cmds.append(
        Cmd(("li-check", "--max-n", "20", "--digits", "60"), check_reports(refs["li_check_reports"]))
    )
    return cmds


def sweep_inputs(seed):
    """(regime, u, digits) per cell of regimes x SWEEP_DIGITS: only u depends on the seed."""
    rng = random.Random(seed)
    return [
        (regime, f"{10 ** rng.uniform(log10(low), log10(high)):.6g}", digits)
        for regime, low, high in SWEEP_REGIMES
        for digits in SWEEP_DIGITS
    ]


def gamma_sweep(seed):
    return [
        Cmd(
            ("table", "--seq", "gamma", "--max-n", str(SWEEP_MAX_N), "--u", u, "--digits", str(digits)),
            check_table(dict(enumerate(oracle.stieltjes(SWEEP_MAX_N, u, digits))), digits),
        )
        for _regime, u, digits in sweep_inputs(seed)
    ]


WORKLOADS = {"verify-all": verify_all, "tables-60": tables_60, "gamma-sweep": gamma_sweep}


# ---------------------------------------------------------------------------
# runs


def machine(args):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "probe_ref_s": PROBE_REF_S,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def failures(passes, log):
    """Failed results across passes; a command whose stdout differs from pass 1 also fails."""
    failed = []
    for results in passes:
        for first, result in zip(passes[0], results):
            reason = result.failure()
            if reason is None and result.out != first.out:
                reason = "stdout differs from the first pass"
            if reason is not None:
                failed.append(result)
                print(f"FAILED {result.cmd!r}: {reason}", file=log)
    return failed


def timed_run(cmds, seconds, deadline):
    setup = []
    for _ in range(SETUP_LAUNCHES):
        secs, _wall, _rss, code, out, _err = spawn([sys.executable, "-m", "zkconst", "--help"], deadline)
        if code != 0 or not out.startswith(b"usage: zkconst"):
            sys.exit(f"perfbench: `python -m zkconst --help` failed with status {code}")
        setup.append(secs)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(
        sum(r.wall for r in p) for p in passes
    ) <= seconds:
        passes.append(run_pass(cmds, deadline))
        for r in passes[-1]:
            print(f"{r.secs:8.3f} s ({r.wall:7.3f} s wall) {r.rss_mb:7.2f} MB  exit {r.code}  {r.cmd!r}")
    failed = len(failures(passes, sys.stdout))
    metrics = {
        "pass_s": statistics.median(sum(r.secs for r in p) for p in passes),
        "slowest_cmd_s": statistics.median(max(r.secs for r in p) for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
    }
    return len(passes) * len(cmds), failed, metrics, END_TO_END


def read_trace(result):
    """The span statistics trace_cli.py wrote to stderr, or None."""
    for line in reversed(result.err.decode(errors="replace").splitlines()):
        if line.startswith(TRACE_MARKER):
            return json.loads(line[len(TRACE_MARKER):])
    return None


def traced_run(cmds, deadline):
    plain = run_pass(cmds, deadline)
    traced = run_pass(cmds, deadline, traced=True)
    bad = failures([plain, traced], sys.stdout)  # traced stdout must equal plain stdout
    stats = {}
    for r in traced:
        trace = read_trace(r)
        if trace is None:
            if all(r is not b for b in bad):
                bad.append(r)
                print(f"FAILED {r.cmd!r}: no trace")
            continue
        for label, stat in trace.items():
            into = stats.setdefault(label, {})
            for field, value in stat.items():
                into[field] = into.get(field, 0) + value  # distinct: summed over processes

    def span(name, field):
        return sum(stats.get(label, {}).get(field, 0) for label in SPANS[name])

    metrics = {name: span(s, field) for name, _, s, field in SPAN_METRICS}
    calls, distinct = metrics["stieltjes.gamma.calls"], metrics["stieltjes.gamma.distinct"]
    metrics["stieltjes.gamma.useful_ratio"] = distinct / calls if calls else 0.0
    metrics["stieltjes.gamma.s_per_distinct"] = metrics["stieltjes.gamma.self_s"] / distinct if distinct else 0.0
    for module in MODULE_SELF:
        metrics[f"{module}.self_s"] = sum(
            stat["self_s"] for label, stat in stats.items() if label.split(".")[0] == module
        )
    metrics["trace.overhead_s"] = sum(r.secs for r in traced) - sum(r.secs for r in plain)
    metrics["error_rate"] = len(bad) / (2 * len(cmds))
    return 2 * len(cmds), len(bad), metrics, PER_LAYER


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (SRC / "zkconst" / "__init__.py").is_file():
        sys.exit(f"perfbench: no zkconst sources under {SRC}")
    print(json.dumps({"machine": machine(args)}))
    pin_to_one_cpu()
    probe()  # the first call fills mpmath's caches; later ones time arithmetic alone
    cmds = WORKLOADS[args.workload](args.seed)
    if args.trace:
        attempted, failed, metrics, units = traced_run(cmds, deadline)
    else:
        attempted, failed, metrics, units = timed_run(cmds, args.seconds, deadline)
    units = dict(units)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
