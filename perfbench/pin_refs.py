"""Pin the references that run.py checks against, and vouch for them.

    python3 perfbench/pin_refs.py

Runs the CLI from ``src/``: every ``tables-60`` table, ``li-check --max-n
20`` and ``verify --suite all`` at 30 and 60 digits.  Each table value must
agree with oracle.py (which shares no code with the package) to
10^-(D-1) * max(1, |ref|), and every report must pass; only then is
``refs.json`` rewritten.  Run it on a commit whose output is trusted.
"""

from __future__ import annotations

import json
import sys
import time

import oracle
import run


def main() -> int:
    deadline = time.perf_counter() + 600
    fams = oracle.families(80)
    tables = {}
    for seq, cap in run.TABLES_60:
        cmd = run.Cmd(("table", "--seq", seq, "--max-n", str(cap), "--digits", "60"), None)
        (result,) = run.run_pass([cmd], deadline)
        if result.code != 0:
            sys.exit(f"{cmd!r} exited {result.code}")
        rows = run.table_rows(result.out.decode())
        reason = run.check_table({n: v for n, v in fams[seq].items() if n <= cap}, 60)(result.out.decode())
        if reason is not None:
            sys.exit(f"{cmd!r} disagrees with the oracle: {reason}")
        tables[seq] = rows
        print(f"{cmd!r}: {len(rows)} values agree with the oracle")

    def report_count(args):
        (result,) = run.run_pass([run.Cmd(args, run.check_reports(0))], deadline)
        reason = result.failure()
        if reason is not None:
            sys.exit(f"{result.cmd!r}: {reason}")
        count = int(result.out.decode().splitlines()[-1].rsplit("/", 1)[1])
        print(f"{result.cmd!r}: {count} reports, all passing")
        return count

    refs = {
        "tables-60": tables,
        "li_check_reports": report_count(("li-check", "--max-n", "20", "--digits", "60")),
        "verify_min_reports": {
            d: report_count(("verify", "--suite", "all", "--digits", d)) for d in ("30", "60")
        },
    }
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
