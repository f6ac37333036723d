"""The benchmark in perfbench/ must keep tracing the package it measures.

perfbench/run.py reads its per-layer metrics from spans named
<module>.<function>, and perfbench/trace_cli.py refuses to run when a traced
function also sits in a module-level container or a default argument.  Both
break silently when the package changes, so tier-1 checks them.  Nothing
under perfbench/ is written: bytecode caching is off while it is imported.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def load_bench_run():
    """perfbench/run.py as a module, imported with perfbench/ on sys.path."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look themselves up
        spec.loader.exec_module(module)
        return module
    finally:
        sys.modules.pop("perfbench_run", None)
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def test_spans_name_public_functions():
    spans = load_bench_run().SPANS
    missing = []
    for label in (name for names in spans.values() for name in names):
        short, func = label.split(".")
        module = importlib.import_module(f"zkconst.{short}")
        fn = getattr(module, func, None)
        if func.startswith("_") or not (
            inspect.isfunction(fn) and fn.__module__ == module.__name__
        ):
            missing.append(label)
    assert not missing, f"perfbench spans name no public function: {missing}"


def test_trace_cli_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "trace_cli.py"),
         "table", "--seq", "zeta0", "--max-n", "3", "--digits", "10"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(
        line.startswith("perfbench-trace ") for line in proc.stderr.splitlines()
    ), proc.stderr
