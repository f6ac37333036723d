"""Run the zkconst CLI with the package's public functions wrapped in spans.

    PYTHONPATH=src python3 perfbench/trace_cli.py verify --suite all --digits 30

Stdout is the CLI's own, byte for byte.  When the command ends, the last line
on stderr is ``perfbench-trace <json>``: for every wrapped function
``<module>.<name>``, its calls, distinct argument keys (where a key is
defined), inclusive seconds, self seconds (inclusive minus the time spent in
other wrapped calls it made) and the total length of the lists it returned.

Every alias of a wrapped function is rebound: module attributes (so lazy
``from .stieltjes import stieltjes_gamma`` imports resolve to the wrapper),
names imported into other modules, the package's re-exports and functions
held in module-level dicts such as the verify suite table.  The package
itself is not modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from mpmath import libmp, mpf

MODULES = (
    "bell", "cli", "eta_sigma", "kernel", "li_keiper", "reports",
    "stieltjes", "verify", "xi", "zeta_derivs",
)
MARKER = "perfbench-trace "


def exact(u) -> Fraction:
    """u as an exact rational, so 1, "1", Fraction(1) and mpf(1) are one key."""
    if isinstance(u, mpf):
        return Fraction(*libmp.to_rational(u._mpf_))
    return Fraction(u)


# argument keys whose distinct values are counted
KEYS = {
    "stieltjes.stieltjes_gamma": lambda n, u, ctx: (n, exact(u), ctx),
    "kernel.zeta_int_mpf": lambda n, ctx, extra_dps=0: (n, ctx.working_dps + extra_dps),
}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.keys = {}
        self.child_time = []  # one slot per open span: time spent in wrapped callees

    def wrap(self, label, fn):
        stat = self.stats[label] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0}
        depth = [0]
        key = KEYS.get(label)
        if key is not None:
            seen = self.keys[label] = set()
        stack = self.child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            if key is not None:
                seen.add(key(*args, **kwargs))
            depth[0] += 1
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stat["self_s"] += elapsed - stack.pop()
                depth[0] -= 1
                if depth[0] == 0:
                    stat["total_s"] += elapsed
                if stack:
                    stack[-1] += elapsed
            if isinstance(result, list):
                stat["items"] += len(result)
            return result

        return wrapper

    def install(self, package: str = "zkconst") -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            module = sys.modules[f"{package}.{short}"]
            for name, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(value)] = (value, self.wrap(f"{short}.{name}", value))

        def replacement(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for module in modules:
            for name, value in list(vars(module).items()):
                if replacement(value) is not None:
                    setattr(module, name, replacement(value))
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if replacement(v) is not None:
                            value[k] = replacement(v)
                elif isinstance(value, (list, tuple, set, frozenset)) and any(
                    replacement(v) is not None for v in value
                ):
                    raise RuntimeError(f"{module.__name__}.{name} holds a traced function")
                elif inspect.isfunction(value) and any(
                    replacement(v) is not None
                    for v in (value.__defaults__ or ()) + tuple((value.__kwdefaults__ or {}).values())
                ):
                    raise RuntimeError(f"a default argument of {module.__name__}.{name} is traced")

    def report(self) -> dict:
        out = {}
        for label, stat in self.stats.items():
            if stat["calls"]:
                out[label] = dict(stat)
                if label in self.keys:
                    out[label]["distinct"] = len(self.keys[label])
        return out


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    import zkconst
    from zkconst import cli

    if not Path(zkconst.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"zkconst was imported from {zkconst.__file__}, not from {src}")
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print(MARKER + json.dumps(tracer.report()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
