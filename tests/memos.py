"""Clearing the package's memos between computations a test compares."""

import importlib
import pkgutil

import zkconst


def package_memos() -> list:
    """("module.name", memo) for every module-level object with a
    cache_clear in every zkconst module; __main__ is skipped, since importing
    it runs the CLI."""
    found = []
    for info in pkgutil.iter_modules(zkconst.__path__):
        if info.name.startswith("__"):
            continue
        module = importlib.import_module(f"zkconst.{info.name}")
        found += [(f"{info.name}.{name}", value) for name, value in vars(module).items()
                  if callable(getattr(value, "cache_clear", None))]
    return found


def clear_package_memos() -> None:
    """Forget every value the package has remembered."""
    for _, memo in package_memos():
        memo.cache_clear()
