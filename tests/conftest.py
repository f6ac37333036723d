import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import configuration

from zkconst.chain import table
from zkconst.precision import PrecisionContext

sys.path.insert(0, str(Path(__file__).parent))

from memos import clear_package_memos  # noqa: E402
from oracles import em_gamma_table  # noqa: E402

HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis caches the constants it reads from local source files under
    # its home directory, ./.hypothesis by default, even with no example
    # database; a temporary one keeps the test run from writing to the tree
    home = config.stash[HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[HYPOTHESIS_HOME].cleanup()


@pytest.fixture(autouse=True)
def no_planted_value_outlives_its_test(request):
    """A test that plants a fault with monkeypatch may have memoised a value
    computed under it, and a value memoised before it would hide its plant,
    so every package memo is cleared before and after it."""
    planting = "monkeypatch" in request.fixturenames
    if planting:
        clear_package_memos()
    yield
    if planting:
        clear_package_memos()


@pytest.fixture(scope="session")
def ctx30():
    return PrecisionContext(digits=30)


@pytest.fixture(scope="session")
def em_gammas():
    """Oracle gamma_0..gamma_8 at 60 digits (independent Euler-Maclaurin)."""
    return em_gamma_table(8, 1, 60)


@pytest.fixture(scope="session")
def chain30(ctx30):
    """The table chain gamma -> eta -> sigma -> lambda at 30 digits, each to 13."""
    kinds = {"gammas": "gamma", "etas": "eta", "sigmas": "sigma", "lambdas": "lambda"}
    return {name: table(kind, 13, ctx30) for name, kind in kinds.items()}
