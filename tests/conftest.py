import sys
from pathlib import Path

import pytest

from zkconst.chain import table
from zkconst.precision import PrecisionContext

sys.path.insert(0, str(Path(__file__).parent))

from oracles import em_gamma_table  # noqa: E402


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
