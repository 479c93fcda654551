import decimal
import sys
from pathlib import Path

import pytest

from charprime.arith import precision
from charprime.cli import RunConfig

sys.path.insert(0, str(Path(__file__).parent))

# Test-side Decimal arithmetic (golden comparisons, slack sums) must never
# round below the package's working precision; the package itself always
# uses explicit contexts.
decimal.getcontext().prec = 200


@pytest.fixture(autouse=True)
def default_precision():
    """Pin the working precision so tests cannot leak settings."""
    with precision(50):
        yield


@pytest.fixture
def config():
    return RunConfig()
