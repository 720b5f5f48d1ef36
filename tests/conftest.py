import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from planecode.numberfield import parse_poly  # noqa: E402
from planecode.pipeline import run_pipeline  # noqa: E402

ACCEPTANCE_POLYS = ("x^2-2", "x^2-x-1", "x^3-2", "x^4-x-1")


def canonical(triple):
    """The homogeneous triple scaled so that its first nonzero entry is 1.

    A point keeps whatever triple it is given and has no hash; the
    canonical triple of its coordinates is one hashable key per point.
    """
    scale = next(x for x in triple if not x.is_zero).inv()
    return tuple(x * scale for x in triple)


@pytest.fixture(scope="session")
def built():
    """Lazily built pipeline configurations, shared across the whole run.

    Maps polynomial text to (configuration, wall seconds).
    """
    cache = {}

    def get(text):
        if text not in cache:
            t0 = time.perf_counter()
            cfg = run_pipeline(parse_poly(text), seed=0)
            cache[text] = (cfg, time.perf_counter() - t0)
        return cache[text]

    return get
