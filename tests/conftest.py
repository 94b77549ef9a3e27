import gc
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest

from rainunet import precision

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def wide():
    """Run the test in 64-bit precision (finite-difference friendly)."""
    with precision.use_precision("wide"):
        yield


@pytest.fixture(autouse=True)
def _standard_by_default():
    precision.set_precision("standard")
    yield
    precision.set_precision("standard")


@pytest.fixture
def no_cyclic_gc():
    """Run the test with the cyclic garbage collector off, so that only
    reference counting frees memory."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


@pytest.fixture
def traced_peak():
    """Trace allocations with tracemalloc for a block: ``with traced_peak()
    as peak:``. Each ``peak()`` returns the most bytes held at once since
    the previous call, or since the block began, above what was held then,
    and starts the next span."""

    @contextmanager
    def tracing():
        tracemalloc.start()
        in_use = 0

        def peak() -> int:
            nonlocal in_use
            top = tracemalloc.get_traced_memory()[1] - in_use
            in_use = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return top

        try:
            yield peak
        finally:
            tracemalloc.stop()

    return tracing
