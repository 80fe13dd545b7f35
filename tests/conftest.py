import time
import tracemalloc

import pytest


def _traced(fn, *args):
    """(result, seconds, traced peak bytes, traced bytes still held) of one call.

    The bytes still held are those allocated during the call and not freed
    by its end, such as the result.
    """
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, elapsed, peak, held


@pytest.fixture
def traced():
    """Run one call under tracemalloc; see ``_traced``."""
    return _traced
