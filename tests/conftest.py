import time
import tracemalloc

import pytest

from loglosslab import InstanceTooLargeError

# A refused call checks its guard before it allocates: measured at under
# 0.1 ms and a traced peak of 1-4 KB on a 2-core machine.
REFUSAL_SECONDS = 0.1
REFUSAL_PEAK_BYTES = 1 << 16


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


def _refused(fn, *args) -> str:
    """The message of the InstanceTooLargeError one call raises.

    The call must raise within REFUSAL_SECONDS and a traced peak of
    REFUSAL_PEAK_BYTES.
    """
    def call():
        with pytest.raises(InstanceTooLargeError) as err:
            fn(*args)
        return str(err.value)

    message, elapsed, peak, _ = _traced(call)
    assert elapsed <= REFUSAL_SECONDS, f"{elapsed:.3f}s"
    assert peak <= REFUSAL_PEAK_BYTES, f"{peak} bytes"
    return message


@pytest.fixture
def traced():
    """Run one call under tracemalloc; see ``_traced``."""
    return _traced


@pytest.fixture
def refused():
    """Run one call that a work guard must refuse; see ``_refused``."""
    return _refused
