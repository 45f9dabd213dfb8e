"""The traced peak of one call, which tests bound a routine's transient memory by."""

import tracemalloc


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the result, and the most bytes that ``tracemalloc`` saw held at once during the call,
    above what was held when it began (NumPy reports its array buffers to ``tracemalloc``)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
