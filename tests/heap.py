"""Memory measured on a collected heap, for the tests that bound it.

tracemalloc counts Python's own allocations, nearly the same bytes on every
run, but an object CPython takes off a free list filled before tracing
started is not traced. A full collection also empties the free lists, so
``traced`` collects before the call; it collects again after the call, so
that what is still traced is what the call left alive.
"""

import gc
import tracemalloc


def traced(function, *args, **kwargs):
    """``(result, size, peak)``: what ``function(*args, **kwargs)`` returns,
    the memory still traced once it has returned, read while the result is
    held, and the highest memory traced while it ran, both counted from where
    the call began. Under an outer trace, as under ``python -X tracemalloc``,
    tracing is neither started nor stopped."""
    outer = tracemalloc.is_tracing()
    gc.collect()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = function(*args, **kwargs)
        gc.collect()
        size, peak = tracemalloc.get_traced_memory()
        return result, size - base, peak - base
    finally:
        if not outer:
            tracemalloc.stop()
