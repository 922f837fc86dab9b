"""The collected-heap measurement the memory tests rely on."""

import tracemalloc

import pytest

from heap import traced


def pairs():
    return [(i, i + 1) for i in range(5000)]


def test_the_same_allocation_reads_the_same_twice():
    # without a collection first, the second call takes the tuples the first
    # one freed off a free list, untraced
    first, second = traced(pairs)[1:], traced(pairs)[1:]
    assert first == second
    size, peak = first
    assert 5000 * 2 * 28 < size <= peak  # more than the 10,000 ints alone


def test_an_outer_trace_stays_and_counts_from_the_call():
    was_tracing = tracemalloc.is_tracing()
    alone = traced(pairs)[1:]
    assert tracemalloc.is_tracing() == was_tracing
    (inner, tracing), *_ = traced(lambda: (traced(pairs)[1:], tracemalloc.is_tracing()))
    # what the outer trace already holds is not counted; a block it traced
    # before the call and that is freed during it is, by a few hundred bytes
    assert tracing and inner == pytest.approx(alone, rel=0.01)
