"""Deterministic linear-time selection (median of medians).

Lemma 9 of the paper finds the ``(m+1)``-st largest processing time in ``O(n)``
steps "using the famous median algorithm of Blum et al.".  This module
implements that algorithm faithfully: worst-case ``O(n)`` selection with the
group-of-five median-of-medians pivot rule.  A tiny input falls back to
sorting, exactly as the classic algorithm does.

:func:`repro.core.bounds.pair_bound` reads ``p̃_m`` and ``p̃_{m+1}`` from the
instance's memoized LPT order instead (one sort, shared by every algorithm
run on the instance); the tests check it against :func:`nth_largest`.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["select_kth_smallest", "nth_smallest", "nth_largest"]

_SMALL = 10


def _median_of_five(chunk: list) -> object:
    chunk.sort()
    return chunk[len(chunk) // 2]


def select_kth_smallest(values: Sequence, k: int) -> object:
    """Return the ``k``-th smallest element (1-based) of ``values``.

    Worst-case linear time via median-of-medians.  Raises :class:`ValueError`
    when ``k`` is out of range.
    """
    n = len(values)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for sequence of length {n}")
    items = list(values)
    while True:
        if len(items) <= _SMALL:
            items.sort()
            return items[k - 1]
        medians = [
            _median_of_five(items[i : i + 5]) for i in range(0, len(items), 5)
        ]
        pivot = select_kth_smallest(medians, (len(medians) + 1) // 2)
        lows = [x for x in items if x < pivot]
        highs = [x for x in items if x > pivot]
        pivots = len(items) - len(lows) - len(highs)
        if k <= len(lows):
            items = lows
        elif k <= len(lows) + pivots:
            return pivot
        else:
            k -= len(lows) + pivots
            items = highs


def nth_smallest(values: Sequence, n: int) -> object:
    """Alias of :func:`select_kth_smallest` (1-based)."""
    return select_kth_smallest(values, n)


def nth_largest(values: Sequence, n: int) -> object:
    """Return the ``n``-th largest element (1-based) of ``values``."""
    return select_kth_smallest(values, len(values) - n + 1)
