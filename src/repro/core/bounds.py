"""Lower bounds on the optimal makespan.

Note 1 of the paper gives ``OPT ≥ max(p(J)/m, max_c p(c))`` and, because two
of the ``m+1`` largest jobs must share a machine or run concurrently on the
same resource timeline, ``OPT ≥ p̃_m + p̃_{m+1}`` where ``p̃_i`` is the
``i``-th largest processing time.  Theorem 2 combines the three into the
bound ``T`` used by `Algorithm_5/3`.

Lemma 8 adds the *corridor* argument: in any schedule of makespan ``T``, each
class in ``CH`` forces ``≥ T/2`` load into the time corridor ``(T/4, 3T/4)``,
each class in ``CB`` or ``C≥3/4 \\ (CH ∪ CB)`` forces ``≥ T/4``; since a
machine covers at most ``T/2`` of corridor load,

``|CH| + max(|CB|, ceil((|CB| + |C≥3/4 \\ (CH∪CB)|)/2)) ≤ m``.

Lemma 9 turns this into a *search* for the smallest ``T`` satisfying both
Note 1 and the corridor inequality; `Algorithm_3/2` schedules within
``3T/2``.  We implement the search two ways (candidate thresholds as in the
paper, and plain monotone binary search) and cross-check them in tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List

from repro.core.classify import classify_classes
from repro.core.instance import Instance
from repro.util.rational import Number

__all__ = [
    "average_load_bound",
    "max_class_bound",
    "pair_bound",
    "basic_T",
    "lower_bound_int",
    "lemma8_holds",
    "lemma9_T",
    "lemma9_T_binary",
    "lemma9_T_candidates",
    "all_bounds",
]


def average_load_bound(instance: Instance) -> Fraction:
    """``p(J) / m`` — the average machine load."""
    return Fraction(instance.total_size, instance.num_machines)


def max_class_bound(instance: Instance) -> int:
    """``max_c p(c)`` — a class is inherently sequential."""
    return instance.max_class_size


def pair_bound(instance: Instance) -> int:
    """``p̃_m + p̃_{m+1}`` (0 when ``n ≤ m``).

    Either two of the ``m+1`` largest jobs share a machine, or at least two
    of them run on distinct machines — but then by pigeonhole two of the
    first ``m`` jobs share a machine; either way some machine carries two of
    these jobs.  Read off the instance's memoized LPT order
    (:meth:`~repro.core.instance.Instance.jobs_by_size_desc`), which every
    algorithm on the instance shares; the linear-time selection of Blum et
    al. that Lemma 9 cites (:func:`repro.util.selection.nth_largest`) is
    its test oracle.
    """
    m = instance.num_machines
    if instance.num_jobs <= m:
        return 0
    order = instance.jobs_by_size_desc()
    return order[m - 1].size + order[m].size


def basic_T(instance: Instance) -> Fraction:
    """Theorem 2's lower bound
    ``T = max(p(J)/m, max_c p(c), p̃_m + p̃_{m+1})`` as an exact Fraction."""
    return max(
        average_load_bound(instance),
        Fraction(max_class_bound(instance)),
        Fraction(pair_bound(instance)),
    )


def lower_bound_int(instance: Instance) -> int:
    """``ceil(basic_T)`` — a valid *integer* lower bound, since integral
    processing times admit an integral optimal makespan (left-shift
    argument)."""
    return math.ceil(basic_T(instance))


def lemma8_holds(instance: Instance, T: Number) -> bool:
    """Whether the Lemma 8 corridor inequality holds at bound ``T``."""
    return classify_classes(instance, T).lemma8_lhs() <= instance.num_machines


def lemma9_T_binary(instance: Instance) -> int:
    """Smallest integer ``T ≥ ceil(basic_T)`` satisfying Lemma 8.

    The Lemma 8 left-hand side is monotone non-increasing in ``T`` (raising
    ``T`` only moves classes out of ``CH``/``CB``/``C≥3/4`` and each such
    transition cannot increase the LHS), so plain binary search is exact.
    Because the inequality holds at ``T = OPT`` (Lemma 8) the result is a
    valid lower bound: ``T ≤ OPT``.
    """
    if instance.num_jobs == 0:
        return 0
    lo = max(lower_bound_int(instance), 1)
    if lemma8_holds(instance, lo):
        return lo
    hi = lo
    while not lemma8_holds(instance, hi):
        hi *= 2
    # invariant: predicate false at lo, true at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lemma8_holds(instance, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _threshold_candidates(instance: Instance) -> List[int]:
    """Integer values of ``T`` at which some class's category can change.

    For a class with largest job ``q`` and total ``s``:

    * leaves ``CH`` at the smallest ``T`` with ``4q ≤ 3T``, i.e.
      ``T = ceil(4q/3)``;
    * leaves ``CB`` at the smallest ``T`` with ``2q ≤ T``, i.e. ``T = 2q``;
    * leaves ``C≥3/4`` at the smallest ``T`` with ``4s < 3T``, i.e.
      ``T = floor(4s/3) + 1``.
    """
    candidates = set()
    for cid in instance.classes:
        q = instance.class_max_job(cid)
        s = instance.class_size(cid)
        candidates.add(-((-4 * q) // 3))  # ceil(4q/3)
        candidates.add(2 * q)
        candidates.add((4 * s) // 3 + 1)
    return sorted(candidates)


def lemma9_T_candidates(instance: Instance) -> int:
    """Lemma 9's candidate-threshold search (paper's ``O(n + m log m)``
    route): binary search over the sorted category-flip thresholds.

    Returns the same value as :func:`lemma9_T_binary`; both are exercised in
    tests.
    """
    if instance.num_jobs == 0:
        return 0
    base = max(lower_bound_int(instance), 1)
    if lemma8_holds(instance, base):
        return base
    cands = [t for t in _threshold_candidates(instance) if t > base]
    # The predicate is monotone along the candidate list and can only change
    # at candidates; find the first satisfying candidate by binary search.
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if lemma8_holds(instance, cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return cands[lo]


# The default Lemma 9 implementation.
lemma9_T = lemma9_T_binary


def all_bounds(instance: Instance) -> Dict[str, Number]:
    """All lower bounds at a glance (for reports and EXPERIMENTS.md)."""
    return {
        "average_load": average_load_bound(instance),
        "max_class": max_class_bound(instance),
        "pair": pair_bound(instance),
        "basic_T": basic_T(instance),
        "lemma9_T": lemma9_T(instance),
    }
