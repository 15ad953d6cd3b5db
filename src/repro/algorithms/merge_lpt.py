"""Class-merging LPT baseline (in the spirit of Strusevich [29]).

Strusevich's ``2m/(m+1)``-approximation "merges the classes into single jobs
to avoid resource conflicts" (Section 1 of the paper).  This module
implements that idea in its classic form: every class becomes one composite
job of size ``p(c)``, the composites are scheduled by LPT (longest processing
time first) on the ``m`` machines, and each class then runs consecutively on
its machine — which makes resource conflicts impossible by construction.

The factor we can *prove* for this reconstruction is the Graham-style bound

``Cmax ≤ p(J)/m + (1 - 1/m) · max_c p(c) ≤ (2 - 1/m) · T``

(the original paper's refinement to ``2m/(m+1)`` uses additional case
analysis not reproduced here; benchmarks compare both lines against the
measured ratios).  The guarantee attached to the result is the proven
``(2m-1)/m``.
"""

from __future__ import annotations

from fractions import Fraction

from repro.algorithms.base import (
    ScheduleResult,
    trivial_class_per_machine,
)
from repro.algorithms.registry import register
from repro.core.bounds import basic_T
from repro.core.dispatch import DispatchState
from repro.core.instance import Instance
from repro.core.machine import MachinePool, build_schedule

__all__ = ["schedule_merge_lpt"]


@register("merge_lpt")
def schedule_merge_lpt(instance: Instance) -> ScheduleResult:
    """Merge classes into single jobs, then LPT."""
    fast = trivial_class_per_machine(instance, "merge_lpt")
    if fast is not None:
        return fast

    T = basic_T(instance)
    m = instance.num_machines
    pool = MachinePool(m)

    # LPT over composite jobs: each class goes, as one contiguous block,
    # onto the machine with the smallest (frontier, index) — machines are
    # gapless here, so the frontier *is* the load of the naive LPT heap.
    class_sizes = instance.class_sizes
    composites = sorted(
        instance.classes, key=lambda cid: (-class_sizes[cid], cid)
    )
    state = DispatchState(pool, ())
    for cid in composites:
        state.place_block(list(instance.classes[cid]))

    schedule = build_schedule(pool)
    return ScheduleResult(
        schedule=schedule,
        lower_bound=T,
        algorithm="merge_lpt",
        # repro: allow[REP001] result-metadata stamp (m-dependent guarantee), not placement arithmetic
        guarantee=Fraction(2 * m - 1, m),
        stats={"T": T, "merged_jobs": len(composites)},
    )
