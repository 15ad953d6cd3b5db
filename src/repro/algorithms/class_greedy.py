"""Greedy insertion baseline (in the spirit of Hebrard et al. [17]).

The paper describes the previously best general algorithm as one that
"successively chooses jobs based on their size and the size of the remaining
jobs in their class and then inserts them with some procedure designed to
avoid resource conflicts".  This reconstruction:

1. repeatedly selects the unscheduled job with the largest key
   ``(residual class load, p_j)`` — a job from the most loaded residual
   class, largest first within the class;
2. inserts it at the earliest conflict-free position: for every machine, the
   earliest start ``≥`` the machine's current end that avoids the class's
   busy intervals; the machine with the smallest completion time wins.

Both steps run on the heap-indexed dispatch kernel
(:mod:`repro.core.dispatch`): a :class:`~repro.core.dispatch.ClassSelectionHeap`
drives the selection rule and a :class:`~repro.core.dispatch.DispatchState`
finds each insertion position, making the whole loop
O(n · (log n + log m) + conflict-scan) while reproducing the naive
select-and-scan decisions bit for bit (the goldens and
``tests/core/test_dispatch.py`` pin this against
:mod:`repro.algorithms.reference`).

The schedule is valid by construction.  No approximation factor is proven in
this code base (the cited original achieves ``2m/(m+1)``), so the result
carries ``guarantee=None``; benchmarks report the measured ratios.
"""

from __future__ import annotations

from repro.algorithms.base import (
    ScheduleResult,
    trivial_class_per_machine,
)
from repro.algorithms.registry import register
from repro.core.bounds import basic_T
from repro.core.dispatch import ClassSelectionHeap, DispatchState
from repro.core.dispatch import earliest_free_start as earliest_class_free_start  # noqa: F401 - re-export
from repro.core.instance import Instance
from repro.core.machine import MachinePool, build_schedule

__all__ = ["schedule_class_greedy", "earliest_class_free_start"]


@register("class_greedy")
def schedule_class_greedy(instance: Instance) -> ScheduleResult:
    """Run the greedy-insertion baseline."""
    fast = trivial_class_per_machine(instance, "class_greedy")
    if fast is not None:
        return fast

    T = basic_T(instance)
    pool = MachinePool(instance.num_machines)
    state = DispatchState(pool, instance.classes)
    selection = ClassSelectionHeap(instance)
    for job in selection:
        state.place(job)

    schedule = build_schedule(pool)
    return ScheduleResult(
        schedule=schedule,
        lower_bound=T,
        algorithm="class_greedy",
        guarantee=None,
        stats={
            "T": T,
            "dispatch": {
                **state.counters(),
                "heap_pushes": selection.heap_pushes,
                "stale_pops": selection.stale_pops,
            },
        },
    )
