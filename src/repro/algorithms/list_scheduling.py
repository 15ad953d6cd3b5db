"""Resource-aware list scheduling with pluggable priority rules.

The classic dispatching baseline: jobs are considered in a fixed priority
order; each job is placed at the earliest conflict-free position (machine
end and class busy intervals considered), choosing the machine with the
smallest completion time.  Rules:

* ``"lpt"`` — longest processing time first (default);
* ``"class_lpt"`` — classes by total size (largest first), jobs inside a
  class by size;
* ``"input"`` — instance order (FIFO).

Valid by construction; no factor proven here (``guarantee=None``) — the
benchmarks use it as the "what a practitioner would try first" baseline.
Placement runs on the heap-indexed dispatch kernel
(:class:`~repro.core.dispatch.DispatchState`), reproducing the naive
per-machine scan bit for bit in O(log m + conflict-scan) per job.
"""

from __future__ import annotations

from typing import List

from repro.algorithms.base import (
    ScheduleResult,
    trivial_class_per_machine,
)
from repro.algorithms.registry import register
from repro.core.bounds import basic_T
from repro.core.dispatch import DispatchState
from repro.core.errors import PreconditionError
from repro.core.instance import Instance, Job
from repro.core.machine import MachinePool, build_schedule

__all__ = ["schedule_list", "PRIORITY_RULES"]


def _order_lpt(instance: Instance) -> List[Job]:
    return list(instance.jobs_by_size_desc())


def _order_class_lpt(instance: Instance) -> List[Job]:
    class_size = instance.class_sizes
    return sorted(
        instance.jobs,
        key=lambda j: (-class_size[j.class_id], j.class_id, -j.size, j.id),
    )


def _order_input(instance: Instance) -> List[Job]:
    return list(instance.jobs)


PRIORITY_RULES = {
    "lpt": _order_lpt,
    "class_lpt": _order_class_lpt,
    "input": _order_input,
}


@register("list_lpt")
def schedule_list(
    instance: Instance, *, rule: str = "lpt"
) -> ScheduleResult:
    """List scheduling under the given priority ``rule``."""
    if rule not in PRIORITY_RULES:
        raise PreconditionError(
            f"unknown rule {rule!r}; choose from {sorted(PRIORITY_RULES)}"
        )
    name = f"list_{rule}"
    fast = trivial_class_per_machine(instance, name)
    if fast is not None:
        return fast

    T = basic_T(instance)
    # Integral tick grid: busy intervals and machine frontiers are ints.
    pool = MachinePool(instance.num_machines)
    state = DispatchState(pool, instance.classes)
    for job in PRIORITY_RULES[rule](instance):
        state.place(job)

    return ScheduleResult(
        schedule=build_schedule(pool),
        lower_bound=T,
        algorithm=name,
        guarantee=None,
        stats={
            "T": T,
            "rule": rule,
            "dispatch": state.counters(),
        },
    )
