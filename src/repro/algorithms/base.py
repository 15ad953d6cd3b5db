"""Common result type and helpers shared by all scheduling algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Optional

from repro.core.instance import Instance
from repro.core.machine import MachinePool, build_schedule
from repro.core.schedule import Schedule
from repro.util.rational import Number

__all__ = [
    "ScheduleResult",
    "trivial_class_per_machine",
    "empty_result",
]


@dataclass
class ScheduleResult:
    """The output of a scheduling algorithm.

    Attributes
    ----------
    schedule:
        The constructed (valid) schedule.
    lower_bound:
        The algorithm's own lower bound on ``OPT`` — e.g. Theorem 2's ``T``
        for `Algorithm_5/3`, Lemma 9's ``T`` for `Algorithm_3/2`, or the
        exact optimum for the exact solvers.  Always ``lower_bound ≤ OPT``.
    algorithm:
        Registry name of the producing algorithm.
    guarantee:
        The proven approximation factor relative to ``lower_bound`` (e.g.
        ``Fraction(5, 3)``); ``None`` for heuristics without a bound proven
        in this code base.
    stats:
        Free-form diagnostics: step traces, counters, solver statistics.
    """

    schedule: Schedule
    lower_bound: Number
    algorithm: str
    guarantee: Optional[Fraction] = None
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def makespan(self) -> Fraction:
        return self.schedule.makespan

    def bound_ratio(self) -> Fraction:
        """Exact ``makespan / lower_bound`` (∞-safe: requires a positive
        bound, which holds for any non-empty instance)."""
        return self.schedule.ratio_to(self.lower_bound)

    def within_guarantee(self) -> bool:
        """Whether ``makespan ≤ guarantee · lower_bound`` (exact check)."""
        if self.guarantee is None:
            return True
        return self.makespan <= self.guarantee * Fraction(self.lower_bound)


def empty_result(instance: Instance, algorithm: str) -> ScheduleResult:
    """Result for the empty instance (makespan 0)."""
    return ScheduleResult(
        schedule=Schedule([], instance.num_machines),
        lower_bound=0,
        algorithm=algorithm,
        guarantee=Fraction(1),
        stats={"fast_path": "empty"},
    )


def trivial_class_per_machine(
    instance: Instance, algorithm: str
) -> Optional[ScheduleResult]:
    """Optimal fast path for ``m ≥ |C|``.

    With at least one machine per class, scheduling each class consecutively
    on its own machine achieves ``max_c p(c)``, which is a lower bound on any
    schedule (classes are inherently sequential) — hence optimal.  Returns
    ``None`` when the fast path does not apply (the paper's standing
    assumption ``m < |C|``).
    """
    if instance.num_jobs == 0:
        return empty_result(instance, algorithm)
    if instance.num_machines < instance.num_classes:
        return None
    pool = MachinePool(instance.num_machines)
    for cid in sorted(instance.classes):
        machine = pool.take_fresh()
        machine.place_block_at_ticks(list(instance.classes[cid]), 0)
    schedule = build_schedule(pool)
    return ScheduleResult(
        schedule=schedule,
        lower_bound=instance.max_class_size,
        algorithm=algorithm,
        guarantee=Fraction(1),
        stats={"fast_path": "class_per_machine"},
    )
