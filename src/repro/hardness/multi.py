"""The multi-resource MSRS variant (Section 5).

Each job needs a *set* ``R(j)`` of resources; two jobs conflict (may not
run concurrently) iff their resource sets intersect.  Plain MSRS is the
special case ``|R(j)| = 1``.  Theorem 23 shows the variant with ``|R(j)| ≤ 3``
and ``p_j ∈ {1,2,3}`` admits no ``(5/4-ε)``-approximation unless P = NP.

This module provides the instance/schedule model, the validator, a greedy
list scheduler (baseline upper bound), and an exact time-indexed MILP used
to verify the reduction's makespan-4-iff-satisfiable property on small
formulas.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.core.dispatch import earliest_free_start
from repro.core.errors import (
    InfeasibleError,
    InvalidInstanceError,
    InvalidScheduleError,
    PreconditionError,
)
from repro.util.optional import milp_modules

__all__ = [
    "MultiJob",
    "MultiInstance",
    "MultiSchedule",
    "validate_multi_schedule",
    "greedy_multi_schedule",
    "exact_multi_makespan",
]


@dataclass(frozen=True)
class MultiJob:
    """A job needing every resource in ``resources`` while running."""

    id: int
    size: int
    resources: FrozenSet[str]

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise InvalidInstanceError(f"job {self.id}: size must be positive")
        if not self.resources:
            raise InvalidInstanceError(
                f"job {self.id}: needs at least one resource"
            )

    def conflicts(self, other: "MultiJob") -> bool:
        return bool(self.resources & other.resources)


class MultiInstance:
    """Jobs with resource sets on ``m`` identical machines."""

    __slots__ = ("jobs", "num_machines", "name")

    def __init__(
        self,
        jobs: Iterable[MultiJob],
        num_machines: int,
        *,
        name: str = "multi-msrs",
    ) -> None:
        jobs = tuple(jobs)
        ids = [job.id for job in jobs]
        if len(set(ids)) != len(ids):
            raise InvalidInstanceError("duplicate job ids")
        if num_machines < 1:
            raise InvalidInstanceError("need at least one machine")
        self.jobs = jobs
        self.num_machines = num_machines
        self.name = name

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    def resources(self) -> List[str]:
        out = set()
        for job in self.jobs:
            out |= job.resources
        return sorted(out)

    def max_resources_per_job(self) -> int:
        return max((len(job.resources) for job in self.jobs), default=0)

    def resource_load(self, resource: str) -> int:
        """Total processing time needing ``resource`` — a makespan lower
        bound (jobs sharing a resource are sequential)."""
        return sum(job.size for job in self.jobs if resource in job.resources)

    def lower_bound(self) -> Fraction:
        per_resource = max(
            (self.resource_load(r) for r in self.resources()), default=0
        )
        total = sum(job.size for job in self.jobs)
        return max(
            Fraction(total, self.num_machines), Fraction(per_resource)
        )


MultiSchedule = Dict[int, Tuple[int, Fraction]]  # job id -> (machine, start)


def validate_multi_schedule(
    instance: MultiInstance,
    schedule: MultiSchedule,
    *,
    deadline: Optional[Fraction] = None,
) -> Fraction:
    """Validate and return the makespan; raises
    :class:`InvalidScheduleError` on any violation."""
    by_job = {job.id: job for job in instance.jobs}
    if set(schedule) != set(by_job):
        missing = set(by_job) - set(schedule)
        extra = set(schedule) - set(by_job)
        raise InvalidScheduleError(
            f"schedule job-set mismatch (missing {sorted(missing)[:5]}, "
            f"extra {sorted(extra)[:5]})"
        )
    makespan = Fraction(0)
    by_machine: Dict[int, List[Tuple[Fraction, Fraction, int]]] = {}
    by_resource: Dict[str, List[Tuple[Fraction, Fraction, int]]] = {}
    for job_id, (machine, start) in schedule.items():
        job = by_job[job_id]
        start = Fraction(start)
        if start < 0:
            raise InvalidScheduleError(f"job {job_id} starts before 0")
        if not 0 <= machine < instance.num_machines:
            raise InvalidScheduleError(
                f"job {job_id}: machine {machine} out of range"
            )
        end = start + job.size
        makespan = max(makespan, end)
        by_machine.setdefault(machine, []).append((start, end, job_id))
        for resource in job.resources:
            by_resource.setdefault(resource, []).append(
                (start, end, job_id)
            )
    for scope, intervals in list(by_machine.items()) + [
        (r, v) for r, v in by_resource.items()
    ]:
        intervals.sort()
        for (s1, e1, j1), (s2, e2, j2) in zip(intervals, intervals[1:]):
            if s2 < e1:
                raise InvalidScheduleError(
                    f"jobs {j1} and {j2} overlap in scope {scope!r}"
                )
    if deadline is not None and makespan > deadline:
        raise InvalidScheduleError(
            f"makespan {makespan} exceeds deadline {deadline}"
        )
    return makespan


def greedy_multi_schedule(instance: MultiInstance) -> MultiSchedule:
    """LPT-style greedy baseline: jobs by decreasing size, each placed at
    the earliest machine/resource-free time.

    Per-resource busy lists are kept sorted (``insort``) and merged per
    job with :func:`heapq.merge`, and the machine is chosen via the
    dispatch-kernel argument — ``earliest_free_start`` is monotone in
    ``ready``, so the winner of the naive per-machine scan is the
    leftmost machine whose frontier is ``≤`` the slot found from the
    *smallest* frontier.  Decision-for-decision identical to the former
    collect-everything-and-re-sort loop, but O(conflict-scan) instead of
    O(n · total intervals · log) per job.
    """
    machine_top = [Fraction(0)] * instance.num_machines
    resource_busy: Dict[str, List[Tuple[Fraction, Fraction]]] = {}
    schedule: MultiSchedule = {}
    for job in sorted(instance.jobs, key=lambda j: (-j.size, j.id)):
        merged: List[Tuple[Fraction, Fraction]] = []
        for lo, hi in heapq.merge(
            *(resource_busy.get(r, ()) for r in sorted(job.resources))
        ):
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        start = earliest_free_start(merged, min(machine_top), job.size)
        machine = next(
            i for i, top in enumerate(machine_top) if top <= start
        )
        schedule[job.id] = (machine, start)
        end = start + job.size
        machine_top[machine] = end
        for resource in job.resources:
            bisect.insort(
                resource_busy.setdefault(resource, []), (start, end)
            )
    return schedule


def exact_multi_makespan(
    instance: MultiInstance,
    *,
    horizon: Optional[int] = None,
    max_variables: int = 500_000,
) -> Tuple[int, MultiSchedule]:
    """Exact optimum via a time-indexed MILP with per-resource capacity
    rows (integral start times are WLOG by the left-shift argument)."""
    modules = milp_modules()
    if modules is None:  # pragma: no cover
        raise PreconditionError("scipy.optimize.milp unavailable")
    np, sparse, optimize = modules
    jobs = list(instance.jobs)
    m = instance.num_machines
    if horizon is None:
        greedy = greedy_multi_schedule(instance)
        horizon = int(validate_multi_schedule(instance, greedy))
    ub = horizon
    lb_frac = instance.lower_bound()
    lb = int(lb_frac) if lb_frac == int(lb_frac) else int(lb_frac) + 1

    offsets: List[int] = []
    starts_of: List[range] = []
    nvar = 0
    for job in jobs:
        offsets.append(nvar)
        if job.size > ub:
            raise InfeasibleError(
                f"job {job.id} of size {job.size} exceeds horizon {ub}"
            )
        starts_of.append(range(0, ub - job.size + 1))
        nvar += m * len(starts_of[-1])
    c_index = nvar
    nvar += 1
    if nvar > max_variables:
        raise PreconditionError(f"MILP too large ({nvar} variables)")

    def var(j: int, i: int, t: int) -> int:
        return offsets[j] + i * len(starts_of[j]) + t

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    row_lb: List[float] = []
    row_ub: List[float] = []
    row = 0

    for j in range(len(jobs)):
        for i in range(m):
            for t in starts_of[j]:
                rows.append(row)
                cols.append(var(j, i, t))
                vals.append(1.0)
        row_lb.append(1.0)
        row_ub.append(1.0)
        row += 1

    for j, job in enumerate(jobs):
        for i in range(m):
            for t in starts_of[j]:
                rows.append(row)
                cols.append(var(j, i, t))
                vals.append(-(t + job.size))
        rows.append(row)
        cols.append(c_index)
        vals.append(1.0)
        row_lb.append(0.0)
        row_ub.append(float(ub))
        row += 1

    for i in range(m):
        for t in range(ub):
            entries = []
            for j, job in enumerate(jobs):
                lo = max(0, t - job.size + 1)
                hi_t = min(t, ub - job.size)
                entries.extend(var(j, i, ts) for ts in range(lo, hi_t + 1))
            if entries:
                for idx in entries:
                    rows.append(row)
                    cols.append(idx)
                    vals.append(1.0)
                row_lb.append(0.0)
                row_ub.append(1.0)
                row += 1

    resource_jobs: Dict[str, List[int]] = {}
    for j, job in enumerate(jobs):
        for resource in job.resources:
            resource_jobs.setdefault(resource, []).append(j)
    for resource in sorted(resource_jobs):
        members = resource_jobs[resource]
        if len(members) < 2:
            continue
        for t in range(ub):
            entries = []
            for j in members:
                job = jobs[j]
                lo = max(0, t - job.size + 1)
                hi_t = min(t, ub - job.size)
                for ts in range(lo, hi_t + 1):
                    entries.extend(var(j, i, ts) for i in range(m))
            if entries:
                for idx in entries:
                    rows.append(row)
                    cols.append(idx)
                    vals.append(1.0)
                row_lb.append(0.0)
                row_ub.append(1.0)
                row += 1

    A = sparse.csr_matrix((vals, (rows, cols)), shape=(row, nvar))
    objective = np.zeros(nvar)
    objective[c_index] = 1.0
    lo_b = np.zeros(nvar)
    hi_b = np.ones(nvar)
    lo_b[c_index] = float(lb)
    hi_b[c_index] = float(ub)
    result = optimize.milp(
        c=objective,
        constraints=optimize.LinearConstraint(A, row_lb, row_ub),
        bounds=optimize.Bounds(lo_b, hi_b),
        integrality=np.ones(nvar),
    )
    if result.status != 0 or result.x is None:  # pragma: no cover
        raise InfeasibleError(
            f"multi MILP failed: status {result.status} {result.message}"
        )
    schedule: MultiSchedule = {}
    for j, job in enumerate(jobs):
        for i in range(m):
            for t in starts_of[j]:
                if result.x[var(j, i, t)] > 0.5:
                    schedule[job.id] = (i, Fraction(t))
                    break
            if job.id in schedule:
                break
    makespan = validate_multi_schedule(instance, schedule)
    return int(makespan), schedule
