"""Exact MSRS solvers — the ``OPT`` oracle for ratio experiments.

Two engines:

* :func:`schedule_exact_milp` — a time-indexed integer program solved with
  HiGHS (``scipy.optimize.milp``).  Integral processing times admit an
  integral optimal schedule (left-shift argument), so binaries
  ``x[j, i, t]`` ("job ``j`` starts on machine ``i`` at time ``t``") with
  per-(machine, time) and per-(class, time) capacity rows and a makespan
  variable solve the problem exactly.
* :func:`schedule_exact_bb` — a pure-Python branch & bound over *left-shift
  normalized* schedules: jobs are placed in chronological order and every
  start time is either 0 or the completion time of an already placed job
  (on the same machine or in the same class); this enumeration is complete
  because any feasible schedule can be normalized into that form without
  increasing the makespan.

Both are intended for small instances (tests cap ``n``); the dispatching
:func:`schedule_exact` picks the MILP when available and within size limits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import (
    ScheduleResult,
    empty_result,
    trivial_class_per_machine,
)
from repro.algorithms.registry import register
from repro.core.bounds import lower_bound_int
from repro.core.errors import InfeasibleError, PreconditionError, ReproError
from repro.core.instance import Instance, Job
from repro.core.schedule import Placement, Schedule
from repro.util.optional import milp_modules

__all__ = [
    "schedule_exact",
    "schedule_exact_milp",
    "schedule_exact_bb",
    "ExactSearchLimit",
]


class ExactSearchLimit(ReproError, RuntimeError):
    """The branch & bound exceeded its node budget."""


def _upper_bound(instance: Instance) -> int:
    """Integer upper bound on OPT from `Algorithm_3/2`."""
    from repro.algorithms.three_halves import schedule_three_halves

    return math.ceil(schedule_three_halves(instance).schedule.makespan)


# --------------------------------------------------------------------- #
# Time-indexed MILP
# --------------------------------------------------------------------- #
# repro: exempt[REP004] exact solvers ARE ground truth; no pre-kernel loop exists to pin them to
@register("exact_milp")
def schedule_exact_milp(
    instance: Instance,
    *,
    horizon: Optional[int] = None,
    max_variables: int = 500_000,
) -> ScheduleResult:
    """Solve MSRS exactly via the time-indexed MILP (HiGHS backend)."""
    modules = milp_modules()
    if modules is None:  # pragma: no cover
        raise PreconditionError("scipy.optimize.milp is unavailable")
    np, sparse, optimize = modules
    fast = trivial_class_per_machine(instance, "exact_milp")
    if fast is not None:
        return fast

    n = instance.num_jobs
    m = instance.num_machines
    lb = lower_bound_int(instance)
    ub = horizon if horizon is not None else _upper_bound(instance)
    if ub < lb:
        raise PreconditionError(f"horizon {ub} below lower bound {lb}")

    jobs = list(instance.jobs)
    # Variable layout: x[j, i, t] enumerated job-major, then the makespan C.
    offsets: List[int] = []
    starts_of: List[range] = []
    nvar = 0
    for job in jobs:
        offsets.append(nvar)
        starts_of.append(range(0, ub - job.size + 1))
        nvar += m * len(starts_of[-1])
    c_index = nvar
    nvar += 1
    if nvar > max_variables:
        raise PreconditionError(
            f"MILP too large ({nvar} variables); raise max_variables or use "
            "schedule_exact_bb on a smaller instance"
        )

    def var(j: int, i: int, t: int) -> int:
        return offsets[j] + i * len(starts_of[j]) + (t - starts_of[j].start)

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    row_lb: List[float] = []
    row_ub: List[float] = []
    row = 0

    # Each job starts exactly once.
    for j in range(n):
        for i in range(m):
            for t in starts_of[j]:
                rows.append(row)
                cols.append(var(j, i, t))
                vals.append(1.0)
        row_lb.append(1.0)
        row_ub.append(1.0)
        row += 1

    # Makespan dominates every completion: C - sum (t+p_j) x >= 0.
    for j in range(n):
        for i in range(m):
            for t in starts_of[j]:
                rows.append(row)
                cols.append(var(j, i, t))
                vals.append(-(t + jobs[j].size))
        rows.append(row)
        cols.append(c_index)
        vals.append(1.0)
        row_lb.append(0.0)
        row_ub.append(float(ub))
        row += 1

    # Machine capacity: at most one job running on (i, t).
    for i in range(m):
        for t in range(ub):
            any_entry = False
            for j in range(n):
                t_lo = max(starts_of[j].start, t - jobs[j].size + 1)
                for t_start in range(t_lo, min(t, starts_of[j][-1]) + 1):
                    rows.append(row)
                    cols.append(var(j, i, t_start))
                    vals.append(1.0)
                    any_entry = True
            if any_entry:
                row_lb.append(0.0)
                row_ub.append(1.0)
                row += 1

    # Class capacity: at most one job of class c running at time t.
    class_jobs: Dict[int, List[int]] = {}
    for j, job in enumerate(jobs):
        class_jobs.setdefault(job.class_id, []).append(j)
    for cid, members in sorted(class_jobs.items()):
        if len(members) < 2:
            continue
        for t in range(ub):
            any_entry = False
            for j in members:
                t_lo = max(starts_of[j].start, t - jobs[j].size + 1)
                for t_start in range(t_lo, min(t, starts_of[j][-1]) + 1):
                    for i in range(m):
                        rows.append(row)
                        cols.append(var(j, i, t_start))
                        vals.append(1.0)
                        any_entry = True
            if any_entry:
                row_lb.append(0.0)
                row_ub.append(1.0)
                row += 1

    A = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(row, nvar), dtype=float
    )
    objective = np.zeros(nvar)
    objective[c_index] = 1.0
    lo = np.zeros(nvar)
    hi = np.ones(nvar)
    lo[c_index] = float(lb)
    hi[c_index] = float(ub)
    integrality = np.ones(nvar)

    result = optimize.milp(
        c=objective,
        constraints=optimize.LinearConstraint(A, row_lb, row_ub),
        bounds=optimize.Bounds(lo, hi),
        integrality=integrality,
    )
    if result.status != 0 or result.x is None:  # pragma: no cover
        raise InfeasibleError(
            f"MILP failed with status {result.status}: {result.message}"
        )

    placements: List[Placement] = []
    for j, job in enumerate(jobs):
        placed = False
        for i in range(m):
            for t in starts_of[j]:
                if result.x[var(j, i, t)] > 0.5:
                    placements.append(
                        Placement(job=job, machine=i, start=t)
                    )
                    placed = True
                    break
            if placed:
                break
        if not placed:  # pragma: no cover - solver contract
            raise InfeasibleError(f"job {job.id} unassigned in MILP solution")

    schedule = Schedule(placements, m)
    opt = int(schedule.makespan)
    return ScheduleResult(
        schedule=schedule,
        lower_bound=opt,
        algorithm="exact_milp",
        guarantee=Fraction(1),
        stats={"optimal": True, "milp_status": result.status, "horizon": ub},
    )


# --------------------------------------------------------------------- #
# Branch & bound over left-shift normalized schedules
# --------------------------------------------------------------------- #
def _bb_feasible(
    jobs: Sequence[Job],
    m: int,
    deadline: int,
    node_budget: int,
) -> Optional[List[Tuple[Job, int, int]]]:
    """Find a schedule with makespan ``≤ deadline`` or prove none exists.

    Chronological DFS over normalized schedules; returns
    ``[(job, machine, start), ...]`` or ``None``.
    """
    by_class: Dict[int, List[Job]] = {}
    for job in jobs:
        by_class.setdefault(job.class_id, []).append(job)
    for members in by_class.values():
        if sum(j.size for j in members) > deadline:
            return None
    if sum(j.size for j in jobs) > m * deadline:
        return None

    nodes = 0
    machine_busy: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
    class_busy: Dict[int, List[Tuple[int, int]]] = {
        cid: [] for cid in by_class
    }
    placed: List[Tuple[Job, int, int]] = []
    remaining = sorted(jobs, key=lambda j: (-j.size, j.id))

    def fits(intervals: List[Tuple[int, int]], s: int, e: int) -> bool:
        return all(e <= lo or hi <= s for lo, hi in intervals)

    def candidates(last_start: int) -> List[int]:
        # Normalized anchors: time 0 and completion times of placed jobs.
        ends = {0}
        ends.update(s + job.size for job, _, s in placed)
        return sorted(t for t in ends if t >= last_start)

    def dfs(last_start: int, last_id: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise ExactSearchLimit(
                f"exceeded {node_budget} nodes at deadline {deadline}"
            )
        if not remaining:
            return True
        used = sum(1 for b in machine_busy if b)
        for idx in range(len(remaining)):
            job = remaining[idx]
            for s in candidates(last_start):
                if s == last_start and job.id <= last_id:
                    continue
                if s + job.size > deadline:
                    continue
                if not fits(class_busy[job.class_id], s, s + job.size):
                    continue
                # Machine symmetry: used machines plus one fresh machine.
                limit = min(m, used + 1)
                for i in range(limit):
                    if not fits(machine_busy[i], s, s + job.size):
                        continue
                    remaining.pop(idx)
                    placed.append((job, i, s))
                    machine_busy[i].append((s, s + job.size))
                    class_busy[job.class_id].append((s, s + job.size))
                    if dfs(s, job.id):
                        return True
                    class_busy[job.class_id].pop()
                    machine_busy[i].pop()
                    placed.pop()
                    remaining.insert(idx, job)
        return False

    if dfs(0, -1):
        return list(placed)
    return None


# repro: exempt[REP004] exact solvers ARE ground truth; no pre-kernel loop exists to pin them to
@register("exact_bb")
def schedule_exact_bb(
    instance: Instance,
    *,
    max_jobs: int = 12,
    node_budget: int = 2_000_000,
) -> ScheduleResult:
    """Exact branch & bound (pure Python).

    Searches deadlines upward from the integer lower bound; each level runs
    the normalized-schedule DFS.  Guarded by ``max_jobs`` and
    ``node_budget`` (raises :class:`ExactSearchLimit` when exceeded).
    """
    fast = trivial_class_per_machine(instance, "exact_bb")
    if fast is not None:
        return fast
    if instance.num_jobs > max_jobs:
        raise PreconditionError(
            f"exact_bb limited to {max_jobs} jobs "
            f"(got {instance.num_jobs}); use exact_milp"
        )

    lb = lower_bound_int(instance)
    ub = _upper_bound(instance)
    for deadline in range(lb, ub + 1):
        found = _bb_feasible(
            instance.jobs, instance.num_machines, deadline, node_budget
        )
        if found is not None:
            placements = [
                Placement(job=job, machine=i, start=s)
                for job, i, s in found
            ]
            schedule = Schedule(placements, instance.num_machines)
            opt = int(schedule.makespan)
            return ScheduleResult(
                schedule=schedule,
                lower_bound=opt,
                algorithm="exact_bb",
                guarantee=Fraction(1),
                stats={"optimal": True, "deadline": deadline},
            )
    raise InfeasibleError(  # pragma: no cover - ub is always feasible
        f"no schedule within upper bound {ub}"
    )


# repro: exempt[REP004] dispatcher over exact_milp/exact_bb, themselves exempt ground truth
@register("exact")
def schedule_exact(instance: Instance, **kwargs) -> ScheduleResult:
    """Exact solve: MILP when available (and not overridden), else B&B."""
    if milp_modules() is not None:
        return schedule_exact_milp(instance, **kwargs)
    return schedule_exact_bb(instance, **kwargs)  # pragma: no cover
