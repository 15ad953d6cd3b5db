"""Schedule validation.

A schedule for an MSRS instance is *valid* iff (Section 1 of the paper):

1. every job of the instance is placed exactly once (and no foreign jobs
   appear),
2. jobs assigned to the same machine do not overlap in time,
3. jobs of the same class do not overlap in time — across all machines.

:func:`validate_schedule` raises :class:`InvalidScheduleError` with a precise
message; :func:`is_valid` is the boolean convenience wrapper.  The check is
one pass over the instance's jobs and one sweep over the schedule's tick
rows, sorted once by ``(start, job id)``
(:meth:`~repro.core.schedule.Schedule.tick_rows`), that keeps the previous
end per machine and per class: ``O(n log n)`` in all, on integer ticks.
Only a failing schedule pays for naming its fault — the first missing,
foreign or altered job, or the first overlap in machine order and then in
class order, read from the schedule's lazily grouped machine and class
views — and only then does :class:`~fractions.Fraction` arithmetic run, to
render the message.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.core.errors import InvalidScheduleError
from repro.core.instance import Instance
from repro.core.schedule import Schedule

__all__ = [
    "validate_schedule",
    "is_valid",
    "validation_instance",
]


def validation_instance(instance: Instance, schedule: Schedule) -> Instance:
    """The instance to validate ``schedule`` against.

    Returns ``instance`` itself when the machine counts agree.  When an
    algorithm legitimately returns a schedule on a different machine set
    (e.g. the EPTAS in resource-augmentation mode adds ``⌊εm⌋``
    machines), returns a copy of ``instance`` re-based to the schedule's
    machine count so job placement and disjointness are still fully
    checked instead of the check being skipped.
    """
    if schedule.num_machines == instance.num_machines:
        return instance
    return Instance(
        instance.jobs,
        schedule.num_machines,
        name=f"{instance.name}[m={schedule.num_machines}]",
        class_labels=instance.class_labels,
    )


def _job_set_error(instance: Instance, schedule: Schedule) -> Optional[str]:
    """Why ``schedule`` does not place exactly the jobs of ``instance``,
    or ``None`` when it does.

    One lookup per instance job; a placement that holds the instance's
    own :class:`~repro.core.instance.Job` object, as every algorithm's
    do, passes without a field comparison.  Only a mismatch runs the set
    arithmetic that names it.
    """
    placements = schedule.placements
    if len(placements) == instance.num_jobs:
        get = placements.get
        for job in instance.jobs:
            pl = get(job.id)
            if pl is None or (
                pl.job is not job
                and (pl.job.size, pl.job.class_id) != (job.size, job.class_id)
            ):
                break
        else:
            return None
    placed_ids = set(placements)
    instance_ids = {job.id for job in instance.jobs}
    missing = instance_ids - placed_ids
    if missing:
        return f"{len(missing)} job(s) not scheduled, e.g. id {min(missing)}"
    extra = placed_ids - instance_ids
    if extra:
        return f"{len(extra)} foreign job(s) in schedule, e.g. id {min(extra)}"
    for job in instance.jobs:
        placed = placements[job.id].job
        if placed.size != job.size or placed.class_id != job.class_id:
            return (
                f"job {job.id} was altered: instance has (size={job.size}, "
                f"class={job.class_id}), schedule has (size={placed.size}, "
                f"class={placed.class_id})"
            )
    return None


def _overlap_error(instance: Instance, schedule: Schedule) -> str:
    """The message naming the first overlap: machines first, in machine
    order, then classes, each scanned in ``(start, job id)`` order."""
    scopes = [
        (
            f"machine {machine}",
            schedule.machine_intervals(machine),
            schedule.machine_placements(machine),
        )
        for machine in schedule.machines_used()
    ] + [
        (
            f"class {class_id}",
            schedule.class_intervals(class_id),
            schedule.class_placements(class_id),
        )
        for class_id in instance.classes
    ]
    for what, intervals, placements in scopes:
        for index in range(1, len(intervals)):
            if intervals[index][0] < intervals[index - 1][1]:
                prev, cur = placements[index - 1], placements[index]
                return (
                    f"{what}: job {prev.job.id} [{prev.start}, {prev.end}) "
                    f"overlaps job {cur.job.id} [{cur.start}, {cur.end})"
                )
    raise AssertionError("no interval overlaps its predecessor")


def validate_schedule(
    instance: Instance,
    schedule: Schedule,
    *,
    deadline: Optional[Fraction] = None,
) -> None:
    """Raise :class:`InvalidScheduleError` unless ``schedule`` is valid.

    Parameters
    ----------
    deadline:
        If given, additionally require every job to finish by ``deadline`` —
        used by tests that pin an algorithm's makespan guarantee.
    """
    if schedule.num_machines != instance.num_machines:
        raise InvalidScheduleError(
            f"schedule has {schedule.num_machines} machines, instance has "
            f"{instance.num_machines}"
        )
    job_error = _job_set_error(instance, schedule)
    if job_error is not None:
        raise InvalidScheduleError(job_error)

    # Sorted by start, an interval is disjoint from every earlier one of
    # its machine (class) iff it starts no earlier than the previous one
    # ends: ends increase along a disjoint run.  Starts are >= 0.
    machine_end = [0] * schedule.num_machines
    class_end = dict.fromkeys(instance.classes, 0)
    for start, _job_id, end, machine, class_id in schedule.tick_rows():
        if start < machine_end[machine] or start < class_end[class_id]:
            raise InvalidScheduleError(_overlap_error(instance, schedule))
        machine_end[machine] = end
        class_end[class_id] = end

    if deadline is not None and schedule.makespan > deadline:
        raise InvalidScheduleError(
            f"makespan {schedule.makespan} exceeds deadline {deadline}"
        )


def is_valid(
    instance: Instance,
    schedule: Schedule,
    *,
    deadline: Optional[Fraction] = None,
) -> bool:
    """Boolean wrapper around :func:`validate_schedule`."""
    try:
        validate_schedule(instance, schedule, deadline=deadline)
    except InvalidScheduleError:
        return False
    return True
