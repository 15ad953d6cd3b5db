"""Schedules: immutable assignments of jobs to (machine, start time).

Internally the schedule lives on an integer tick grid (see
:mod:`repro.core.timescale`): every start/end is an ``int`` tick over one
schedule-level ``denominator``, so construction, sorting and disjointness
checks are pure integer arithmetic.  The public API is unchanged —
:attr:`Placement.start` and :attr:`Schedule.makespan` are exact
:class:`fractions.Fraction` values and ``to_dict``/``from_dict`` keep the
seed's byte format (starts as normalized ``[num, den]`` pairs).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.errors import InvalidScheduleError
from repro.core.instance import Instance, Job
from repro.core.timescale import as_integer_ratio

__all__ = ["Placement", "Schedule"]

#: ``(start, job_id, end, machine, class_id)`` on the schedule's tick grid.
TickRow = Tuple[int, int, int, int, int]
_Group = Tuple[Tuple["Placement", ...], Tuple[Tuple[int, int], ...]]
# Positions of the grouping keys within a TickRow.
_MACHINE, _CLASS = 3, 4


class Placement:
    """One scheduled job: ``job`` runs on ``machine`` during ``[start, end)``.

    The start time is stored as a normalized integer ratio
    (``_num / _den``); construct from a :class:`~fractions.Fraction` (or
    ``int``) via the regular constructor, or tick-natively via
    :meth:`from_ticks`.
    """

    __slots__ = ("job", "machine", "_num", "_den")

    def __init__(self, job: Job, machine: int, start) -> None:
        num, den = as_integer_ratio(start)
        object.__setattr__(self, "job", job)
        object.__setattr__(self, "machine", machine)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def from_ticks(
        cls, job: Job, machine: int, ticks: int, denominator: int
    ) -> "Placement":
        """Build a placement from a start expressed in grid ticks."""
        pl = cls.__new__(cls)
        if denominator == 1:
            num, den = ticks, 1
        else:
            g = math.gcd(ticks, denominator)
            num, den = ticks // g, denominator // g
        object.__setattr__(pl, "job", job)
        object.__setattr__(pl, "machine", machine)
        object.__setattr__(pl, "_num", num)
        object.__setattr__(pl, "_den", den)
        return pl

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"Placement is immutable; cannot assign {name!r}"
        )

    # ------------------------------------------------------------------ #
    @property
    def start(self) -> Fraction:
        """Start time as an exact :class:`~fractions.Fraction`."""
        return Fraction(self._num, self._den)

    @property
    def end(self) -> Fraction:
        """Completion time ``start + p_j``."""
        return Fraction(self._num + self.job.size * self._den, self._den)

    def start_ticks(self, denominator: int) -> int:
        """Start in ticks of a grid this placement's grid divides."""
        scale, rem = divmod(denominator, self._den)
        if rem:
            raise InvalidScheduleError(
                f"start {self.start} is off the 1/{denominator} tick grid"
            )
        return self._num * scale

    def overlaps(self, other: "Placement") -> bool:
        """Whether the two half-open execution intervals intersect."""
        return self.start < other.end and other.start < self.end

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return (
            self.job == other.job
            and self.machine == other.machine
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self) -> int:
        return hash((self.job, self.machine, self._num, self._den))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Placement(job={self.job!r}, machine={self.machine!r}, "
            f"start={self.start!r})"
        )


class Schedule:
    """An immutable schedule: one :class:`Placement` per job.

    The class performs only *structural* checks on construction (unique jobs,
    machine indices in range, non-negative starts); full validity — machine
    and class disjointness — is checked by
    :func:`repro.core.validate.validate_schedule`.

    Parameters
    ----------
    placements, num_machines:
        As in the seed API.
    denominator:
        Optional declared tick grid.  When omitted, the schedule grid is
        the LCM of the placements' start denominators; when given, every
        placement must lie on the declared grid.
    """

    __slots__ = (
        "_placements",
        "_rows",
        "_rows_sorted",
        "_indices",
        "_loads",
        "_makespan_ticks",
        "_den",
        "num_machines",
    )

    def __init__(
        self,
        placements: Iterable[Placement],
        num_machines: int,
        *,
        denominator: Optional[int] = None,
    ) -> None:
        entries = list(placements)
        if denominator is None:
            den = 1
            for pl in entries:
                den = math.lcm(den, pl._den)
        else:
            den = denominator
            if den < 1:
                raise InvalidScheduleError("denominator must be positive")

        # One pass, no sorting: the sorted views are built on demand from
        # the flat tick rows (see tick_rows).
        by_job: Dict[int, Placement] = {}
        rows: List[TickRow] = []
        loads: Dict[int, int] = {}
        makespan_ticks = 0
        for pl in entries:
            job = pl.job
            job_id = job.id
            if job_id in by_job:
                raise InvalidScheduleError(
                    f"job {job_id} placed more than once"
                )
            machine = pl.machine
            if not 0 <= machine < num_machines:
                raise InvalidScheduleError(
                    f"job {job_id}: machine {machine} out of range "
                    f"[0, {num_machines})"
                )
            if pl._den == den:
                start = pl._num
            else:
                scale, rem = divmod(den, pl._den)
                if rem:
                    raise InvalidScheduleError(
                        f"job {job_id}: start {pl.start} is off the "
                        f"declared 1/{den} tick grid"
                    )
                start = pl._num * scale
            if start < 0:
                raise InvalidScheduleError(
                    f"job {job_id} starts before time zero"
                )
            end = start + job.size * den
            by_job[job_id] = pl
            rows.append((start, job_id, end, machine, job.class_id))
            loads[machine] = loads.get(machine, 0) + job.size
            if end > makespan_ticks:
                makespan_ticks = end
        self._placements = by_job
        self._rows = rows
        self._rows_sorted = False
        self._indices: Dict[int, Dict[int, _Group]] = {}
        self._loads = loads
        self._makespan_ticks = makespan_ticks
        self._den = den
        self.num_machines = num_machines

    # ------------------------------------------------------------------ #
    @property
    def denominator(self) -> int:
        """The schedule's tick grid: starts are multiples of
        ``1/denominator``."""
        return self._den

    @property
    def makespan(self) -> Fraction:
        """``C_max = max_j t(j) + p_j`` (0 for an empty schedule)."""
        return Fraction(self._makespan_ticks, self._den)

    @property
    def makespan_ticks(self) -> int:
        """The makespan in grid ticks."""
        return self._makespan_ticks

    @property
    def placements(self) -> Mapping[int, Placement]:
        """Mapping from job id to placement."""
        return self._placements

    def __len__(self) -> int:
        return len(self._placements)

    def __iter__(self) -> Iterator[Placement]:
        return iter(self._placements.values())

    def __getitem__(self, job_id: int) -> Placement:
        return self._placements[job_id]

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._placements

    def tick_rows(self) -> List[TickRow]:
        """One ``(start, job_id, end, machine, class_id)`` tick row per
        placement, sorted by ``(start, job id)``.

        Sorted on the first call and kept (the schedule is immutable);
        callers must not modify the list.  The validator sweeps it once,
        and the machine and class views below are grouped from it.
        """
        if not self._rows_sorted:
            self._rows = sorted(self._rows)
            self._rows_sorted = True
        return self._rows

    def _group(self, field: int, key: int) -> _Group:
        """``(placements, intervals)`` of one machine (``field`` 3) or
        class (``field`` 4), in ``(start, job id)`` order.

        The grouping for a field is built once, on first use, in one pass
        over :meth:`tick_rows`.
        """
        index = self._indices.get(field)
        if index is None:
            groups: Dict[int, List[TickRow]] = {}
            for row in self.tick_rows():
                groups.setdefault(row[field], []).append(row)
            by_job = self._placements
            index = self._indices[field] = {
                value: (
                    tuple(by_job[row[1]] for row in members),
                    tuple((row[0], row[2]) for row in members),
                )
                for value, members in groups.items()
            }
        return index.get(key, ((), ()))

    def machine_placements(self, machine: int) -> Tuple[Placement, ...]:
        """Placements on one machine, sorted by start time."""
        return self._group(_MACHINE, machine)[0]

    def machine_intervals(self, machine: int) -> Tuple[Tuple[int, int], ...]:
        """``(start, end)`` tick intervals on one machine, sorted, aligned
        with :meth:`machine_placements`."""
        return self._group(_MACHINE, machine)[1]

    def machines_used(self) -> List[int]:
        """Indices of machines that run at least one job."""
        return sorted(self._loads)

    def machine_load(self, machine: int) -> int:
        """Total processing time assigned to ``machine`` (maintained at
        construction, O(1) per query)."""
        return self._loads.get(machine, 0)

    def class_placements(self, class_id: int) -> Tuple[Placement, ...]:
        """Placements of all jobs of one class, sorted by start time."""
        return self._group(_CLASS, class_id)[0]

    def class_intervals(self, class_id: int) -> Tuple[Tuple[int, int], ...]:
        """``(start, end)`` tick intervals of one class, sorted, aligned
        with :meth:`class_placements`."""
        return self._group(_CLASS, class_id)[1]

    # ------------------------------------------------------------------ #
    def ratio_to(self, bound) -> Fraction:
        """Exact ratio ``makespan / bound`` (``bound`` int or Fraction)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        # repro: allow[REP001] exact read-out accessor (ratio certification), not placement arithmetic
        return self.makespan / Fraction(bound)

    def merged_with(self, other: "Schedule") -> "Schedule":
        """Union of two schedules over the same machine set.

        Used when a subroutine (e.g. ``Algorithm_no_huge`` inside
        ``Algorithm_3/2``) schedules a residual instance on a disjoint set of
        machines.  Structural checks re-run on the merged placement set.
        """
        if other.num_machines != self.num_machines:
            raise InvalidScheduleError("machine counts differ")
        return Schedule(
            list(self._placements.values()) + list(other._placements.values()),
            self.num_machines,
        )

    def to_dict(self) -> dict:
        """JSON-serializable representation (starts as ``[num, den]``)."""
        return {
            "num_machines": self.num_machines,
            "placements": [
                {
                    "job_id": pl.job.id,
                    "size": pl.job.size,
                    "class_id": pl.job.class_id,
                    "machine": pl.machine,
                    "start": [pl._num, pl._den],
                }
                for pl in self._placements.values()
            ],
        }

    @staticmethod
    def from_dict(data: Mapping) -> "Schedule":
        """Inverse of :meth:`to_dict`."""
        placements = [
            Placement(
                job=Job(
                    id=rec["job_id"],
                    size=rec["size"],
                    class_id=rec["class_id"],
                ),
                machine=rec["machine"],
                start=Fraction(rec["start"][0], rec["start"][1]),
            )
            for rec in data["placements"]
        ]
        return Schedule(placements, data["num_machines"])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Schedule(jobs={len(self)}, m={self.num_machines}, "
            f"makespan={self.makespan})"
        )
