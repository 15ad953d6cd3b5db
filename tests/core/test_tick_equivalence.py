"""Equivalence of the tick kernel with the seed ``Fraction`` implementation.

Two layers of evidence that the integer-tick refactor is behavior
preserving:

* **Seed goldens** — ``tests/data/goldens_seed.json`` pins the exact
  ``to_dict`` output (placements, machines, normalized start fractions),
  makespan and raising behavior of every registry algorithm on a
  deterministic workload corpus, *generated by running the pre-refactor
  pure-Fraction implementation* (see ``tests/data/make_goldens.py``).
  The tests below replay the corpus and require byte equality, both
  from the registry implementations and from the preserved references
  of :mod:`repro.algorithms.reference`.

* **Property tests** — hypothesis drives random instances through the
  registry algorithms and random operation sequences through
  :class:`~repro.core.machine.MachineState` against a naive
  Fraction-arithmetic reference model, asserting identical entries and
  identical raising behavior.
"""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import solve
from repro.algorithms.reference import ALL_REFERENCES
from repro.core.errors import InvalidScheduleError
from repro.core.instance import Job
from repro.core.machine import MachineState
from repro.core.schedule import Placement, Schedule
from repro.core.timescale import TimeScale
from repro.core.validate import validate_schedule, validation_instance
from tests.equivalence import golden_cell_id, golden_cells, replay_golden_cell
from tests.markers import needs_milp
from tests.strategies import instances

FAST_ALGORITHMS = (
    "five_thirds",
    "three_halves",
    "merge_lpt",
    "class_greedy",
    "list_lpt",
)

_ALL_GOLDEN_CELLS = golden_cells()

#: Golden cells for the exponential solvers can take tens of seconds —
#: they run in the slow CI tier; every polynomial algorithm stays tier-1.
_SLOW_GOLDEN_ALGORITHMS = {"exact_bb"}

#: Solvers whose golden cells need scipy's MILP backend (skipped on the
#: numpy/scipy-free CI leg — they declare a PreconditionError there).
_MILP_GOLDEN_ALGORITHMS = {"eptas", "exact_milp"}


def _golden_marks(cell):
    marks = []
    if cell["algorithm"] in _SLOW_GOLDEN_ALGORITHMS:
        marks.append(pytest.mark.slow)
    if cell["algorithm"] in _MILP_GOLDEN_ALGORITHMS:
        marks.append(needs_milp)
    return marks


@pytest.mark.parametrize(
    "cell",
    [
        pytest.param(c, marks=_golden_marks(c))
        for c in _ALL_GOLDEN_CELLS
    ],
    ids=[golden_cell_id(c) for c in _ALL_GOLDEN_CELLS],
)
def test_seed_golden_equivalence(cell):
    """Schedules (and errors) are identical to the seed implementation
    (replayed through the ``tests/equivalence.py`` harness)."""
    replay_golden_cell(cell)


_REFERENCE_GOLDEN_CELLS = golden_cells(ALL_REFERENCES)


@pytest.mark.parametrize(
    "cell",
    [
        pytest.param(c, marks=_golden_marks(c))
        for c in _REFERENCE_GOLDEN_CELLS
    ],
    ids=[golden_cell_id(c) + "-reference" for c in _REFERENCE_GOLDEN_CELLS],
)
def test_reference_replays_seed_goldens(cell):
    """The preserved references — the oracles every equivalence test
    compares against — reproduce the seed corpus too, so an oracle that
    drifted would fail here instead of agreeing with a drifted kernel."""
    replay_golden_cell(cell, solver=ALL_REFERENCES[cell["algorithm"]])


class TestScheduleProperties:
    """Cross-representation invariants on algorithm outputs."""

    @given(inst=instances(), algorithm=st.sampled_from(FAST_ALGORITHMS))
    @settings(max_examples=60, deadline=None)
    def test_tick_schedule_invariants(self, inst, algorithm):
        result = solve(inst, algorithm=algorithm)
        schedule = result.schedule
        validate_schedule(
            validation_instance(inst, schedule), schedule
        )
        den = schedule.denominator
        # Every start lies on the declared grid and the Fraction boundary
        # agrees with the tick representation.
        makespan = Fraction(0)
        loads = {}
        for pl in schedule:
            ticks = pl.start * den
            assert ticks.denominator == 1
            assert pl.start_ticks(den) == ticks.numerator
            assert pl.end == pl.start + pl.job.size
            makespan = max(makespan, pl.end)
            loads[pl.machine] = loads.get(pl.machine, 0) + pl.job.size
        assert schedule.makespan == makespan
        assert schedule.makespan_ticks == makespan * den
        for machine in range(schedule.num_machines):
            assert schedule.machine_load(machine) == loads.get(machine, 0)
        # Machine/class tick indexes agree with the placements they mirror.
        for machine in schedule.machines_used():
            pls = schedule.machine_placements(machine)
            ticks = schedule.machine_intervals(machine)
            assert [t[0] for t in ticks] == [
                pl.start_ticks(den) for pl in pls
            ]
        for cid in inst.classes:
            pls = schedule.class_placements(cid)
            ticks = schedule.class_intervals(cid)
            assert [t[0] for t in ticks] == [
                pl.start_ticks(den) for pl in pls
            ]

    @given(inst=instances(), algorithm=st.sampled_from(FAST_ALGORITHMS))
    @settings(max_examples=30, deadline=None)
    def test_serialization_roundtrip(self, inst, algorithm):
        schedule = solve(inst, algorithm=algorithm).schedule
        data = schedule.to_dict()
        again = Schedule.from_dict(data)
        assert again.to_dict() == data
        assert again.makespan == schedule.makespan
        assert set(again.placements) == set(schedule.placements)
        for job_id, pl in schedule.placements.items():
            assert again[job_id] == pl


# --------------------------------------------------------------------- #
# MachineState vs a naive Fraction reference model
# --------------------------------------------------------------------- #
class FractionMachine:
    """Reference machine: entries as ``(job, Fraction start)``, all checks
    by exhaustive Fraction comparison (mirrors the seed kernel)."""

    def __init__(self):
        self.entries = []  # sorted by (start, insertion)

    def _fits(self, job, start):
        if start < 0:
            raise InvalidScheduleError("negative start")
        end = start + job.size
        for other, other_start in self.entries:
            if start < other_start + other.size and other_start < end:
                raise InvalidScheduleError("overlap")

    def place_block_at(self, jobs, start):
        cursor = Fraction(start)
        for job in jobs:
            self._fits(job, cursor)
            cursor += job.size
        cursor = Fraction(start)
        for job in jobs:
            self.entries.append((job, cursor))
            cursor += job.size
        self.entries.sort(key=lambda e: e[1])
        return cursor

    def place_block_ending_at(self, jobs, end):
        total = sum(job.size for job in jobs)
        self.place_block_at(jobs, Fraction(end) - total)

    def append_block(self, jobs):
        self.place_block_at(jobs, self.top)

    def delay_to_start_at(self, start):
        if not self.entries:
            return
        delta = Fraction(start) - self.entries[0][1]
        if delta < 0:
            raise InvalidScheduleError("backwards delay")
        self.entries = [(job, s + delta) for job, s in self.entries]

    def shift_all_to_end_at(self, end):
        jobs = [job for job, _ in self.entries]
        self.entries = []
        self.place_block_ending_at(jobs, end)

    @property
    def top(self):
        if not self.entries:
            return Fraction(0)
        job, start = self.entries[-1]
        return start + job.size

    @property
    def load(self):
        return sum(job.size for job, _ in self.entries)


@st.composite
def machine_op_sequences(draw):
    """A grid denominator plus a random operation sequence on one machine.

    Operands are arbitrary on-grid values — including deliberately
    conflicting ones, so the raising paths are exercised too.
    """
    den = draw(st.integers(1, 6))
    n_ops = draw(st.integers(1, 8))
    ops = []
    next_id = 0
    for _ in range(n_ops):
        kind = draw(
            st.sampled_from(
                ["place_at", "ending_at", "append", "delay", "shift"]
            )
        )
        if kind in ("place_at", "ending_at", "append"):
            sizes = draw(
                st.lists(st.integers(1, 5), min_size=1, max_size=3)
            )
            jobs = [Job(next_id + i, s, 0) for i, s in enumerate(sizes)]
            next_id += len(jobs)
            anchor = Fraction(draw(st.integers(0, 40)), den)
            ops.append((kind, jobs, anchor))
        else:
            anchor = Fraction(draw(st.integers(0, 40)), den)
            ops.append((kind, None, anchor))
    return den, ops


@given(machine_op_sequences())
@settings(max_examples=120, deadline=None)
def test_machine_state_matches_fraction_reference(seq):
    den, ops = seq
    machine = MachineState(0, TimeScale(den))
    reference = FractionMachine()
    for kind, jobs, anchor in ops:
        failed = failed_ref = None
        try:
            if kind == "place_at":
                machine.place_block_at(jobs, anchor)
            elif kind == "ending_at":
                machine.place_block_ending_at(jobs, anchor)
            elif kind == "append":
                machine.append_block(jobs)
            elif kind == "delay":
                machine.delay_to_start_at(anchor)
            else:
                machine.shift_all_to_end_at(anchor)
        except InvalidScheduleError as exc:
            failed = exc
        try:
            if kind == "place_at":
                reference.place_block_at(jobs, anchor)
            elif kind == "ending_at":
                reference.place_block_ending_at(jobs, anchor)
            elif kind == "append":
                reference.append_block(jobs)
            elif kind == "delay":
                reference.delay_to_start_at(anchor)
            else:
                reference.shift_all_to_end_at(anchor)
        except InvalidScheduleError as exc:
            failed_ref = exc
        assert (failed is None) == (failed_ref is None), (
            kind,
            failed,
            failed_ref,
        )
        # State equality after every op (also proves atomicity on failure).
        assert machine.entries() == reference.entries
        assert machine.top == reference.top
        assert machine.load == reference.load
    # The placements at the Fraction boundary match the reference exactly.
    expected = [
        Placement(job=job, machine=0, start=start)
        for job, start in reference.entries
    ]
    assert machine.placements() == expected
