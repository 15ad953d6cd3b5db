"""`Algorithm_no_huge` — 3/2-approximation without huge jobs (Section 3.1).

Handles instances in which no job (or glued block) exceeds ``3T/4``.  The
algorithm repeatedly takes combinations of classes with specific size
parameters that *fill* one, two or three machines (average load ``≥ T`` on
closed machines) while every scheduled job finishes by ``3T/2``:

* step 2 pairs classes with total in ``(T/2, 3T/4)`` on one machine;
* step 3 packs four classes ``≥ 3T/4`` (split by Lemma 10 into ``ˇc``/``ˆc``)
  onto three machines;
* step 4 combines two ``≥ 3T/4`` classes with the last ``(T/2, 3T/4)`` class;
* steps 5–7 finish the at most three remaining classes ``> T/2`` by case
  analysis, and a final greedy stacks the classes ``≤ T/2`` (closing each
  machine at load ``≥ T``).

The engine operates on classes given as lists of
:class:`~repro.core.blocks.Block` so that `Algorithm_3/2` can hand it
pre-glued residual classes; the standalone entry point wraps each job into
its own block.  All placements are validated on insertion by
:class:`~repro.core.machine.MachineState` *and* reserved in a per-class
:class:`~repro.core.dispatch.ClassBusy` (a shared
:class:`~repro.core.dispatch.ClassReservations` map), so the Lemma 10
split placements — ``ˇc`` and ``ˆc`` of one class on two machines — run
through the dispatch kernel's conflict-scan path instead of trusting the
lemma.  `Algorithm_3/2` passes its own reservation map in, which is also
how its step-5/10 rotation locates ``c''`` among the engine's
placements.  Decisions are bit-for-bit identical to the preserved
pre-kernel engine
:class:`repro.algorithms.reference.ReferenceNoHugeEngine` (pinned by
``tests/equivalence.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algorithms.base import (
    ScheduleResult,
    empty_result,
    trivial_class_per_machine,
)
from repro.algorithms.registry import register
from repro.core.blocks import Block, blocks_of_jobs, flatten
from repro.core.bounds import basic_T
from repro.core.dispatch import (
    ClassReservations,
    place_reserved,
    place_reserved_ending,
)
from repro.core.errors import (
    CapacityError,
    InvalidScheduleError,
    PreconditionError,
)
from repro.core.instance import Instance
from repro.core.machine import (
    MachinePool,
    MachineState,
    build_schedule,
    close_machine,
)
from repro.core.split import lemma10_split
from repro.core.timescale import TimeScale
from repro.util.rational import Number, ge_frac, gt_frac, le_frac

__all__ = ["schedule_no_huge", "NoHugeEngine"]


@dataclass
class _ClassRec:
    """Bookkeeping for one unscheduled class inside the engine."""

    cid: int
    blocks: List[Block]
    total: int
    check: Optional[List[Block]] = None  # Lemma 10 parts for classes >= 3T/4
    hat: Optional[List[Block]] = None

    def flat(self) -> list:
        return flatten(self.blocks)

    def flat_check(self) -> list:
        return flatten(self.check or [])

    def flat_hat(self) -> list:
        return flatten(self.hat or [])

    def check_size(self) -> int:
        return sum(b.size for b in (self.check or []))

    def hat_size(self) -> int:
        return sum(b.size for b in (self.hat or []))


class NoHugeEngine:
    """Runs `Algorithm_no_huge` over block-classes on a supply of empty
    machines.

    Parameters
    ----------
    block_classes:
        Mapping from class id to that class's blocks.
    machines:
        Empty, open machines the engine may use (in order).  The paper's
        invariants guarantee the supply suffices whenever the total load is
        at most ``len(machines) · T``; running out raises
        :class:`CapacityError` (an implementation bug, not an instance
        property).
    T:
        The scaling bound; every scheduled job finishes by ``3T/2``.
    reservations:
        Optional shared :class:`ClassReservations` map (one
        :class:`~repro.core.dispatch.ClassBusy` per class).  Every block
        the engine places is reserved there; `Algorithm_3/2` passes its
        own map so cross-layer placements of one class are
        conflict-scanned against each other.  A fresh map is created
        when omitted.
    """

    def __init__(
        self,
        block_classes: Mapping[int, Sequence[Block]],
        machines: Sequence[MachineState],
        T: Number,
        *,
        trace: bool = False,
        reservations: Optional[ClassReservations] = None,
    ) -> None:
        self.T = T
        # repro: allow[REP001] once-per-solve 3T/2 deadline derivation at engine construction
        self.deadline = Fraction(3 * T, 2)
        self._machines = list(machines)
        self._next = 0
        self.trace = trace
        self.reservations = (
            reservations if reservations is not None else ClassReservations()
        )
        self.placements = 0
        self.step_log: List[tuple] = []
        self.snapshots: List[Tuple[str, list]] = []
        # repro: allow[REP001] once-per-solve grid-numerator/denominator derivation
        self._T_num = Fraction(T).numerator
        # repro: allow[REP001] once-per-solve grid-numerator/denominator derivation
        self._T_den = Fraction(T).denominator

        self._recs: Dict[int, _ClassRec] = {}
        self.ge34: Deque[_ClassRec] = deque()
        self.mid: Deque[_ClassRec] = deque()
        self.le_half: List[_ClassRec] = []
        total_load = 0
        for cid in sorted(block_classes):
            blocks = list(block_classes[cid])
            total = sum(b.size for b in blocks)
            if total == 0:
                continue
            total_load += total
            rec = _ClassRec(cid=cid, blocks=blocks, total=total)
            self._recs[cid] = rec
            if total > T:
                raise PreconditionError(
                    f"class {cid}: total {total} exceeds T={T}"
                )
            if any(gt_frac(b.size, 3, 4, T) for b in blocks):
                raise PreconditionError(
                    f"class {cid} contains a block > 3T/4 (huge); "
                    "Algorithm_no_huge does not apply"
                )
            if ge_frac(total, 3, 4, T):
                # Step 1: partition every class >= 3T/4 by Lemma 10.
                check, hat = lemma10_split(blocks, T)
                rec.check, rec.hat = list(check), list(hat)
                self.ge34.append(rec)
            elif gt_frac(total, 1, 2, T):
                self.mid.append(rec)
            else:
                self.le_half.append(rec)
        if total_load > len(self._machines) * T:
            raise PreconditionError(
                f"total load {total_load} exceeds machine supply "
                f"{len(self._machines)} x T={T}"
            )
        # The engine emits positions at 0, the deadline 3T/2, and integer
        # offsets from both — all on the grid of the machines it was
        # handed, which therefore must contain 3T/2.
        self.scale = (
            self._machines[0].scale
            if self._machines
            else TimeScale.for_values(self.deadline)
        )
        try:
            self._deadline_ticks = self.scale.to_ticks(self.deadline)
        except InvalidScheduleError:
            raise PreconditionError(
                f"machine tick grid 1/{self.scale.denominator} cannot "
                f"represent the deadline 3T/2 = {self.deadline}"
            ) from None

    # ------------------------------------------------------------------ #
    def _fresh(self) -> MachineState:
        if self._next >= len(self._machines):
            raise CapacityError("Algorithm_no_huge ran out of machines")
        machine = self._machines[self._next]
        self._next += 1
        return machine

    def _place(
        self, machine: MachineState, cid: int, jobs, start: int
    ) -> int:
        """Place ``jobs`` of class ``cid`` at tick ``start`` through the
        kernel's shared placement path; returns the end tick."""
        end = place_reserved(machine, cid, jobs, start, self.reservations)
        self.placements += len(jobs)
        return end

    def _place_ending(
        self, machine: MachineState, cid: int, jobs, end: int
    ) -> int:
        """Place ``jobs`` of class ``cid`` ending at tick ``end`` through
        the kernel's shared placement path; returns the start tick."""
        start = place_reserved_ending(
            machine, cid, jobs, end, self.reservations
        )
        self.placements += len(jobs)
        return start

    def used_machines(self) -> List[MachineState]:
        return self._machines[: self._next]

    def _snapshot(self, step: str) -> None:
        self.step_log.append(("step", step))
        if self.trace:
            placements = []
            for machine in self.used_machines():
                placements.extend(machine.placements())
            self.snapshots.append((step, placements))

    def counters(self) -> Dict[str, int]:
        """Work counters (the step-count tests' counting shim)."""
        return {
            "placements": self.placements,
            "machines_used": self._next,
            **self.reservations.counters(),
        }

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        """Execute steps 2–7 and the final greedy."""
        D = self._deadline_ticks

        # ---- Step 2: pairs of classes with total in (T/2, 3T/4) -------- #
        while len(self.mid) >= 2:
            c1 = self.mid.popleft()
            c2 = self.mid.popleft()
            machine = self._fresh()
            self._place(machine, c1.cid, c1.flat(), 0)
            self._place_ending(machine, c2.cid, c2.flat(), D)
            close_machine(machine)
            self._snapshot(f"step2({c1.cid},{c2.cid})")

        # ---- Step 3: quadruples of classes >= 3T/4 --------------------- #
        while len(self.ge34) >= 4:
            c1, c2, c3, c4 = (self.ge34.popleft() for _ in range(4))
            m1, m2, m3 = self._fresh(), self._fresh(), self._fresh()
            self._place(m1, c1.cid, c1.flat_hat(), 0)
            self._place_ending(m1, c2.cid, c2.flat_hat(), D)
            self._place(m2, c3.cid, c3.flat(), 0)
            self._place_ending(m2, c1.cid, c1.flat_check(), D)
            end = self._place(m3, c2.cid, c2.flat_check(), 0)
            self._place(m3, c4.cid, c4.flat(), end)
            for machine in (m1, m2, m3):
                close_machine(machine)
            self._snapshot(f"step3({c1.cid},{c2.cid},{c3.cid},{c4.cid})")

        # ---- Step 4: two classes >= 3T/4 plus the last mid class ------- #
        if len(self.ge34) >= 2 and len(self.mid) == 1:
            c1 = self.ge34.popleft()
            c2 = self.ge34.popleft()
            c3 = self.mid.popleft()
            m1, m2 = self._fresh(), self._fresh()
            self._place(m1, c3.cid, c3.flat(), 0)
            self._place_ending(m1, c1.cid, c1.flat_hat(), D)
            end = self._place(m2, c1.cid, c1.flat_check(), 0)
            self._place(m2, c2.cid, c2.flat(), end)
            close_machine(m1)
            close_machine(m2)
            self._snapshot(f"step4({c1.cid},{c2.cid},{c3.cid})")

        over = sorted(
            list(self.ge34) + list(self.mid),
            key=lambda rec: (-rec.total, rec.cid),
        )
        self.ge34.clear()
        self.mid.clear()

        if len(over) <= 1:
            self._step5(over)
        elif len(over) == 2:
            self._step6(over[0], over[1])
        elif len(over) == 3:
            self._step7(over)
        else:  # pragma: no cover - impossible by steps 2-4 postconditions
            raise CapacityError(f"{len(over)} classes > T/2 remain")

    # ------------------------------------------------------------------ #
    def _step5(self, over: List[_ClassRec]) -> None:
        """At most one class > T/2 left: place it, then greedy."""
        seeds: List[Tuple[MachineState, int]] = []
        if over:
            c = over[0]
            machine = self._fresh()
            end = self._place(machine, c.cid, c.flat(), 0)
            seeds.append((machine, end))
            self._snapshot(f"step5({c.cid})")
        self._greedy(seeds)

    def _step6(self, c1: _ClassRec, c2: _ClassRec) -> None:
        """Two classes > T/2 left; ``p(c1) ≥ p(c2)`` and ``p(c1) ≥ 3T/4``."""
        T, D = self.T, self._deadline_ticks
        if le_frac(c2.total, 3, 4, T):
            if self.scale.size_ticks(c1.total + c2.total) <= D:
                # 6.1a: both on one machine.
                machine = self._fresh()
                self._place(machine, c1.cid, c1.flat(), 0)
                self._place_ending(machine, c2.cid, c2.flat(), D)
                close_machine(machine)
                self._snapshot(f"step6.1a({c1.cid},{c2.cid})")
                self._greedy([])
            else:
                # 6.1b: c2 below ˆc1; ˇc1 seeds the greedy machine.
                m1 = self._fresh()
                self._place(m1, c2.cid, c2.flat(), 0)
                self._place_ending(m1, c1.cid, c1.flat_hat(), D)
                close_machine(m1)
                m2 = self._fresh()
                end = self._place(m2, c1.cid, c1.flat_check(), 0)
                self._snapshot(f"step6.1b({c1.cid},{c2.cid})")
                self._greedy([(m2, end)])
        else:
            # Both classes >= 3T/4 (both have Lemma 10 parts).
            if (c1.hat_size() + c2.hat_size()) * self._T_den <= self._T_num:
                # 6.2a: c2 whole followed by ˆc1.
                m1 = self._fresh()
                end = self._place(m1, c2.cid, c2.flat(), 0)
                self._place(m1, c1.cid, c1.flat_hat(), end)
                close_machine(m1)
                m2 = self._fresh()
                end = self._place(m2, c1.cid, c1.flat_check(), 0)
                self._snapshot(f"step6.2a({c1.cid},{c2.cid})")
                self._greedy([(m2, end)])
            else:
                # 6.2b: hats on one machine, checks bracket the next; the
                # greedy fills the gap between ˇc2 and ˇc1 first.
                m1 = self._fresh()
                self._place(m1, c1.cid, c1.flat_hat(), 0)
                self._place_ending(m1, c2.cid, c2.flat_hat(), D)
                close_machine(m1)
                m2 = self._fresh()
                gap_start = self._place(m2, c2.cid, c2.flat_check(), 0)
                self._place_ending(m2, c1.cid, c1.flat_check(), D)
                self._snapshot(f"step6.2b({c1.cid},{c2.cid})")
                self._greedy([(m2, gap_start)])

    def _step7(self, over: List[_ClassRec]) -> None:
        """Three classes left — all ``≥ 3T/4`` (paper's step 7)."""
        T, D = self.T, self._deadline_ticks
        # Case 1: some hat <= T/2; relabel it c1.
        small_hat = next(
            (rec for rec in over if le_frac(rec.hat_size(), 1, 2, T)), None
        )
        if small_hat is not None:
            c1 = small_hat
            c2, c3 = [rec for rec in over if rec is not small_hat]
            m1 = self._fresh()
            end = self._place(m1, c1.cid, c1.flat_hat(), 0)
            self._place(m1, c2.cid, c2.flat(), end)
            close_machine(m1)
            m2 = self._fresh()
            self._place(m2, c3.cid, c3.flat(), 0)
            self._place_ending(m2, c1.cid, c1.flat_check(), D)
            close_machine(m2)
            self._snapshot(f"step7.1({c1.cid},{c2.cid},{c3.cid})")
            self._greedy([])
            return

        c1, c2, c3 = over
        if self.scale.size_ticks(
            c1.check_size() + c2.check_size() + c3.total
        ) <= D:
            # 7.2a: checks bracket c3 on the second machine.
            m1 = self._fresh()
            self._place(m1, c1.cid, c1.flat_hat(), 0)
            self._place_ending(m1, c2.cid, c2.flat_hat(), D)
            close_machine(m1)
            m2 = self._fresh()
            end = self._place(m2, c2.cid, c2.flat_check(), 0)
            self._place(m2, c3.cid, c3.flat(), end)
            self._place_ending(m2, c1.cid, c1.flat_check(), D)
            close_machine(m2)
            self._snapshot(f"step7.2a({c1.cid},{c2.cid},{c3.cid})")
            self._greedy([])
        else:
            # 7.2b: w.l.o.g. p(ˇc1) > T/4 (swap c1/c2 if needed; at least
            # one check exceeds T/4 since the three loads sum past 3T/2).
            if not gt_frac(c1.check_size(), 1, 4, T):
                c1, c2 = c2, c1
            m1 = self._fresh()
            self._place(m1, c1.cid, c1.flat_hat(), 0)
            self._place_ending(m1, c2.cid, c2.flat_hat(), D)
            close_machine(m1)
            m2 = self._fresh()
            self._place(m2, c3.cid, c3.flat(), 0)
            self._place_ending(m2, c1.cid, c1.flat_check(), D)
            close_machine(m2)
            m3 = self._fresh()
            end = self._place(m3, c2.cid, c2.flat_check(), 0)
            self._snapshot(f"step7.2b({c1.cid},{c2.cid},{c3.cid})")
            self._greedy([(m3, end)])

    # ------------------------------------------------------------------ #
    def _greedy(self, seeds: List[Tuple[MachineState, int]]) -> None:
        """Final greedy: stack whole classes ``≤ T/2`` on the seed machines
        (from their given tick cursors) and then on fresh machines, closing
        each machine once its load reaches ``T``."""
        T_num, T_den = self._T_num, self._T_den
        slots: Deque[Tuple[MachineState, int]] = deque(seeds)
        for rec in self.le_half:
            while True:
                if not slots:
                    slots.append((self._fresh(), 0))
                machine, cursor = slots[0]
                if machine.closed or machine.load * T_den >= T_num:
                    close_machine(machine)
                    slots.popleft()
                    continue
                break
            end = self._place(machine, rec.cid, rec.flat(), cursor)
            slots[0] = (machine, end)
            self.step_log.append(("greedy", rec.cid, machine.index))
            if machine.load * T_den >= T_num:
                close_machine(machine)
                slots.popleft()
        self.le_half = []
        self._snapshot("greedy")


@register("no_huge")
def schedule_no_huge(
    instance: Instance, *, trace: bool = False
) -> ScheduleResult:
    """Standalone `Algorithm_no_huge` (Lemma 12).

    Applies to instances where, with
    ``T = max(p(J)/m, max_c p(c), p̃_m + p̃_{m+1})``, no job exceeds
    ``3T/4``; raises :class:`PreconditionError` otherwise (use
    :func:`repro.algorithms.three_halves.schedule_three_halves` for the
    general case).  Produces a schedule of makespan at most ``3T/2``.
    """
    fast = trivial_class_per_machine(instance, "no_huge")
    if fast is not None:
        return fast

    T = basic_T(instance)
    # Grid declaration: the engine emits 0, the deadline 3T/2, and integer
    # offsets from both.
    pool = MachinePool(
        # repro: allow[REP001] the grid declaration itself: one exact 3T/2 before tick-native placement
        instance.num_machines, TimeScale.for_values(Fraction(3 * T, 2))
    )
    block_classes = {
        cid: blocks_of_jobs(members)
        for cid, members in instance.classes.items()
    }
    engine = NoHugeEngine(block_classes, pool.machines, T, trace=trace)
    engine.run()
    engine.reservations.flush()
    schedule = build_schedule(pool)
    stats: Dict[str, object] = {
        "T": T,
        "steps": engine.step_log,
        "kernel": engine.counters(),
    }
    if trace:
        stats["snapshots"] = engine.snapshots
    return ScheduleResult(
        schedule=schedule,
        lower_bound=T,
        algorithm="no_huge",
        guarantee=Fraction(3, 2),
        stats=stats,
    )
