"""`Algorithm_3/2` — the general 3/2-approximation (Section 3.2, Theorem 7).

Pipeline (everything relative to the Lemma 9 bound ``T ≤ OPT``):

1. *Glue* jobs into composite blocks: a ``CH`` class becomes one huge block;
   a class with ``p(c) ≥ 3T/4`` is pre-split by Lemma 10; a ``CB`` class
   with total in ``(T/2, 3T/4)`` splits into its big job and the rest; other
   such classes split by Lemma 11; classes ``≤ T/2`` become single blocks.
2. Every ``CH`` class gets its own machine (closed if the load is exactly
   ``T``); the open ones form ``M̄H``.
3. Classes ``≤ T/2`` greedily fill ``M̄H`` machines (close at load ``≥ T``).
4. Pairs of ``M̄H`` machines absorb classes of ``C(1/2,3/4) \\ CB``: the
   second machine's content shifts to end at ``3T/2``, ``ˆc`` ends at
   ``3T/2`` on the first, ``ˇc`` starts at 0 on the second.
5. With one ``M̄H`` machine left, a part ``c′ ∈ (T/4, T/2]`` of some
   non-``CB`` class rides on it while `Algorithm_no_huge` schedules the
   rest; the machine's content is *rotated* so ``c′`` avoids its sibling
   part ``c′′``.
6.–7. (kept for fidelity; unreachable after step 4/5's postconditions —
   see DESIGN.md) single-``M̄H`` combinations with one mid and one big class.
8. Pairs of ``M̄H`` machines absorb pairs of ``C≥3/4`` classes (``CB``
   first), opening one fresh machine for the two ``ˆc`` parts.
9. Leftover classes go to individual machines.  *Deviation*: the paper's
   counting here can run one machine short when both a ``CB`` class with
   total ``< 3T/4`` and a non-``CB`` class ``≥ 3T/4`` remain; in that case
   we first apply a step-8-style pattern pairing those two classes with two
   ``M̄H`` machines (documented in DESIGN.md).
10. With one ``M̄H`` machine and a non-``CB`` class remaining, rotate as in
   step 5.

Whenever ``M̄H`` empties, the residual block classes are handed to
:class:`~repro.algorithms.no_huge.NoHugeEngine` on the remaining fresh
machines.  The result's makespan is at most ``(3/2)·T ≤ (3/2)·OPT``.

The placement core runs on the dispatch kernel
(:mod:`repro.core.dispatch`):

* the ``M̄H`` machine set is a *subset*
  :class:`~repro.core.dispatch.MachineFrontier` (leaf order = machine
  creation order, keyed by the completion tick) — step 3's "first open
  M̄H machine", step 4/8's "pop the first two" and step 9's "leftmost
  open M̄H machine that still fits the class below 3T/2" are all O(log m)
  queries (``leftmost_active`` / ``leftmost_at_most``), with machine
  closure deactivating the leaf through the single
  :func:`~repro.core.machine.close_machine` path;
* the step loops consume precomputed sorted class queues through O(1)
  pointer heads instead of re-sorting the remaining classes on every
  iteration (the pre-kernel loops made steps 4 and 8 quadratic in the
  class count — see ``python -m repro bench --suite approx``);
* every block placement reserves its interval in a shared
  :class:`~repro.core.dispatch.ClassReservations` map that also travels
  into the no-huge engine, so the split lemmas' cross-machine
  disjointness is conflict-scanned at placement time, and the step-5/10
  rotation locates ``c''`` from the class's busy runs instead of
  scanning every engine machine.

Decisions are bit-for-bit identical to the preserved pre-kernel loop
:func:`repro.algorithms.reference.reference_three_halves` (pinned by
``tests/equivalence.py``).  The running time is ``O(n + (m + |C|) log
(m + |C|))``, dominated by the Lemma 9 search and the initial sorts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithms.base import (
    ScheduleResult,
    trivial_class_per_machine,
)
from repro.algorithms.no_huge import NoHugeEngine
from repro.algorithms.registry import register
from repro.core.blocks import Block, flatten
from repro.core.bounds import lemma9_T
from repro.core.classify import ClassPartition, classify_classes
from repro.core.dispatch import (
    ClassReservations,
    MachineFrontier,
    place_reserved,
    place_reserved_ending,
)
from repro.core.errors import CapacityError
from repro.core.instance import Instance, Job
from repro.core.machine import (
    MachinePool,
    MachineState,
    build_schedule,
    close_machine,
)
from repro.core.split import (
    lemma10_split,
    lemma11_split,
    quarter_half_part,
)
from repro.core.timescale import TimeScale
from repro.util.rational import ge_frac, gt_frac

__all__ = ["schedule_three_halves"]


class _Glued:
    """Step-1 gluing of one class."""

    __slots__ = ("cid", "total", "blocks", "check", "hat")

    def __init__(
        self,
        cid: int,
        total: int,
        blocks: List[Block],
        check: Optional[Block],
        hat: Optional[Block],
    ) -> None:
        self.cid = cid
        self.total = total
        self.blocks = blocks  # all blocks of the class
        self.check = check  # ˇc (may be None when empty / unsplit)
        self.hat = hat  # ˆc (None only for unsplit classes)

    def check_jobs(self) -> List[Job]:
        return list(self.check.jobs) if self.check is not None else []

    def hat_jobs(self) -> List[Job]:
        return list(self.hat.jobs) if self.hat is not None else []

    def all_jobs(self) -> List[Job]:
        return flatten(self.blocks)

    def check_size(self) -> int:
        return self.check.size if self.check is not None else 0

    def hat_size(self) -> int:
        return self.hat.size if self.hat is not None else 0


def _glue(instance: Instance, part: ClassPartition, T: int) -> Dict[int, _Glued]:
    """Step 1: combine jobs of each class into one or two blocks."""
    glued: Dict[int, _Glued] = {}
    for cid, members in instance.classes.items():
        jobs = list(members)
        total = instance.class_size(cid)
        if cid in part.ch:
            # One huge composite job.
            block = Block(jobs)
            glued[cid] = _Glued(cid, total, [block], None, None)
        elif ge_frac(total, 3, 4, T):
            check_jobs, hat_jobs = lemma10_split(jobs, T)
            check = Block(check_jobs) if check_jobs else None
            hat = Block(hat_jobs)
            blocks = ([check] if check else []) + [hat]
            glued[cid] = _Glued(cid, total, blocks, check, hat)
        elif cid in part.cb:
            # Big job alone; the rest (< T/4) glued.
            big = max(jobs, key=lambda job: job.size)
            rest = [job for job in jobs if job is not big]
            hat = Block([big])
            check = Block(rest) if rest else None
            blocks = ([check] if check else []) + [hat]
            glued[cid] = _Glued(cid, total, blocks, check, hat)
        elif gt_frac(total, 1, 2, T):
            check_jobs, hat_jobs = lemma11_split(jobs, T)
            check = Block(check_jobs) if check_jobs else None
            hat = Block(hat_jobs)
            blocks = ([check] if check else []) + [hat]
            glued[cid] = _Glued(cid, total, blocks, check, hat)
        else:
            block = Block(jobs)
            glued[cid] = _Glued(cid, total, [block], None, None)
    return glued


class _ClassQueue:
    """Pointer head over a fixed sorted cid list, skipping scheduled
    classes lazily — the O(1)-amortized replacement for the pre-kernel
    ``sorted(self._remaining(...))[0]`` recomputed per loop iteration."""

    __slots__ = ("_cids", "_ptr")

    def __init__(self, cids: Sequence[int]) -> None:
        self._cids = list(cids)
        self._ptr = 0

    def head(self, unscheduled: Set[int]) -> Optional[int]:
        cids = self._cids
        ptr = self._ptr
        while ptr < len(cids) and cids[ptr] not in unscheduled:
            ptr += 1
        self._ptr = ptr
        return cids[ptr] if ptr < len(cids) else None

    def first_two(
        self, unscheduled: Set[int]
    ) -> Tuple[Optional[int], Optional[int]]:
        """The first two unscheduled cids (either may be ``None``).

        The forward scan for the second element does not advance the
        pointer; callers schedule what they peek, so re-scans stay
        O(1) amortized.
        """
        first = self.head(unscheduled)
        if first is None:
            return None, None
        cids = self._cids
        for i in range(self._ptr + 1, len(cids)):
            if cids[i] in unscheduled:
                return first, cids[i]
        return first, None


class _ThreeHalves:
    """One run of `Algorithm_3/2` (mutable state, dispatch-kernel core)."""

    def __init__(self, instance: Instance, *, trace: bool = False) -> None:
        self.instance = instance
        self.trace = trace
        self.T = lemma9_T(instance)
        # repro: allow[REP001] once-per-solve D = 3T/2 derivation at engine construction
        self.D = Fraction(3 * self.T, 2)
        # Grid declaration: T is an integer and every emitted position is
        # an integer combination of job sizes and D = 3T/2, so halves
        # suffice.  D in ticks is the integer 3T.
        self.scale = TimeScale(2)
        self.D_ticks = 3 * self.T
        self.partition = classify_classes(instance, self.T)
        self.glued = _glue(instance, self.partition, self.T)
        self.pool = MachinePool(instance.num_machines, self.scale)
        self.reservations = ClassReservations(instance.classes)
        self.placements = 0
        #: All M̄H machines in creation order — the leaf order of the
        #: subset frontier built in step 2; a closed machine's leaf is
        #: deactivated, so "the open M̄H machines" is the active set.
        self.mh: List[MachineState] = []
        self.mh_frontier = MachineFrontier(0)
        self.unscheduled: Set[int] = set(instance.classes)
        self.step_log: List[tuple] = []
        self.snapshots: List[Tuple[str, list]] = []
        # Step-4/8 class queues (sorted once; consumed via pointer heads).
        part = self.partition
        self._q_mid_noncb = _ClassQueue(sorted(part.mid - part.cb))
        ge34_rest = part.ge34 - part.ch
        self._q_cb_ge34 = _ClassQueue(sorted(ge34_rest & part.cb))
        self._q_noncb_ge34 = _ClassQueue(sorted(ge34_rest - part.cb))
        self._q_cb_mid = _ClassQueue(
            sorted(
                cid
                for cid in part.cb
                if not ge_frac(self.glued[cid].total, 3, 4, self.T)
            )
        )

    # -------------------------------------------------------------- #
    def _snapshot(self, step: str) -> None:
        self.step_log.append(("step", step))
        if self.trace:
            self.snapshots.append((step, self.pool.placements()))

    def _mark(self, cid: int) -> None:
        self.unscheduled.remove(cid)

    def _remaining(self, cids) -> List[int]:
        return [cid for cid in sorted(cids) if cid in self.unscheduled]

    def _noncb_split(self) -> List[int]:
        """Unscheduled non-``CB`` classes that have a Lemma 10/11 split
        (candidates for the step 5/10 rotation), largest first."""
        cids = [
            cid
            for cid in self.unscheduled
            if cid not in self.partition.cb
            and cid not in self.partition.ch
            and self.glued[cid].hat is not None
        ]
        return sorted(cids, key=lambda c: (-self.glued[c].total, c))

    # -------------------------------------------------------------- #
    # Kernel-backed placement and M̄H bookkeeping
    # -------------------------------------------------------------- #
    def _place(
        self, machine: MachineState, cid: int, jobs, start: int
    ) -> int:
        end = place_reserved(machine, cid, jobs, start, self.reservations)
        self.placements += len(jobs)
        return end

    def _place_ending(
        self, machine: MachineState, cid: int, jobs, end: int
    ) -> int:
        start = place_reserved_ending(
            machine, cid, jobs, end, self.reservations
        )
        self.placements += len(jobs)
        return start

    def _close_mh(self, pos: int) -> None:
        """Close an M̄H machine through the single closure path and drop
        its frontier leaf."""
        close_machine(self.mh[pos], self.mh_frontier, pos)

    def _pop_mh(self) -> Tuple[int, MachineState]:
        """Remove and return the first open M̄H machine (the pre-kernel
        ``mh_open.pop(0)``); the machine stays open for placements until
        its explicit close."""
        pos = self.mh_frontier.leftmost_active()
        self.mh_frontier.deactivate(pos)
        return pos, self.mh[pos]

    @property
    def _mh_count(self) -> int:
        return self.mh_frontier.active_count

    # -------------------------------------------------------------- #
    def run(self) -> ScheduleResult:
        T, D = self.T, self.D_ticks

        # ---- Step 2: one machine per CH class ---------------------- #
        for cid in self._remaining(self.partition.ch):
            machine = self.pool.take_fresh()
            self._place(machine, cid, self.glued[cid].all_jobs(), 0)
            self._mark(cid)
            if machine.load >= T:
                close_machine(machine)
            else:
                self.mh.append(machine)
        # The M̄H subset frontier: leaf i = i-th M̄H machine, keyed by its
        # completion tick (== load ticks: M̄H content is contiguous from 0
        # for as long as the machine can still receive placements).
        self.mh_frontier = MachineFrontier(
            len(self.mh), tops=[m.top_ticks for m in self.mh]
        )
        self._snapshot("step2")

        # ---- Step 3: fill M̄H machines with classes <= T/2 ---------- #
        frontier = self.mh_frontier
        for cid in self._remaining(self.partition.le_half):
            while True:
                pos = frontier.leftmost_active()
                if pos < 0 or self.mh[pos].load < T:
                    break
                # Defensive, mirroring the pre-kernel walk: a full M̄H
                # machine is closed when encountered.
                self._close_mh(pos)
            if pos < 0:
                break
            machine = self.mh[pos]
            end = self._place(
                machine, cid, self.glued[cid].all_jobs(), machine.top_ticks
            )
            frontier.update(pos, end)
            self._mark(cid)
            if machine.load >= T:
                self._close_mh(pos)
        self._snapshot("step3")
        if not self._mh_count:
            return self._finish_with_no_huge("step3")

        # ---- Step 4: pairs of M̄H machines + one mid non-CB class --- #
        while self._mh_count >= 2 and (
            (cid := self._q_mid_noncb.head(self.unscheduled)) is not None
        ):
            rec = self.glued[cid]
            _, m1 = self._pop_mh()
            _, m2 = self._pop_mh()
            m2.shift_all_to_end_at_ticks(D)
            self._place_ending(m1, cid, rec.hat_jobs(), D)
            self._place(m2, cid, rec.check_jobs(), 0)
            close_machine(m1)
            close_machine(m2)
            self._mark(cid)
            self._snapshot(f"step4({cid})")
        if not self._mh_count:
            return self._finish_with_no_huge("step4")

        # ---- Step 5: one M̄H machine left --------------------------- #
        if self._mh_count == 1:
            return self._step5_or_10("step5")

        # ---- Step 6 (guard; unreachable after step 4, kept faithful) #
        while (
            self._mh_count
            and self._q_mid_noncb.head(self.unscheduled) is not None
            and self._ge34_first_two()[0] is not None
        ):  # pragma: no cover - dead per step-4 postcondition
            b_cid = self._q_mid_noncb.head(self.unscheduled)
            c_cid = self._ge34_first_two()[0]
            b, c = self.glued[b_cid], self.glued[c_cid]
            _, m1 = self._pop_mh()
            m2 = self.pool.take_fresh()
            self._place_ending(m1, c_cid, c.check_jobs(), D)
            self._place(m2, c_cid, c.hat_jobs(), 0)
            self._place_ending(m2, b_cid, b.all_jobs(), D)
            close_machine(m1)
            close_machine(m2)
            self._mark(b_cid)
            self._mark(c_cid)
            self._snapshot(f"step6({b_cid},{c_cid})")
        if not self._mh_count:  # pragma: no cover - dead code guard
            return self._finish_with_no_huge("step6")

        # ---- Step 7 (guard; unreachable, kept faithful) ------------- #
        while (
            cid := self._q_mid_noncb.head(self.unscheduled)
        ) is not None:  # pragma: no cover - dead code guard
            machine = self.pool.take_fresh()
            self._place(machine, cid, self.glued[cid].all_jobs(), 0)
            self._mark(cid)
            self._snapshot(f"step7({cid})")

        # ---- Step 8: pairs of M̄H machines + pairs of C≥3/4 --------- #
        # Deviation from the paper (see DESIGN.md): the paper's step 8
        # claims all remaining classes have total >= 3T/4, but CB classes
        # with total in (T/2, 3T/4) are never scheduled by steps 3-7.  The
        # classic step-8 pattern on two non-CB classes consumes a fresh
        # machine without reducing |C̄B| and can leave step 9 one machine
        # short.  We therefore branch: (a) classic step 8 whenever a CB
        # class >= 3T/4 is among the pair (reduces |C̄B|); (b) a step-8-like
        # pattern pairing one non-CB class >= 3T/4 with one CB class
        # < 3T/4 (also reduces |C̄B|); (c) classic step 8 on two non-CB
        # classes only when no CB class < 3T/4 remains (then |C̄B| = 0).
        while self._mh_count >= 2:
            first, second = self._ge34_first_two()
            cb_head = self._q_cb_ge34.head(self.unscheduled)
            noncb_head = self._q_noncb_ge34.head(self.unscheduled)
            cb_mid_head = self._q_cb_mid.head(self.unscheduled)
            if second is not None and cb_head is not None:
                self._step8_pair(first, second)
            elif noncb_head is not None and cb_mid_head is not None:
                self._step8_cb_mid(noncb_head, cb_mid_head)
            elif second is not None:
                self._step8_pair(first, second)
            else:
                break
        if not self._mh_count:
            return self._finish_with_no_huge("step8")

        # ---- Step 9: individual machines ----------------------------- #
        noncb = self._noncb_split()
        if self._mh_count >= 2 or not noncb:
            for cid in self._remaining(self.unscheduled):
                self._place_leftover(cid)
            self._snapshot("step9")
            return self._result()

        # ---- Step 10: rotation with the last M̄H machine ------------ #
        return self._step5_or_10("step10")

    # -------------------------------------------------------------- #
    def _ge34_first_two(self) -> Tuple[Optional[int], Optional[int]]:
        """First two unscheduled classes ``≥ 3T/4`` (``CH`` excluded) in
        the step-8 priority order: ``CB`` classes first, then by cid."""
        cb1, cb2 = self._q_cb_ge34.first_two(self.unscheduled)
        if cb1 is None:
            return self._q_noncb_ge34.first_two(self.unscheduled)
        if cb2 is not None:
            return cb1, cb2
        return cb1, self._q_noncb_ge34.head(self.unscheduled)

    def _step8_pair(self, c1_cid: int, c2_cid: int) -> None:
        """Classic step-8 pattern: two ``M̄H`` machines absorb the checks
        of two classes ``≥ 3T/4``; their hats share one fresh machine."""
        D = self.D_ticks
        c1, c2 = self.glued[c1_cid], self.glued[c2_cid]
        _, m1 = self._pop_mh()
        _, m2 = self._pop_mh()
        m3 = self.pool.take_fresh()
        m2.shift_all_to_end_at_ticks(D)
        self._place_ending(m1, c1_cid, c1.check_jobs(), D)
        self._place(m2, c2_cid, c2.check_jobs(), 0)
        self._place(m3, c1_cid, c1.hat_jobs(), 0)
        self._place_ending(m3, c2_cid, c2.hat_jobs(), D)
        for machine in (m1, m2, m3):
            close_machine(machine)
        self._mark(c1_cid)
        self._mark(c2_cid)
        self._snapshot(f"step8({c1_cid},{c2_cid})")

    def _step8_cb_mid(self, star_cid: int, cb_cid: int) -> None:
        """Step-8 variant for the paper gap: pair the non-``CB`` class
        ``≥ 3T/4`` (``star``) with a ``CB`` class of total ``< 3T/4``.

        ``star``'s check (``≤ T/2``) ends at ``3T/2`` on the first ``M̄H``
        machine; the ``CB`` class's non-big remainder (``< T/4``) starts at
        0 under the shifted content of the second; ``star``'s hat
        (``≤ 3T/4``) and the big job (``> T/2``) share a fresh machine.
        Reduces ``|C̄B|`` by one, so the step-9 counting goes through.
        """
        D = self.D_ticks
        star = self.glued[star_cid]
        cb = self.glued[cb_cid]
        _, m1 = self._pop_mh()
        _, m2 = self._pop_mh()
        m3 = self.pool.take_fresh()
        self._place_ending(m1, star_cid, star.check_jobs(), D)
        m2.shift_all_to_end_at_ticks(D)
        self._place(m2, cb_cid, cb.check_jobs(), 0)
        self._place(m3, star_cid, star.hat_jobs(), 0)
        self._place_ending(m3, cb_cid, cb.hat_jobs(), D)
        for machine in (m1, m2, m3):
            close_machine(machine)
        self._mark(star_cid)
        self._mark(cb_cid)
        self._snapshot(f"step8cb({star_cid},{cb_cid})")

    def _place_leftover(self, cid: int) -> None:
        """Step 9 placement of one leftover class: ride the leftmost open
        ``M̄H`` machine where the class fits ending at ``3T/2`` above its
        load (an O(log m) subset-frontier query), otherwise take a fresh
        machine."""
        rec = self.glued[cid]
        pos = self.mh_frontier.leftmost_at_most(
            self.D_ticks - self.scale.size_ticks(rec.total)
        )
        if pos >= 0:
            machine = self.mh[pos]
            self._place_ending(machine, cid, rec.all_jobs(), self.D_ticks)
            self._close_mh(pos)
            self._mark(cid)
            return
        machine = self.pool.take_fresh()
        self._place(machine, cid, rec.all_jobs(), 0)
        self._mark(cid)

    def _step5_or_10(self, step: str) -> ScheduleResult:
        """Steps 5/10: one ``M̄H`` machine ``m0`` left.

        If a non-``CB`` class remains, ride its ``(T/4, T/2]`` part on
        ``m0``, schedule everything else (including the sibling part) with
        `Algorithm_no_huge`, then rotate ``m0``; otherwise every remaining
        class is placed on an individual machine.
        """
        T, D = self.T, self.D_ticks
        m0 = self.mh[self.mh_frontier.leftmost_active()]
        noncb = self._noncb_split()
        if not noncb:
            for cid in self._remaining(self.unscheduled):
                machine = self.pool.take_fresh()
                self._place(machine, cid, self.glued[cid].all_jobs(), 0)
                self._mark(cid)
            self._snapshot(f"{step}(individual)")
            return self._result()

        cid = noncb[0]
        rec = self.glued[cid]
        c_prime = quarter_half_part(
            [rec.check] if rec.check else [], [rec.hat], T
        )
        c_prime_block = c_prime[0]
        c_double_block = (
            rec.hat if c_prime_block is rec.check else rec.check
        )
        self._mark(cid)

        residual: Dict[int, List[Block]] = {
            other: list(self.glued[other].blocks)
            for other in self.unscheduled
        }
        if c_double_block is not None:
            residual[cid] = [c_double_block]
        engine = NoHugeEngine(
            residual,
            self.pool.remaining_fresh(),
            T,
            trace=self.trace,
            reservations=self.reservations,
        )
        engine.run()
        self.unscheduled.clear()

        # Rotate m0 so c' avoids c'': the engine reserved c'' in the
        # shared class-busy map, so its occupied span is the class's
        # busy runs — no scan over the engine machines needed.
        q_ticks = self.scale.size_ticks(c_prime_block.size)
        busy = self.reservations.of(cid)
        first = busy.first_start()
        if first is None or first >= q_ticks:
            m0.delay_to_start_at_ticks(q_ticks)
            self._place(m0, cid, list(c_prime_block.jobs), 0)
        else:
            if busy.last_end() > D - q_ticks:  # pragma: no cover - by proof
                raise CapacityError(
                    "rotation impossible: c'' blocks both positions"
                )
            self._place_ending(m0, cid, list(c_prime_block.jobs), D)
        self._snapshot(f"{step}(rotate,{cid})")
        return self._result(engine)

    def _finish_with_no_huge(self, step: str) -> ScheduleResult:
        """``|M̄H| = 0``: hand every remaining class to
        `Algorithm_no_huge` on the remaining fresh machines."""
        residual = {
            cid: list(self.glued[cid].blocks) for cid in self.unscheduled
        }
        engine: Optional[NoHugeEngine] = None
        if residual:
            engine = NoHugeEngine(
                residual,
                self.pool.remaining_fresh(),
                T=self.T,
                trace=self.trace,
                reservations=self.reservations,
            )
            engine.run()
            self.unscheduled.clear()
        self._snapshot(f"{step}->no_huge")
        return self._result(engine)

    def _result(self, engine: Optional[NoHugeEngine] = None) -> ScheduleResult:
        if self.unscheduled:  # pragma: no cover - invariant guard
            raise CapacityError(
                f"classes left unscheduled: {sorted(self.unscheduled)}"
            )
        self.reservations.flush()
        schedule = build_schedule(self.pool)
        placements = self.placements + (
            engine.placements if engine is not None else 0
        )
        stats: Dict[str, object] = {
            "T": self.T,
            "steps": self.step_log,
            "partition": {
                "CH": sorted(self.partition.ch),
                "CB": sorted(self.partition.cb),
                "C>=3/4": sorted(self.partition.ge34),
                "C(1/2,3/4)": sorted(self.partition.mid),
                "C<=1/2": sorted(self.partition.le_half),
            },
            "kernel": {
                "placements": placements,
                "mh_machines": len(self.mh),
                "frontier_queries": self.mh_frontier.queries,
                "frontier_updates": self.mh_frontier.updates,
                **self.reservations.counters(),
            },
        }
        if engine is not None:
            stats["no_huge_steps"] = engine.step_log
        if self.trace:
            stats["snapshots"] = self.snapshots
            if engine is not None:
                stats["no_huge_snapshots"] = engine.snapshots
        return ScheduleResult(
            schedule=schedule,
            lower_bound=self.T,
            algorithm="three_halves",
            guarantee=Fraction(3, 2),
            stats=stats,
        )


@register("three_halves")
def schedule_three_halves(
    instance: Instance, *, trace: bool = False
) -> ScheduleResult:
    """Run `Algorithm_3/2` on ``instance`` (Theorem 7).

    Parameters
    ----------
    trace:
        Record partial-schedule snapshots after every step in
        ``stats["snapshots"]`` (used to regenerate the paper's Figure 4).
    """
    fast = trivial_class_per_machine(instance, "three_halves")
    if fast is not None:
        return fast
    return _ThreeHalves(instance, trace=trace).run()
