"""`Algorithm_5/3` — the simple 5/3-approximation (Section 2, Theorem 2).

With ``T = max(p(J)/m, max_c p(c), p̃_m + p̃_{m+1})`` the algorithm places
*full classes* in three passes (everything below is stated for the instance
scaled by ``1/T``; the implementation never scales — it compares against
rational multiples of ``T`` exactly):

1. every class containing a job ``> 1/2`` (``CB+``) goes to its own machine,
   jobs consecutive from time 0;
2. every remaining class with total size ``> 2/3`` is added to the current
   machine (CB+ machines first, then empty ones).  If it fits under ``5/3``
   it is placed whole; otherwise it is split by Lemma 5, the larger part
   ends at ``5/3`` on the current machine (closed), and the smaller part
   occupies ``[0, p(c2))`` on the next machine whose jobs are delayed past it;
3. all remaining classes (total ``≤ 2/3``) are stacked greedily, closing a
   machine once its load reaches ``1``.

Machines are closed once their load reaches ``T`` (so every closed machine
certifies load ≥ ``T``, which is why the ``m`` machines always suffice); a
machine closed in step 2's split case carries load ``> 7/6`` as shown in the
paper's Lemma 6.

The placement core runs on the dispatch kernel
(:class:`~repro.core.dispatch.BlockDispatchState`): the paper's "current
machine" — the first open machine with load ``< T``, step-1 machines
before fresh ones — is a load-keyed
:class:`~repro.core.dispatch.MachineFrontier` query (step-1 machines
occupy the lowest indices, so *leftmost open machine with load < T* is
exactly the old cursor walk), and every block placement reserves its
interval in the class's :class:`~repro.core.dispatch.ClassBusy`, so the
Lemma 5 disjointness of a split class's two parts is conflict-scanned at
placement time.  Decisions are bit-for-bit identical to the preserved
pre-kernel loop :func:`repro.algorithms.reference.reference_five_thirds`
(pinned by ``tests/equivalence.py``).

Running time is ``O(|I|)`` up to the deterministic selection used for the
pair bound.  The makespan is at most ``(5/3)·T ≤ (5/3)·OPT``.

All placements run on the tick grid ``1/(3·den(T))`` (the only fractional
position the algorithm ever emits is ``5T/3``), so machine operations are
pure integer arithmetic; see :mod:`repro.core.timescale`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List

from repro.algorithms.base import (
    ScheduleResult,
    trivial_class_per_machine,
)
from repro.algorithms.registry import register
from repro.core.bounds import basic_T
from repro.core.classify import cb_plus_classes
from repro.core.dispatch import BlockDispatchState
from repro.core.instance import Instance
from repro.core.machine import MachinePool, MachineState, build_schedule
from repro.core.split import lemma5_split, sized_total
from repro.core.timescale import TimeScale

__all__ = ["schedule_five_thirds"]


@register("five_thirds")
def schedule_five_thirds(
    instance: Instance, *, trace: bool = False
) -> ScheduleResult:
    """Run `Algorithm_5/3` on ``instance``.

    Parameters
    ----------
    trace:
        When true, ``stats["snapshots"]`` maps each step name to the partial
        schedule right after that step — used to regenerate the paper's
        Figure 1.
    """
    fast = trivial_class_per_machine(instance, "five_thirds")
    if fast is not None:
        return fast

    T = basic_T(instance)  # exact Fraction, T <= OPT
    # Grid declaration: every position this algorithm emits is an integer
    # combination of job sizes and 5T/3, so den = 3·den(T) suffices.
    scale = TimeScale(3 * T.denominator)
    T_num, T_den = T.numerator, T.denominator
    deadline_ticks = 5 * T_num  # (5T/3) · 3·den(T)
    pool = MachinePool(instance.num_machines, scale)
    snapshots: Dict[str, object] = {}
    step_log: List[tuple] = []

    classes = instance.classes
    cb_plus = cb_plus_classes(instance, T)

    # ---------------- Step 1: CB+ classes on individual machines --------- #
    # Step-1 machines take the lowest pool indices, so the kernel's
    # leftmost-open-light query below visits them before any fresh
    # machine — the pre-kernel cursor's "prepared order".
    engine = BlockDispatchState(pool, classes, T)
    for cid in sorted(cb_plus):
        machine = engine.take_fresh()
        engine.place_block(machine, cid, classes[cid], 0)
        step_log.append(("step1", cid, machine.index))
    if trace:
        snapshots["step1"] = build_schedule(pool)

    def current() -> MachineState:
        # "The current machine": leftmost open machine with load < T.
        return engine.current_light()

    def full(machine: MachineState) -> bool:
        return machine.load * T_den >= T_num

    # ---------------- Step 2: classes with p(c) > 2/3 -------------------- #
    # One pass in class-id order splits the non-CB+ classes around the
    # 2/3 threshold: ``p(c) > (2/3)·T  ⟺  3·p(c)·den(T) > 2·num(T)``,
    # the same exact cross-multiplication gt_frac/le_frac perform, kept
    # in plain ints (p(c) and den(T) are ints) off the Fraction path.
    large: List[int] = []
    rest: List[int] = []
    class_size = instance.class_size
    two_T = 2 * T_num
    for cid in sorted(classes):
        if cid in cb_plus:
            continue
        if 3 * class_size(cid) * T_den > two_T:
            large.append(cid)
        else:
            rest.append(cid)
    for cid in large:
        jobs = classes[cid]
        total = sized_total(jobs)
        machine = current()
        # ``load + p(c) ≤ (5/3)·T`` by the same integer cross-multiply.
        if 3 * (machine.load + total) * T_den <= 5 * T_num:
            # Whole class fits under 5/3: stack it on top.
            engine.append_block(machine, cid, jobs)
            step_log.append(("step2_whole", cid, machine.index))
            if full(machine):
                engine.close(machine)
        else:
            part_a, part_b = lemma5_split(jobs, T)
            if sized_total(part_a) >= sized_total(part_b):
                c1, c2 = part_a, part_b
            else:
                c1, c2 = part_b, part_a
            # Larger part ends at 5/3 on the current machine; close it.
            engine.place_block_ending(machine, cid, c1, deadline_ticks)
            engine.close(machine)
            # Smaller part occupies [0, p(c2)) on the next machine, whose
            # jobs are delayed to start at p(c2).
            nxt = current()
            if not nxt.empty:
                engine.delay_to_start(
                    nxt, scale.size_ticks(sized_total(c2))
                )
            engine.place_block(nxt, cid, c2, 0)
            step_log.append(("step2_split", cid, machine.index, nxt.index))
            if full(nxt):
                engine.close(nxt)
    if trace:
        snapshots["step2"] = build_schedule(pool)

    # ---------------- Step 3: greedy for classes with p(c) <= 2/3 -------- #
    for cid in rest:
        machine = current()
        engine.append_block(machine, cid, classes[cid])
        step_log.append(("step3", cid, machine.index))
        if full(machine):
            engine.close(machine)
    if trace:
        snapshots["step3"] = build_schedule(pool)

    engine.reservations.flush()
    schedule = build_schedule(pool)
    stats: Dict[str, object] = {
        "T": T,
        "cb_plus": sorted(cb_plus),
        "steps": step_log,
        "kernel": engine.counters(),
    }
    if trace:
        stats["snapshots"] = snapshots
    return ScheduleResult(
        schedule=schedule,
        lower_bound=T,
        algorithm="five_thirds",
        guarantee=Fraction(5, 3),
        stats=stats,
    )
