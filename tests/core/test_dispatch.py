"""Tests for the heap-indexed dispatch kernel (`repro.core.dispatch`).

Three layers of evidence that the kernel reproduces the naive
select-and-scan baselines exactly:

* **Structure properties** — ``earliest_free_start`` (and its indexed
  sibling :meth:`ClassBusy.earliest_free`) pinned against brute-force
  references, on integer ticks and on :class:`~fractions.Fraction`
  endpoints, including touching/adjacent busy intervals;
  :class:`MachineFrontier` pinned against a naive list scan.
* **Whole-algorithm equivalence** — hypothesis drives random instances
  through the kernel-backed ``class_greedy`` / ``list_*`` / ``merge_lpt``
  and through the preserved pre-kernel loops in
  :mod:`repro.algorithms.reference`, asserting identical ``to_dict``
  output (the same technique as ``tests/core/test_tick_equivalence.py``).
* **Step counts** — the kernel's built-in work counters (the counting
  shim) bound the dispatch work to near-linear, so a reintroduced
  ``remove()``/re-sort hot loop fails loudly instead of just slowly.
"""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import solve
from repro.algorithms.list_scheduling import PRIORITY_RULES
from repro.algorithms.reference import (
    APPROX_REFERENCES,
    NAIVE_REFERENCES,
    naive_class_greedy,
    naive_list,
)
from repro.core.dispatch import (
    BlockDispatchState,
    ClassBusy,
    ClassReservations,
    ClassSelectionHeap,
    DispatchState,
    MachineFrontier,
    earliest_free_start,
)
from repro.core.errors import CapacityError, InvalidScheduleError
from repro.core.instance import Instance, Job
from repro.core.machine import MachinePool, MachineState
from repro.workloads import (
    generate,
    mh_stress_machines,
    packed_small_machines,
)
from tests.equivalence import (
    assert_matches_reference,
    golden_cell_id,
    golden_cells,
    kernel_counters,
    replay_golden_cell,
)
from tests.strategies import instances


# --------------------------------------------------------------------- #
# earliest_free_start vs brute force
# --------------------------------------------------------------------- #
def brute_force_tick_scan(busy, ready: int, size: int) -> int:
    """Reference: try every integer tick from ``ready`` upward."""
    t = ready
    while not all(hi <= t or lo >= t + size for lo, hi in busy):
        t += 1
    return t


def brute_force_candidates(busy, ready, size):
    """Reference for rational endpoints: the earliest feasible start is
    ``ready`` itself or some interval end — minimize over those."""
    candidates = [ready] + [hi for _, hi in busy if hi > ready]
    return min(
        t
        for t in candidates
        if all(hi <= t or lo >= t + size for lo, hi in busy)
    )


@st.composite
def busy_intervals(draw, *, denominator: int = 1, max_intervals: int = 6):
    """Sorted, disjoint, possibly *touching* busy intervals."""
    intervals = []
    cursor = 0
    for _ in range(draw(st.integers(0, max_intervals))):
        cursor += draw(st.integers(0, 5))  # gap 0 → touching neighbors
        length = draw(st.integers(1, 6))
        intervals.append((cursor, cursor + length))
        cursor += length
    if denominator == 1:
        return intervals
    return [
        (Fraction(lo, denominator), Fraction(hi, denominator))
        for lo, hi in intervals
    ]


class TestEarliestFreeStart:
    @given(
        busy=busy_intervals(),
        ready=st.integers(0, 30),
        size=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_tick_scan(self, busy, ready, size):
        assert earliest_free_start(busy, ready, size) == (
            brute_force_tick_scan(busy, ready, size)
        )

    @given(
        den=st.integers(1, 5),
        data=st.data(),
        ready_num=st.integers(0, 60),
        size=st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_on_fractions(
        self, den, data, ready_num, size
    ):
        busy = data.draw(busy_intervals(denominator=den))
        ready = Fraction(ready_num, den)
        got = earliest_free_start(busy, ready, size)
        assert got == brute_force_candidates(busy, ready, size)
        # The returned slot really is free and no earlier than ready.
        assert got >= ready
        assert all(hi <= got or lo >= got + size for lo, hi in busy)

    def test_touching_intervals_have_no_gap(self):
        # [0,2) and [2,4) touch: a unit job ready at 0 must go to 4.
        busy = [(0, 2), (2, 4)]
        assert earliest_free_start(busy, 0, 1) == 4

    def test_exact_fit_between_touching_runs(self):
        busy = [(0, 2), (3, 5), (5, 7)]
        assert earliest_free_start(busy, 0, 1) == 2  # exact-fit gap
        assert earliest_free_start(busy, 0, 2) == 7  # gap too small
        assert earliest_free_start(busy, 2, 1) == 2  # ready on a boundary

    def test_ready_at_interval_end_is_free(self):
        busy = [(Fraction(1, 2), Fraction(5, 2))]
        assert earliest_free_start(busy, Fraction(5, 2), 3) == Fraction(5, 2)

    def test_slot_ending_exactly_at_next_start(self):
        busy = [(4, 9)]
        assert earliest_free_start(busy, 1, 3) == 1  # [1,4) touches [4,9)

    def test_class_greedy_reexport_is_the_kernel_function(self):
        from repro.algorithms.class_greedy import earliest_class_free_start

        assert earliest_class_free_start is earliest_free_start


class TestClassBusy:
    @given(
        busy=busy_intervals(max_intervals=8),
        queries=st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 8)),
            min_size=1,
            max_size=5,
        ),
        order_seed=st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_generic_function(self, busy, queries, order_seed):
        index = ClassBusy()
        shuffled = list(busy)
        order_seed.shuffle(shuffled)  # insertion order must not matter
        for lo, hi in shuffled:
            index.insert(lo, hi)
        for ready, size in queries:
            assert index.earliest_free(ready, size) == (
                earliest_free_start(busy, ready, size)
            )

    @given(busy=busy_intervals(max_intervals=8))
    @settings(max_examples=100, deadline=None)
    def test_coalesced_sorted_disjoint(self, busy):
        index = ClassBusy()
        for lo, hi in busy:
            index.insert(lo, hi)
        intervals = index.intervals()
        # Sorted, disjoint, and *maximal*: touching runs were coalesced.
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert hi1 < lo2
        assert sum(hi - lo for lo, hi in intervals) == (
            sum(hi - lo for lo, hi in busy)
        )

    def test_coalesces_both_neighbors(self):
        index = ClassBusy()
        index.insert(0, 2)
        index.insert(4, 6)
        index.insert(2, 4)  # bridges both
        assert index.intervals() == [(0, 6)]
        assert index.earliest_free(0, 1) == 6

    @given(
        busy=busy_intervals(max_intervals=8),
        limit=st.integers(0, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_gaps_complement_busy_runs(self, busy, limit):
        index = ClassBusy()
        for lo, hi in busy:
            index.insert(lo, hi)
        gaps = list(index.gaps(limit))
        # In order, disjoint, non-empty, clipped to the horizon.
        for lo, hi in gaps:
            assert 0 <= lo < hi <= limit
        for (_, hi1), (lo2, _) in zip(gaps, gaps[1:]):
            assert hi1 < lo2
        # Exact complement on [0, limit): each tick is free XOR busy.
        free = {t for lo, hi in gaps for t in range(lo, hi)}
        occupied = {
            t
            for lo, hi in index.intervals()
            for t in range(lo, hi)
            if t < limit
        }
        assert free | occupied == set(range(limit))
        assert not (free & occupied)

    def test_gaps_empty_index_is_one_run(self):
        index = ClassBusy()
        assert list(index.gaps(5)) == [(0, 5)]
        assert list(index.gaps(0)) == []


# --------------------------------------------------------------------- #
# MachineFrontier vs a naive scan
# --------------------------------------------------------------------- #
class TestMachineFrontier:
    @given(
        m=st.integers(1, 9),
        ops=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 50)),
            max_size=30,
        ),
        probes=st.lists(st.integers(0, 60), min_size=1, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_scan(self, m, ops, probes):
        frontier = MachineFrontier(m)
        tops = [0] * m
        for idx, top in ops:
            idx %= m
            # Frontiers only move forward in the dispatch loop, but the
            # structure itself must not care.
            frontier.update(idx, top)
            tops[idx] = top
        assert frontier.min_top() == min(tops)
        for i in range(m):
            assert frontier.top(i) == tops[i]
        for x in probes:
            expected = next(
                (i for i, t in enumerate(tops) if t <= x), -1
            )
            assert frontier.leftmost_at_most(x) == expected

    def test_leftmost_prefers_smaller_index_on_ties(self):
        frontier = MachineFrontier(5, tops=[7, 3, 3, 9, 3])
        assert frontier.min_top() == 3
        assert frontier.leftmost_at_most(3) == 1
        assert frontier.leftmost_at_most(8) == 0
        assert frontier.leftmost_at_most(2) == -1

    @given(
        m=st.integers(1, 9),
        ops=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 50)),
            max_size=30,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_leftmost_min_matches_naive_argmin(self, m, ops):
        frontier = MachineFrontier(m)
        tops = [0] * m
        for idx, top in ops:
            idx %= m
            frontier.update(idx, top)
            tops[idx] = top
        assert frontier.leftmost_min() == min(
            range(m), key=tops.__getitem__
        )

    def test_leftmost_min_ties_and_updates(self):
        frontier = MachineFrontier(5, tops=[7, 3, 3, 9, 3])
        assert frontier.leftmost_min() == 1
        frontier.update(1, 8)
        assert frontier.leftmost_min() == 2
        frontier.update(4, 0)
        assert frontier.leftmost_min() == 4


class TestMachineFrontierClosedMachines:
    """Closed-machine (deactivation) support — the subset-query layer the
    3/2-approximation's ``M̄H`` bookkeeping runs on."""

    @given(
        m=st.integers(1, 9),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["update", "close"]),
                st.integers(0, 8),
                st.integers(0, 50),
            ),
            max_size=30,
        ),
        probes=st.lists(st.integers(0, 60), min_size=1, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_open_list_scan(self, m, ops, probes):
        frontier = MachineFrontier(m)
        tops = [0] * m
        open_ = [True] * m
        for kind, idx, top in ops:
            idx %= m
            if kind == "close" or not open_[idx]:
                frontier.deactivate(idx)
                open_[idx] = False
            else:
                frontier.update(idx, top)
                tops[idx] = top
        assert frontier.active_count == sum(open_)
        active = [i for i in range(m) if open_[i]]
        assert frontier.leftmost_active() == (active[0] if active else -1)
        if active:
            assert frontier.min_top() == min(tops[i] for i in active)
        for i in range(m):
            assert frontier.is_active(i) == open_[i]
        for x in probes:
            expected = next(
                (i for i in active if tops[i] <= x), -1
            )
            assert frontier.leftmost_at_most(x) == expected

    def test_deactivate_is_idempotent_and_counts(self):
        frontier = MachineFrontier(4, tops=[5, 1, 7, 3])
        frontier.deactivate(1)
        frontier.deactivate(1)
        assert frontier.active_count == 3
        assert frontier.min_top() == 3
        assert frontier.leftmost_at_most(6) == 0
        assert frontier.leftmost_active() == 0

    def test_update_on_deactivated_leaf_raises(self):
        frontier = MachineFrontier(3, tops=[2, 4, 6])
        frontier.deactivate(0)
        with pytest.raises(InvalidScheduleError):
            frontier.update(0, 1)
        # The failed update must not have resurrected the leaf.
        assert frontier.leftmost_active() == 1

    def test_all_deactivated(self):
        frontier = MachineFrontier(3)
        for i in range(3):
            frontier.deactivate(i)
        assert frontier.active_count == 0
        assert frontier.leftmost_active() == -1
        assert frontier.leftmost_at_most(10**9) == -1

    def test_subset_frontier_orders_by_leaf_not_machine_index(self):
        # A frontier over a machine *subset* uses list positions as
        # leaves: leftmost means first in subset order.
        subset_tops = [9, 2, 9, 2]  # e.g. M̄H machines in creation order
        frontier = MachineFrontier(len(subset_tops), tops=subset_tops)
        assert frontier.leftmost_at_most(2) == 1
        frontier.deactivate(1)
        assert frontier.leftmost_at_most(2) == 3
        frontier.deactivate(3)
        assert frontier.leftmost_at_most(2) == -1
        assert frontier.leftmost_active() == 0


class TestClassBusyReserve:
    """Block-level reservation — the conflict-scan path of the
    approximation algorithms' Lemma placements."""

    @given(
        busy=busy_intervals(max_intervals=8),
        start=st.integers(0, 40),
        length=st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_overlap(self, busy, start, length):
        index = ClassBusy()
        for lo, hi in busy:
            index.insert(lo, hi)
        end = start + length
        conflict = any(lo < end and start < hi for lo, hi in busy)
        if conflict:
            with pytest.raises(InvalidScheduleError):
                index.reserve(start, end)
            # Atomic: the busy set is unchanged on failure.
            assert sum(hi - lo for lo, hi in index.intervals()) == (
                sum(hi - lo for lo, hi in busy)
            )
        else:
            index.reserve(start, end)
            assert sum(hi - lo for lo, hi in index.intervals()) == (
                sum(hi - lo for lo, hi in busy) + length
            )

    def test_touching_reservations_are_legal_and_coalesce(self):
        index = ClassBusy()
        index.reserve(0, 3)
        index.reserve(3, 5)  # touching is not overlapping
        assert index.intervals() == [(0, 5)]
        assert index.first_start() == 0
        assert index.last_end() == 5

    def test_empty_or_reversed_reservation_raises(self):
        index = ClassBusy()
        with pytest.raises(InvalidScheduleError):
            index.reserve(4, 4)
        with pytest.raises(InvalidScheduleError):
            index.reserve(5, 2)

    def test_bounds_accessors_when_idle(self):
        index = ClassBusy()
        assert index.first_start() is None
        assert index.last_end() is None

    def test_reservations_map_creates_on_demand_and_counts(self):
        reservations = ClassReservations([1])
        reservations.reserve(1, 0, 4)
        reservations.reserve(2, 2, 6)  # class 2 created on demand
        reservations.reserve(3, 5, 5)  # empty block: no-op
        assert reservations.count == 2
        assert reservations.of(1).intervals() == [(0, 4)]
        assert reservations.of(2).intervals() == [(2, 6)]
        # Validation is deferred: the queue accepts the conflicting
        # interval, the batch scan rejects it at the next read/flush.
        reservations.reserve(2, 5, 7)
        with pytest.raises(InvalidScheduleError):
            reservations.of(2)

    def test_reservations_flush_rejects_conflicts_batchwise(self):
        reservations = ClassReservations()
        reservations.reserve(4, 0, 3)
        reservations.reserve(4, 3, 5)  # touching: legal, coalesces
        reservations.flush()
        assert reservations.of(4).intervals() == [(0, 5)]
        reservations.reserve(4, 4, 6)  # overlaps the committed run
        with pytest.raises(InvalidScheduleError):
            reservations.flush()

    def test_rejected_reservations_never_half_commit(self):
        """A scalar overlap, a batch that overlaps a committed run and a
        batch that overlaps itself are each rejected whole; the clean
        batch then commits."""
        busy = ClassBusy()
        busy.seed_run(100, 110)
        busy.reserve(200, 230)
        with pytest.raises(InvalidScheduleError):
            busy.reserve(225, 240)
        pending = [(1000 + 20 * i, 1000 + 20 * i + 8) for i in range(40)]
        with pytest.raises(InvalidScheduleError):
            busy.merge_reserve(pending + [(105, 116)])
        with pytest.raises(InvalidScheduleError):
            busy.merge_reserve(pending + [(1004, 1010)])
        assert busy.intervals() == [(100, 110), (200, 230)]
        busy.merge_reserve(pending)
        assert busy.intervals() == [(100, 110), (200, 230)] + pending
        assert busy.earliest_free(0, 50) == 0
        assert busy.earliest_free(205, 4) == 230

    def test_merge_reserve_matches_eager_reservation(self):
        import itertools
        import random

        rnd = random.Random(7)
        for _ in range(200):
            intervals = [
                (s, s + rnd.randint(1, 4))
                for s in rnd.sample(range(0, 40), rnd.randint(1, 8))
            ]
            eager = ClassBusy()
            eager_error = None
            try:
                for s, e in intervals:
                    eager.reserve(s, e)
            except InvalidScheduleError as exc:
                eager_error = type(exc)
            batched = ClassBusy()
            batch_error = None
            try:
                batched.merge_reserve(intervals)
            except InvalidScheduleError as exc:
                batch_error = type(exc)
            assert eager_error == batch_error, intervals
            if eager_error is None:
                assert eager.intervals() == batched.intervals(), intervals


class TestBlockDispatchState:
    """The load-keyed cursor engine `Algorithm_5/3` runs on."""

    @given(
        m=st.integers(1, 6),
        blocks=st.lists(
            st.tuples(st.integers(1, 9), st.booleans()),
            min_size=1,
            max_size=20,
        ),
        T=st.integers(3, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_current_light_matches_naive_walk(self, m, blocks, T):
        """Placing blocks on `current_light` mirrors a naive 'first open
        machine with load < T' scan, including closures."""
        pool = MachinePool(m)
        engine = BlockDispatchState(pool, range(len(blocks)), T)
        shadow_loads = [0] * m
        shadow_open = [True] * m
        for cid, (size, close_after) in enumerate(blocks):
            expected = next(
                (
                    i
                    for i in range(m)
                    if shadow_open[i] and shadow_loads[i] < T
                ),
                None,
            )
            if expected is None:
                with pytest.raises(CapacityError):
                    engine.current_light()
                break
            machine = engine.current_light()
            assert machine.index == expected
            engine.append_block(
                machine, cid, [Job(cid, size, cid)]
            )
            shadow_loads[expected] += size
            if close_after:
                engine.close(machine)
                shadow_open[expected] = False
        for i, machine in enumerate(pool.machines):
            assert machine.load == shadow_loads[i]
            assert machine.closed == (not shadow_open[i])

    def test_counters_surface_all_layers(self):
        pool = MachinePool(3)
        engine = BlockDispatchState(pool, [0, 1], 10)
        machine = engine.current_light()
        engine.place_block(machine, 0, [Job(0, 4, 0)], 0)
        engine.place_block_ending(machine, 1, [Job(1, 2, 1)], 8)
        counters = engine.counters()
        assert counters["placements"] == 2
        assert counters["reservations"] == 2
        assert counters["frontier_queries"] >= 1
        # Lazy frontier sync coalesces consecutive placements on the
        # same machine into one tree update (flushed by counters()).
        assert counters["frontier_updates"] >= 1


# --------------------------------------------------------------------- #
# Whole-algorithm equivalence with the preserved naive loops
# --------------------------------------------------------------------- #
def assert_same_result(kernel_result, naive_result):
    assert kernel_result.schedule.to_dict() == (
        naive_result.schedule.to_dict()
    )
    assert kernel_result.makespan == naive_result.makespan
    assert kernel_result.lower_bound == naive_result.lower_bound
    assert kernel_result.algorithm == naive_result.algorithm


class TestKernelVsNaive:
    @given(inst=instances())
    @settings(max_examples=80, deadline=None)
    def test_class_greedy(self, inst):
        assert_same_result(
            solve(inst, algorithm="class_greedy"), naive_class_greedy(inst)
        )

    @given(
        inst=instances(), rule=st.sampled_from(sorted(PRIORITY_RULES))
    )
    @settings(max_examples=80, deadline=None)
    def test_list_rules(self, inst, rule):
        assert_same_result(
            solve(inst, algorithm="list_lpt", rule=rule),
            naive_list(inst, rule=rule),
        )

    @pytest.mark.parametrize(
        "family,machines,size,seed",
        [
            ("uniform", 8, 150, 0),
            ("class_heavy", 4, 80, 1),
            ("greedy_trap", 3, 50, 2),
            ("two_per_class", 5, 120, 3),
        ],
    )
    def test_medium_instances_all_baselines(
        self, family, machines, size, seed
    ):
        inst = generate(family, machines, size, seed)
        for name, naive in NAIVE_REFERENCES.items():
            assert_same_result(solve(inst, algorithm=name), naive(inst))

    def test_dense_single_class(self):
        # One dominant class forces every placement through the busy
        # index; |C| > m so the optimal fast path stays off.
        inst = Instance.from_class_sizes(
            [[3] * 60, [2] * 5] + [[1]] * 4, 3
        )
        for name, naive in NAIVE_REFERENCES.items():
            assert_same_result(solve(inst, algorithm=name), naive(inst))


#: The approximation algorithms ported in PR 4 and their stress shapes
#: (family, machine-count rule) for the medium-n equivalence cells.
APPROX_ALGORITHMS = ("five_thirds", "three_halves", "no_huge")
APPROX_STRESS_CELLS = [
    ("mh_stress", mh_stress_machines, 250, 0),
    ("mh_stress", mh_stress_machines, 250, 5),
    ("packed_small", packed_small_machines, 60, 0),
    ("packed_small", packed_small_machines, 90, 3),
]


class TestApproxKernelVsReference:
    """The 5/3, 3/2 and no-huge kernel ports are decision-identical to
    the preserved pre-kernel loops (``tests/equivalence.py`` harness)."""

    @given(inst=instances())
    @settings(max_examples=60, deadline=None)
    def test_five_thirds(self, inst):
        assert_matches_reference(inst, "five_thirds")

    @given(inst=instances())
    @settings(max_examples=60, deadline=None)
    def test_three_halves(self, inst):
        assert_matches_reference(inst, "three_halves")

    @given(inst=instances())
    @settings(max_examples=60, deadline=None)
    def test_no_huge(self, inst):
        assert_matches_reference(inst, "no_huge")

    @pytest.mark.slow
    @given(inst=instances(max_machines=12, max_classes=16, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_all_approx_wide_corpus(self, inst):
        for algorithm in APPROX_ALGORITHMS:
            assert_matches_reference(inst, algorithm)

    @pytest.mark.parametrize(
        "family,machines_for,size,seed", APPROX_STRESS_CELLS
    )
    def test_stress_shapes_all_approx(
        self, family, machines_for, size, seed
    ):
        inst = generate(family, machines_for(size), size, seed)
        for algorithm in APPROX_ALGORITHMS:
            assert_matches_reference(inst, algorithm)


class TestApproxGoldens:
    """The preserved reference copies reproduce the pre-port goldens —
    proof the copies really are verbatim-equivalent, independently of
    the kernel implementations (which ``test_tick_equivalence`` pins)."""

    @pytest.mark.parametrize(
        "cell",
        golden_cells(APPROX_ALGORITHMS, min_jobs=48),
        ids=golden_cell_id,
    )
    def test_reference_reproduces_golden(self, cell):
        replay_golden_cell(
            cell, solver=APPROX_REFERENCES[cell["algorithm"]]
        )


class TestApproxStepCounts:
    """The ported placement cores do O(n·(log n + log m)) frontier work —
    a reintroduced per-iteration re-sort or machine-list walk fails
    loudly instead of just slowly."""

    def three_halves_counters(self, size: int) -> dict:
        inst = generate("mh_stress", mh_stress_machines(size), size, 0)
        result = solve(inst, algorithm="three_halves")
        counters = kernel_counters(result)
        counters["n"] = inst.num_jobs
        counters["frontier_ops"] = (
            counters["frontier_queries"] + counters["frontier_updates"]
        )
        return counters

    def test_three_halves_frontier_work_is_near_linear(self):
        from tests.equivalence import assert_subquadratic_growth

        small = self.three_halves_counters(150)
        large = self.three_halves_counters(600)
        for c in (small, large):
            # O(1) frontier operations and O(1) reservations per
            # placement; every placement lands at most once per job.
            assert c["frontier_ops"] <= 4 * c["n"]
            assert c["reservations"] <= c["placements"] <= c["n"]
            assert c["scan_steps"] <= 2 * c["n"]
        assert_subquadratic_growth(
            small,
            large,
            ["frontier_ops", "scan_steps", "placements"],
        )

    def test_five_thirds_frontier_work_is_near_linear(self):
        from tests.equivalence import assert_subquadratic_growth

        def counters_for(size):
            inst = generate("uniform", 8, size, 0)
            result = solve(inst, algorithm="five_thirds")
            counters = kernel_counters(result)
            counters["n"] = inst.num_jobs
            counters["frontier_ops"] = (
                counters["frontier_queries"] + counters["frontier_updates"]
            )
            return counters

        small, large = counters_for(300), counters_for(1200)
        for c in (small, large):
            assert c["frontier_ops"] <= 4 * c["n"]
            assert c["scan_steps"] <= 2 * c["n"]
        assert_subquadratic_growth(
            small, large, ["frontier_ops", "scan_steps"]
        )

    def test_no_huge_reservation_work_is_near_linear(self):
        from tests.equivalence import assert_subquadratic_growth

        def counters_for(size):
            inst = generate(
                "packed_small", packed_small_machines(size), size, 0
            )
            result = solve(inst, algorithm="no_huge")
            counters = kernel_counters(result)
            counters["n"] = inst.num_jobs
            return counters

        small, large = counters_for(60), counters_for(240)
        for c in (small, large):
            assert c["placements"] == c["n"]
            assert c["scan_steps"] <= 2 * c["n"]
        assert_subquadratic_growth(
            small, large, ["scan_steps", "reservations"]
        )


class TestSelectionHeap:
    @given(inst=instances())
    @settings(max_examples=80, deadline=None)
    def test_pop_order_matches_naive_max(self, inst):
        residual = dict(inst.class_sizes)
        unscheduled = list(inst.jobs)
        selection = ClassSelectionHeap(inst)
        while unscheduled:
            expected = max(
                unscheduled,
                key=lambda j: (residual[j.class_id], j.size, -j.id),
            )
            unscheduled.remove(expected)
            residual[expected.class_id] -= expected.size
            assert selection.pop() == expected
        assert selection.pop() is None


# --------------------------------------------------------------------- #
# Step-count regression (the counting shim)
# --------------------------------------------------------------------- #
class TestStepCounts:
    def counters_for(self, n_classes: int) -> dict:
        inst = generate("uniform", 8, n_classes, 0)
        result = solve(inst, algorithm="class_greedy")
        counters = dict(result.stats["dispatch"])
        counters["n"] = inst.num_jobs
        return counters

    def test_dispatch_work_is_near_linear(self):
        small = self.counters_for(300)
        large = self.counters_for(1200)
        for c in (small, large):
            # One selection-heap push per job at most (plus the initial
            # per-class entry, already ≤ one per job), zero stale pops in
            # the built-in flow, and a conflict scan that touches O(1)
            # coalesced runs per placement on this family.
            assert c["heap_pushes"] <= c["n"]
            assert c["stale_pops"] == 0
            assert c["scan_steps"] <= 4 * c["n"]
            assert c["busy_intervals"] <= c["n"]
        # Growth check: 4× the jobs must cost ≤ ~6× the scan work —
        # a quadratic regression would show ≥ 16×.
        assert large["n"] >= 3.5 * small["n"]
        assert large["scan_steps"] <= 6 * small["scan_steps"]

    def test_dense_class_busy_index_stays_coalesced(self):
        inst = Instance.from_class_sizes([[2] * 500] + [[1]] * 8, 8)
        result = solve(inst, algorithm="class_greedy")
        counters = result.stats["dispatch"]
        # 508 placements but only a handful of maximal busy runs.
        assert counters["busy_intervals"] <= 20
        assert counters["scan_steps"] <= 4 * inst.num_jobs


# --------------------------------------------------------------------- #
# The machine-layer frontier fast path
# --------------------------------------------------------------------- #
class TestAppendFastPath:
    def test_append_before_frontier_raises_atomically(self):
        machine = MachineState(0)
        machine.append_job_at_ticks(Job(0, 5, 0), 0)
        with pytest.raises(InvalidScheduleError):
            machine.append_job_at_ticks(Job(1, 2, 0), 3)
        with pytest.raises(InvalidScheduleError):
            machine.append_block_at_ticks([Job(2, 1, 0)], 4)
        assert [j.id for j in machine.jobs()] == [0]
        assert machine.load == 5

    def test_append_at_or_after_frontier(self):
        machine = MachineState(0)
        assert machine.append_job_at_ticks(Job(0, 2, 0), 1) == 3
        assert machine.append_block_at_ticks(
            [Job(1, 1, 0), Job(2, 2, 0)], 5
        ) == 8
        assert machine.top_ticks == 8
        assert machine.load == 5

    def test_closed_machine_rejects_appends(self):
        machine = MachineState(0)
        machine.close()
        with pytest.raises(CapacityError):
            machine.append_job_at_ticks(Job(0, 1, 0), 0)
        with pytest.raises(CapacityError):
            machine.append_block_at_ticks([Job(0, 1, 0)], 0)

    def test_dispatch_state_matches_pool_state(self):
        inst = generate("uniform", 4, 30, 5)
        pool = MachinePool(inst.num_machines)
        state = DispatchState(pool, inst.classes)
        for job in inst.jobs:
            state.place(job)
        for machine in pool.machines:
            assert state.frontier.top(machine.index) == machine.top_ticks
        assert sum(m.load for m in pool.machines) == inst.total_size
