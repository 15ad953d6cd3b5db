"""Heap-indexed dispatch kernel for the greedy/list baselines.

The dispatching baselines (``class_greedy``, ``list_*``, ``merge_lpt``)
share one inner loop: *pick the next job, place it at the earliest
conflict-free position over all machines*.  The seed implementations ran
that loop naively — ``max()`` over the unscheduled list, a scan over
every machine, and ``append(); sort()`` on the class busy list — which
is O(n²) and capped the runtime-scaling benchmark around n ≈ 10³.  This
module provides the indexed structures that make the loop
O(n · (log n + log m) + conflict-scan) while reproducing the naive
loop's decisions *bit for bit*:

* :class:`ClassBusy` — the busy intervals of one class, kept sorted and
  disjoint with ``bisect``; ``earliest_free`` starts its conflict scan
  at the first interval that can matter instead of at index 0.
* :class:`MachineFrontier` — a tournament (segment) tree over the
  per-machine frontiers (completion ticks): ``min_top`` and
  *leftmost machine with top ≤ x* in O(log m).
* :class:`ClassSelectionHeap` — a lazy max-heap over the per-class
  selection keys ``(residual class load, head job size, -head job id)``
  driving ``class_greedy``'s selection rule.
* :class:`DispatchState` — the placement engine combining the three.
* :class:`BlockDispatchState` — the block-placement engine the paper's
  approximation algorithms (`Algorithm_5/3`, `Algorithm_3/2`,
  `Algorithm_no_huge`) run on: a *load-keyed* frontier with
  closed-machine support replaces their "walk to the first open, light
  machine" cursor loops, and every Lemma-style block placement reserves
  its interval in the class's :class:`ClassBusy` — the same
  conflict-scan path the dispatching baselines use, now validating the
  split lemmas' disjointness claims at placement time.

The frontier supports *closed machines* (:meth:`MachineFrontier.deactivate`
sets the leaf to ``+∞`` so both queries skip it) and therefore doubles as
the subset index the 3/2-approximation needs: build a frontier over the
``M̄H`` machine list (leaf order = list order) and ``leftmost_at_most``
answers *leftmost open machine of the subset with top ≤ x* in O(log m).

Why the frontier query is enough (the bit-for-bit argument): the naive
loop computes ``start_i = earliest_free(busy, top_i, size)`` for every
machine ``i`` and picks the lexicographic minimum ``(start_i, i)``.
``earliest_free`` is nondecreasing in ``ready`` and returns the earliest
conflict-free slot at or after ``ready``; hence with
``s* = earliest_free(busy, min_i top_i, size)`` every machine with
``top_i ≤ s*`` has ``start_i = s*`` (the slot ``[s*, s* + size)`` is
known free and starts no earlier than its frontier) and every machine
with ``top_i > s*`` has ``start_i ≥ top_i > s*``.  The naive winner is
therefore exactly the *leftmost* machine with ``top_i ≤ s*``.

Every structure counts its work (`scan_steps`, `heap_pushes`, …); the
counters surface in ``ScheduleResult.stats["dispatch"]`` and back the
step-count regression tests in ``tests/core/test_dispatch.py``.
"""

from __future__ import annotations

import bisect
import heapq
from fractions import Fraction
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.errors import CapacityError, InvalidScheduleError
from repro.core.instance import Instance, Job

if TYPE_CHECKING:  # machine.py imports nothing from here; one-way only
    from repro.core.machine import MachinePool, MachineState

#: Time coordinate: integer ticks on the kernel grid, exact rationals at
#: the API boundary (``earliest_free_start`` is generic over both).
Tick = Union[int, Fraction]

__all__ = [
    "earliest_free_start",
    "ClassBusy",
    "MachineFrontier",
    "ClassSelectionHeap",
    "DispatchState",
    "ClassReservations",
    "BlockDispatchState",
    "place_reserved",
    "place_reserved_ending",
]

_INF = float("inf")


def earliest_free_start(
    busy: Sequence[Tuple[Tick, Tick]], ready: Tick, size: Tick
) -> Tick:
    """Earliest ``t ≥ ready`` such that ``[t, t + size)`` avoids all
    ``busy`` intervals (``busy`` sorted, disjoint).

    Generic over the time representation: works on integer ticks (the
    dispatching baselines run on the integral grid) as well as
    :class:`~fractions.Fraction` endpoints.  The indexed equivalent for
    the int hot path is :meth:`ClassBusy.earliest_free`.
    """
    t = ready
    for lo, hi in busy:
        if hi <= t:
            continue
        if lo >= t + size:
            break
        t = hi
    return t


class ClassBusy:
    """Busy intervals of one class: sorted, disjoint, bisect-maintained.

    Replaces the ``append(); sort()`` hot-loop pattern: insertion is a
    bisect plus two ``list.insert`` calls, and ``earliest_free`` skips
    straight past every interval ending at or before ``ready`` instead
    of scanning from index 0.
    """

    __slots__ = ("_starts", "_ends", "scan_steps")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        #: Conflict-scan work counter (intervals examined across all
        #: ``earliest_free`` calls) — read by the step-count tests.
        self.scan_steps = 0

    def __len__(self) -> int:
        return len(self._starts)

    def intervals(self) -> List[Tuple[int, int]]:
        """The ``(start, end)`` intervals, sorted."""
        return list(zip(self._starts, self._ends))

    def earliest_free(self, ready: int, size: int) -> int:
        """Earliest ``t ≥ ready`` with ``[t, t + size)`` conflict-free.

        Same contract as :func:`earliest_free_start` on the intervals
        held, but the scan starts at the bisect position of ``ready``
        instead of index 0.
        """
        starts, ends = self._starts, self._ends
        t = ready
        # First interval whose end lies strictly after ``t``: everything
        # before it satisfies ``hi ≤ t`` and can never constrain the slot.
        i = bisect.bisect_right(ends, t)
        i0 = i
        n = len(starts)
        while i < n and starts[i] < t + size:
            # Overlap (``ends[i] > t`` holds: ends are sorted and the
            # intervals are disjoint, so each scanned end exceeds the
            # previous one we advanced to): restart just after it.
            t = ends[i]
            i += 1
        self.scan_steps += i - i0 + 1
        return t

    def seed_run(self, start: int, end: int) -> None:
        """Adopt one pre-validated run into an empty index — the
        materialization step of :class:`ClassReservations`' solo fast
        path.  Counts as one scan step, exactly what the one-interval
        :meth:`merge_reserve` would have charged."""
        self._starts.append(start)
        self._ends.append(end)
        self.scan_steps += 1

    def first_start(self) -> Optional[int]:
        """Start of the earliest busy run (``None`` when idle)."""
        return self._starts[0] if self._starts else None

    def last_end(self) -> Optional[int]:
        """End of the latest busy run (``None`` when idle)."""
        return self._ends[-1] if self._ends else None

    def reserve(self, start: int, end: int) -> None:
        """Conflict-checked block reservation of ``[start, end)``.

        The block-placement path of the approximation algorithms: where
        the dispatch loop *computes* a free slot with
        :meth:`earliest_free`, a Lemma-style placement *asserts* one —
        the split lemmas guarantee the two parts of a class never
        overlap in time, and this is where that guarantee is scanned
        instead of trusted.  Raises
        :class:`~repro.core.errors.InvalidScheduleError` on overlap
        (an algorithm bug, surfacing at the offending step); on success
        the interval is recorded exactly like :meth:`insert`.
        """
        if end <= start:
            raise InvalidScheduleError(
                f"class reservation [{start}, {end}) is empty or reversed"
            )
        starts, ends = self._starts, self._ends
        # First run ending strictly after ``start``: the only candidate
        # that can overlap from the left; the run after it can only
        # overlap if it begins before ``end``.  Every earlier run ends at
        # or before ``start``, so ``i`` is also the insertion index.
        i = bisect.bisect_right(ends, start)
        self.scan_steps += 1
        n = len(starts)
        if i < n and starts[i] < end:
            raise InvalidScheduleError(
                f"class reservation [{start}, {end}) overlaps busy run "
                f"[{starts[i]}, {ends[i]})"
            )
        joins_prev = i > 0 and ends[i - 1] == start
        joins_next = i < n and starts[i] == end
        if joins_prev and joins_next:
            ends[i - 1] = ends[i]
            del starts[i]
            del ends[i]
        elif joins_prev:
            ends[i - 1] = end
        elif joins_next:
            starts[i] = start
        else:
            starts.insert(i, start)
            ends.insert(i, end)

    def merge_reserve(self, pending: List[Tuple[int, int]]) -> None:
        """Batch equivalent of one :meth:`reserve` call per interval.

        Sorts the pending intervals once and merges them with the
        committed runs in a single two-pointer sweep — O((k + r) + k log k)
        for ``k`` pending intervals against ``r`` runs, instead of a
        bisect + ``list.insert`` per placement.  The accept/reject
        decision is identical to eager reservation: a conflict exists
        iff some pair of intervals strictly overlaps, which the sweep
        detects as an interval starting before the running merge end;
        touching intervals coalesce into the same maximal runs eager
        insertion produces (maximal runs of a disjoint interval set are
        canonical, whatever the insertion order).
        """
        if not pending:
            return
        for s, e in pending:
            if e <= s:
                raise InvalidScheduleError(
                    f"class reservation [{s}, {e}) is empty or reversed"
                )
        if len(pending) == 1 and not self._starts:
            # Dominant flush shape for the block algorithms: one
            # reservation against an empty index — nothing to merge.
            s, e = pending[0]
            self._starts.append(s)
            self._ends.append(e)
            self.scan_steps += 1
            return
        queued = sorted(pending)
        starts, ends = self._starts, self._ends
        merged_s: List[int] = []
        merged_e: List[int] = []
        self.scan_steps += len(queued)
        i, n = 0, len(starts)
        j, k = 0, len(queued)
        while i < n or j < k:
            if j >= k or (i < n and starts[i] <= queued[j][0]):
                s, e = starts[i], ends[i]
                i += 1
            else:
                s, e = queued[j]
                j += 1
            if merged_s:
                last_end = merged_e[-1]
                if s < last_end:
                    raise InvalidScheduleError(
                        f"class reservation [{s}, {e}) overlaps busy run "
                        f"[{merged_s[-1]}, {last_end})"
                    )
                if s == last_end:
                    merged_e[-1] = e
                    continue
            merged_s.append(s)
            merged_e.append(e)
        self._starts = merged_s
        self._ends = merged_e

    def insert(self, start: int, end: int) -> None:
        """Record ``[start, end)`` as busy (must not overlap existing).

        Touching neighbors are coalesced: the free set (and hence every
        ``earliest_free`` answer) is unchanged, but a class scheduled
        back-to-back stays a handful of maximal runs instead of one
        interval per job — which is what keeps the conflict scan short
        on dense classes.
        """
        starts, ends = self._starts, self._ends
        i = bisect.bisect_left(starts, start)
        joins_prev = i > 0 and ends[i - 1] == start
        joins_next = i < len(starts) and starts[i] == end
        if joins_prev and joins_next:
            ends[i - 1] = ends[i]
            del starts[i]
            del ends[i]
        elif joins_prev:
            ends[i - 1] = end
        elif joins_next:
            starts[i] = start
        else:
            starts.insert(i, start)
            ends.insert(i, end)

    def gaps(self, limit: int) -> Iterator[Tuple[int, int]]:
        """Maximal free runs ``[lo, hi)`` within ``[0, limit)``, in order.

        The complement of the busy runs, clipped to the horizon — the
        EPTAS reinsertion pass walks these to find free machine-layer
        cells without materializing an O(m·L) cell list.  Charges one
        scan step per busy run examined, like the linear probes above.
        """
        cursor = 0
        for start, end in zip(self._starts, self._ends):
            if cursor >= limit:
                break
            self.scan_steps += 1
            if start > cursor:
                yield cursor, min(start, limit)
            cursor = max(cursor, end)
        if cursor < limit:
            yield cursor, limit


class MachineFrontier:
    """Tournament tree over the per-machine frontier (completion ticks).

    Supports the queries the dispatch loops need, each O(log m):

    * :meth:`min_top` — the smallest frontier;
    * :meth:`leftmost_at_most` — the smallest machine *index* whose
      frontier is ``≤ x`` (the naive scan's tie-break winner);
    * :meth:`leftmost_active` — the smallest machine index not yet
      deactivated (the "first open machine" of a cursor walk).

    *Closed machines*: :meth:`deactivate` sets a leaf to ``+∞`` so every
    query skips it — the indexed equivalent of filtering a closed
    machine out of an open list.  Because leaf order is construction
    order, a frontier built over a machine *subset* (e.g. the
    3/2-approximation's ``M̄H`` list) answers *leftmost open machine of
    the subset with top ≤ x* directly.

    ``queries``/``updates`` count the O(log m) operations performed —
    the counting shim behind the step-count regression tests.
    """

    __slots__ = (
        "_size",
        "_tree",
        "num_machines",
        "active_count",
        "queries",
        "updates",
    )

    def __init__(
        self, num_machines: int, tops: Optional[Sequence[int]] = None
    ) -> None:
        size = 1
        while size < num_machines:
            size <<= 1
        self._size = size
        self.num_machines = num_machines
        self.active_count = num_machines
        self.queries = 0
        self.updates = 0
        tree = [_INF] * (2 * size)
        if tops is None:
            tree[size : size + num_machines] = [0] * num_machines
        else:
            tree[size : size + num_machines] = list(tops)
        # Build the internal mins level by level: one C-level
        # ``map(min, ...)`` over each pair-slice instead of a Python
        # loop over all ``size - 1`` nodes.
        lo = size
        while lo > 1:
            half = lo >> 1
            tree[half:lo] = map(
                min, tree[lo : 2 * lo : 2], tree[lo + 1 : 2 * lo : 2]
            )
            lo = half
        self._tree = tree

    def top(self, index: int) -> int:
        """Current frontier of one machine (``inf`` once deactivated)."""
        return self._tree[self._size + index]

    def is_active(self, index: int) -> bool:
        """Whether the machine still participates in queries."""
        return self._tree[self._size + index] is not _INF

    def min_top(self) -> int:
        """Smallest frontier over all active machines (``inf`` when
        none remain)."""
        self.queries += 1
        return self._tree[1]

    def leftmost_at_most(self, x: Union[int, float]) -> int:
        """Smallest active machine index with frontier ``≤ x`` (-1 when
        none).  ``x`` must be finite — deactivated leaves hold ``+∞``
        and are skipped by the comparison."""
        self.queries += 1
        tree = self._tree
        if tree[1] > x:
            return -1
        i = 1
        while i < self._size:
            i <<= 1
            if tree[i] > x:  # left subtree cannot reach ≤ x — go right
                i += 1
        return i - self._size

    def leftmost_active(self) -> int:
        """Smallest machine index not yet deactivated (-1 when none) —
        regardless of its frontier value."""
        self.queries += 1
        tree = self._tree
        if tree[1] is _INF:
            return -1
        i = 1
        while i < self._size:
            i <<= 1
            if tree[i] is _INF:  # left subtree fully deactivated
                i += 1
        return i - self._size

    def leftmost_min(self) -> int:
        """Smallest active machine index achieving the minimum frontier
        (-1 when none remain) — the indexed equivalent of
        ``min(range(m), key=tops.__getitem__)``, which is the tie-break
        every naive argmin scan resolves leftmost."""
        self.queries += 1
        tree = self._tree
        best = tree[1]
        if best is _INF:
            return -1
        i = 1
        while i < self._size:
            i <<= 1
            if tree[i] > best:  # min lives in the right subtree
                i += 1
        return i - self._size

    def _repair(self, i: int) -> None:
        tree = self._tree
        i >>= 1
        while i:
            v = min(tree[2 * i], tree[2 * i + 1])
            if tree[i] == v:
                break
            tree[i] = v
            i >>= 1

    def update(self, index: int, top: int) -> None:
        """Set one machine's frontier and repair the path to the root.

        Rejects deactivated machines — a frontier move on a closed
        machine is an algorithm bug, not a reactivation request.
        """
        if not 0 <= index < self.num_machines:
            raise IndexError(f"machine index {index} out of range")
        i = self._size + index
        if self._tree[i] is _INF:
            raise InvalidScheduleError(
                f"machine {index} is deactivated; cannot move its frontier"
            )
        self.updates += 1
        self._tree[i] = top
        self._repair(i)

    def deactivate(self, index: int) -> None:
        """Remove one machine from all queries (a closed machine).

        Idempotent; there is deliberately no ``activate`` — machine
        closure is permanent in every algorithm this kernel serves, and
        the monotonicity arguments behind the equivalence proofs rely
        on it.  Out-of-range indices (e.g. the ``-1`` a query returns
        for "none") raise instead of silently corrupting a tree node.
        """
        if not 0 <= index < self.num_machines:
            raise IndexError(f"machine index {index} out of range")
        i = self._size + index
        if self._tree[i] is _INF:
            return
        self.updates += 1
        self.active_count -= 1
        self._tree[i] = _INF
        self._repair(i)


class ClassSelectionHeap:
    """Lazy max-heap over ``(residual class load, job size, -job id)``.

    ``class_greedy`` repeatedly wants the unscheduled job maximizing that
    key.  Within one class the residual load is shared, so the class's
    best job is always the head of its jobs sorted by ``(-size, id)`` —
    one heap entry per *class head* suffices, keyed
    ``(-residual, -head size, head id)``.  Entries are validated against
    the live class state on pop; a stale entry (key no longer matching,
    e.g. after an external residual adjustment) is lazily re-pushed with
    its fresh key rather than rebuilt eagerly — stale keys are always
    ≥ fresh keys (residuals only decrease, heads only advance), so a
    stale entry surfaces no later than its true position and laziness
    never changes the pop order.
    """

    __slots__ = ("_heap", "_residual", "_queues", "_pos", "heap_pushes",
                 "stale_pops")

    def __init__(self, instance: Instance) -> None:
        self._residual: Dict[int, int] = dict(instance.class_sizes)
        self._queues: Dict[int, List[Job]] = {
            cid: sorted(members, key=lambda j: (-j.size, j.id))
            for cid, members in instance.classes.items()
        }
        self._pos: Dict[int, int] = {cid: 0 for cid in self._queues}
        self._heap: List[Tuple[int, int, int, int]] = [
            (-self._residual[cid], -queue[0].size, queue[0].id, cid)
            for cid, queue in self._queues.items()
        ]
        heapq.heapify(self._heap)
        self.heap_pushes = len(self._heap)
        self.stale_pops = 0

    def residual(self, class_id: int) -> int:
        """Residual (unscheduled) load of one class."""
        return self._residual[class_id]

    def pop(self) -> Optional[Job]:
        """Remove and return the job the naive ``max()`` would select;
        ``None`` once every job has been dispatched."""
        heap = self._heap
        while heap:
            neg_r, neg_s, jid, cid = heapq.heappop(heap)
            queue = self._queues[cid]
            pos = self._pos[cid]
            if pos >= len(queue):  # class exhausted — drop the entry
                continue
            head = queue[pos]
            r = self._residual[cid]
            if (-r, -head.size, head.id) != (neg_r, neg_s, jid):
                self.stale_pops += 1
                heapq.heappush(heap, (-r, -head.size, head.id, cid))
                self.heap_pushes += 1
                continue
            self._pos[cid] = pos + 1
            self._residual[cid] = r - head.size
            if pos + 1 < len(queue):
                nxt = queue[pos + 1]
                heapq.heappush(
                    heap, (-self._residual[cid], -nxt.size, nxt.id, cid)
                )
                self.heap_pushes += 1
            return head
        return None

    def __iter__(self) -> Iterator[Job]:
        """Drain the heap in selection order."""
        while (job := self.pop()) is not None:
            yield job


class DispatchState:
    """Placement engine shared by the dispatching baselines.

    Wraps a :class:`~repro.core.machine.MachinePool` with a
    :class:`MachineFrontier` and one :class:`ClassBusy` per class, and
    places each job exactly where the naive machine scan would.
    """

    def __init__(self, pool: "MachinePool", class_ids: Iterable[int]) -> None:
        self.pool = pool
        self.den = pool.scale.denominator
        # Seed the frontier from the pool's actual tops, so wrapping a
        # pool that already carries placements stays in sync.  (The busy
        # index still starts empty: pre-existing placements of a tracked
        # class are the caller's responsibility.)
        self.frontier = MachineFrontier(
            len(pool), tops=[m.top_ticks for m in pool.machines]
        )
        self.busy: Dict[int, ClassBusy] = {
            cid: ClassBusy() for cid in class_ids
        }
        self.placements = 0

    def place(self, job: Job) -> Tuple[int, int]:
        """Place one job at the earliest conflict-free position; returns
        its ``(start_tick, machine_index)``."""
        busy = self.busy[job.class_id]
        size = job.size * self.den
        frontier = self.frontier
        start = busy.earliest_free(frontier.min_top(), size)
        idx = frontier.leftmost_at_most(start)
        end = self.pool[idx].append_job_at_ticks(job, start)
        frontier.update(idx, end)
        busy.insert(start, start + size)
        self.placements += 1
        return start, idx

    def place_block(self, jobs: Sequence[Job]) -> Tuple[int, int]:
        """Place ``jobs`` contiguously on the least-loaded machine
        (smallest ``(frontier, index)``), without touching the class
        busy index — for merge-LPT-style whole-class placement, where
        the class lives on one machine and can never conflict."""
        t = self.frontier.min_top()
        idx = self.frontier.leftmost_at_most(t)
        end = self.pool[idx].append_block_at_ticks(jobs, t)
        self.frontier.update(idx, end)
        self.placements += len(jobs)
        return t, idx

    def counters(self) -> Dict[str, int]:
        """Work counters — always-available instrumentation.

        Born as the step-count tests' counting shim, these are now also
        the kernel metrics the observability layer (:mod:`repro.obs`)
        promotes into traces.
        """
        return {
            "placements": self.placements,
            "scan_steps": sum(
                b.scan_steps for b in self.busy.values()
            ),
            "busy_intervals": sum(len(b) for b in self.busy.values()),
            "frontier_queries": self.frontier.queries,
            "frontier_updates": self.frontier.updates,
        }


class ClassReservations:
    """Per-class :class:`ClassBusy` map for block placements.

    One shared instance travels through an algorithm *and its
    subroutines* — `Algorithm_3/2` hands its map to the no-huge engine
    so that (a) every placement of a split class is conflict-scanned
    against the parts placed by the other layer, and (b) the step-5/10
    rotation query ("where did ``c''`` land?") is answered from the
    class's busy runs instead of a scan over all engine machines.

    Staleness invariant: operations that *move* already placed jobs
    (``delay_to_start_at``, ``shift_all_to_end_at``) do not rewrite the
    moved classes' reservations.  That is sound because the algorithms
    only ever slide *fully placed* classes (a class receives no further
    reservations once another class's part is laid over it), so a
    class's reservations stay accurate exactly as long as it can still
    be placed — which is when the conflict scan matters.

    Validation is **deferred**: :meth:`reserve` is an O(1) append to a
    per-class pending queue, and the conflict scan runs as an amortized
    batch merge (:meth:`ClassBusy.merge_reserve`) the first time the
    class's busy runs are actually read — :meth:`of` flushes one class,
    :meth:`flush`/:meth:`counters` flush all of them (every algorithm
    flushes before building its schedule).  The accept/reject decisions
    are identical to eager per-placement validation (a conflict exists
    iff some pair of reserved intervals overlaps), but the scan no
    longer sits on the placement hot path — this is what closes the
    5/3 / no-huge parity gap against the unvalidated references.
    """

    __slots__ = ("busy", "count", "_pending", "_solo")

    def __init__(self, class_ids: Iterable[int] = ()) -> None:
        # Busy indexes are created on first *read* (``of``) or second
        # reservation: the block algorithms reserve exactly once for
        # most classes and never look at the runs again, so the
        # dominant life cycle of a class is one ``(start, end)`` tuple
        # in ``_solo`` — no :class:`ClassBusy` allocation, no pending
        # queue, no merge.  A lone interval cannot conflict (``reserve``
        # already drops empty blocks), so deferring it loses no
        # validation.  ``class_ids`` is accepted for signature
        # stability (callers pass their class map).
        self.busy: Dict[int, ClassBusy] = {}
        self._pending: Dict[int, List[Tuple[int, int]]] = {}
        self._solo: Dict[int, Tuple[int, int]] = {}
        self.count = 0

    def of(self, cid: int) -> ClassBusy:
        """The busy index of one class (created on demand).

        Flushes the class's pending reservations first, so callers
        always observe fully validated busy runs (the step-5/10
        rotation of `Algorithm_3/2` reads ``first_start``/``last_end``
        mid-run through this path).
        """
        self._flush_class(cid)
        index = self.busy.get(cid)
        if index is None:
            index = self.busy[cid] = ClassBusy()
            solo = self._solo.pop(cid, None)
            if solo is not None:
                index.seed_run(*solo)
        return index

    def reserve(self, cid: int, start: int, end: int) -> None:
        """Queue a reservation of ``[start, end)`` for class ``cid``
        (no-op when the block is empty); the conflict scan runs at the
        next flush of the class and raises there on overlap."""
        if end <= start:
            return
        self.count += 1
        solo = self._solo
        if cid in solo or cid in self.busy or cid in self._pending:
            queue = self._pending.get(cid)
            if queue is None:
                queue = self._pending[cid] = []
            queue.append((start, end))
        else:
            solo[cid] = (start, end)

    def _flush_class(self, cid: int) -> None:
        pending = self._pending.pop(cid, None)
        if pending:
            index = self.busy.get(cid)
            if index is None:
                index = self.busy[cid] = ClassBusy()
                solo = self._solo.pop(cid, None)
                if solo is not None:
                    index.seed_run(*solo)
            index.merge_reserve(pending)

    def flush(self) -> None:
        """Run the batch conflict scan for every pending class (in
        class-id order, so a multi-class conflict raises
        deterministically); raises on the first overlap.  Solo classes
        hold one interval and stay unmaterialized — there is nothing
        to scan them against."""
        if self._pending:
            for cid in sorted(self._pending):
                self._flush_class(cid)

    def counters(self) -> Dict[str, int]:
        """Work counters (the step-count tests' counting shim)."""
        self.flush()
        # An unmaterialized solo class counts exactly as its
        # materialized form would: one run, one scan step.
        n_solo = len(self._solo)
        return {
            "reservations": self.count,
            "scan_steps": n_solo
            + sum(b.scan_steps for b in self.busy.values()),
            "busy_intervals": n_solo
            + sum(len(b) for b in self.busy.values()),
        }


def place_reserved(
    machine: "MachineState",
    cid: int,
    jobs: Sequence[Job],
    start: int,
    reservations: ClassReservations,
) -> int:
    """The one block-placement path of the approximation algorithms:
    machine placement plus class reservation; returns the end tick.

    A block landing at or past the machine's frontier takes the O(1)
    append fast path — identical outcome, since nothing at or above the
    frontier can conflict.
    """
    if start >= machine.top_ticks:
        end = machine.append_block_at_ticks(jobs, start)
    else:
        end = machine.place_block_at_ticks(jobs, start)
    reservations.reserve(cid, start, end)
    return end


def place_reserved_ending(
    machine: "MachineState",
    cid: int,
    jobs: Sequence[Job],
    end: int,
    reservations: ClassReservations,
) -> int:
    """Place ``jobs`` of class ``cid`` so the last ends at tick ``end``
    and reserve the interval; returns the start tick."""
    start = machine.place_block_ending_at_ticks(jobs, end)
    reservations.reserve(cid, start, end)
    return start


class BlockDispatchState:
    """Block-placement engine for the approximation algorithms.

    The paper's `Algorithm_5/3` / `Algorithm_3/2` / `Algorithm_no_huge`
    place *blocks* (whole classes or their lemma parts) instead of
    dispatching single jobs, and their pre-kernel loops walked the
    machine list for "the first open machine with load < T".  This
    engine gives them the kernel's indexed equivalents:

    * a **load-keyed** :class:`MachineFrontier` over the pool — leaf
      ``i`` holds ``load_i · den(T)`` so :meth:`current_light` answers
      *leftmost open machine with load < T* in O(log m), with
      :meth:`close` deactivating a leaf exactly where the old cursors
      closed a machine;
    * a :class:`ClassReservations` map — every block placement reserves
      its interval via :meth:`ClassBusy.reserve`, so the split lemmas'
      cross-machine disjointness claims run through the same
      conflict-scan path as the dispatching baselines.
    """

    def __init__(
        self,
        pool: "MachinePool",
        class_ids: Iterable[int],
        T: Tick,
        reservations: Optional[ClassReservations] = None,
    ) -> None:
        self.pool = pool
        # repro: allow[REP001] once-per-engine grid derivation: T enters exact, ticks leave
        frac = Fraction(T)
        self._T_num = frac.numerator
        self._T_den = frac.denominator
        self.frontier = MachineFrontier(
            len(pool),
            tops=[m.load * self._T_den for m in pool.machines],
        )
        self.reservations = (
            reservations
            if reservations is not None
            else ClassReservations(class_ids)
        )
        self.placements = 0
        self._cursor_machine: Optional["MachineState"] = None
        self._dirty: Optional["MachineState"] = None  # stale frontier leaf

    # ------------------------------------------------------------------ #
    # Machine selection (the cursor replacement)
    # ------------------------------------------------------------------ #
    def current_light(self) -> "MachineState":
        """Leftmost open machine with ``load < T`` — the machine every
        pre-kernel cursor walk would stop at.  Exhausting the pool (all
        machines closed or at load ``≥ T``) raises
        :class:`~repro.core.errors.CapacityError`, mirroring
        :meth:`~repro.core.machine.MachinePool.take_fresh` on an
        exhausted pool.

        The last answer is cached: loads only grow and closure is
        permanent, so machines left of a once-current machine can never
        become eligible again — while the cached machine stays open and
        light it *is* still the leftmost.  The tree query only runs
        when the cursor machine closes or fills, after flushing the one
        possibly-stale leaf (see :meth:`_sync`)."""
        machine = self._cursor_machine
        if (
            machine is not None
            and not machine.closed
            and machine.load * self._T_den < self._T_num
        ):
            return machine
        self._flush_dirty()
        idx = self.frontier.leftmost_at_most(self._T_num - 1)
        if idx < 0:
            raise CapacityError("machine pool exhausted")
        machine = self.pool[idx]
        self._cursor_machine = machine
        return machine

    def take_fresh(self) -> "MachineState":
        """Pull a never-used machine from the pool (frontier already in
        sync: fresh machines carry load 0)."""
        return self.pool.take_fresh()

    def close(self, machine: "MachineState") -> None:
        """Close ``machine`` and remove it from all frontier queries
        (the kernel side of the single closure path)."""
        from repro.core.machine import close_machine

        if machine is self._dirty:
            # Deactivation overwrites the leaf; the stale top is moot.
            self._dirty = None
        close_machine(machine, self.frontier)

    # ------------------------------------------------------------------ #
    # Block placement (machine op + class reservation + frontier sync)
    # ------------------------------------------------------------------ #
    def _sync(self, machine: "MachineState") -> None:
        # Lazy: remember the one machine whose frontier leaf is stale
        # and push it to the tree only when a query needs the tree
        # (current_light cache miss) or another machine goes stale.
        # Consecutive placements on the cursor machine — the dominant
        # pattern of the block algorithms — cost one tree update total.
        dirty = self._dirty
        if dirty is machine:
            return
        if dirty is not None:
            self._flush_dirty()
        self._dirty = machine

    def _flush_dirty(self) -> None:
        machine = self._dirty
        if machine is not None:
            self._dirty = None
            if self.frontier.is_active(machine.index):
                self.frontier.update(
                    machine.index, machine.load * self._T_den
                )

    def place_block(
        self, machine: "MachineState", cid: int, jobs: Sequence[Job], start: int
    ) -> int:
        """Place ``jobs`` of class ``cid`` consecutively at tick
        ``start``; returns the end tick."""
        if start >= machine.top_ticks:
            end = machine.append_block_at_ticks(jobs, start)
        else:
            end = machine.place_block_at_ticks(jobs, start)
        self.reservations.reserve(cid, start, end)
        self._sync(machine)
        self.placements += len(jobs)
        return end

    def place_block_ending(
        self, machine: "MachineState", cid: int, jobs: Sequence[Job], end: int
    ) -> int:
        """Place ``jobs`` of class ``cid`` so the last ends at tick
        ``end``; returns the start tick."""
        start = place_reserved_ending(
            machine, cid, jobs, end, self.reservations
        )
        self._sync(machine)
        self.placements += len(jobs)
        return start

    def append_block(
        self, machine: "MachineState", cid: int, jobs: Sequence[Job]
    ) -> int:
        """Place ``jobs`` of class ``cid`` right after the machine's
        top (always the O(1) fast path); returns the end tick."""
        start = machine.top_ticks
        end = machine.append_block_at_ticks(jobs, start)
        self.reservations.reserve(cid, start, end)
        self._sync(machine)
        self.placements += len(jobs)
        return end

    def delay_to_start(self, machine: "MachineState", start: int) -> None:
        """Shift the machine's content so its first job starts at tick
        ``start`` (reservations of the moved classes go stale — see
        :class:`ClassReservations` for why that is sound)."""
        machine.delay_to_start_at_ticks(start)
        self._sync(machine)

    def counters(self) -> Dict[str, int]:
        """Work counters (the step-count tests' counting shim)."""
        self._flush_dirty()
        return {
            "placements": self.placements,
            "frontier_queries": self.frontier.queries,
            "frontier_updates": self.frontier.updates,
            **self.reservations.counters(),
        }
