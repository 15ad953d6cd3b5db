"""Per-solve incremental state for the EPTAS binary search.

The dual-approximation driver (:mod:`repro.ptas.eptas`) decides a
sequence of makespan guesses that are highly self-similar: the instance
never changes, the layer count ``L = ⌈(1+2ε)/(εδ)⌉`` depends only on the
chosen ``δ``, and the per-class window demands ``⌈p/(εδT)⌉`` move only
when a guess crosses a rounding boundary.  This module caches everything
guess-independent once per solve:

* :class:`InstanceProfile` — sorted size arrays and prefix sums, so the
  parameter bands (:func:`~repro.ptas.params.choose_params`) and the
  class splits (:func:`~repro.ptas.simplify.simplify`) are bisections
  instead of full scans at every guess;
* a **window-IP outcome memo** keyed by the rounded instance's
  *signature* ``(L, m, per-class demands)`` — feasibility of the window
  IP depends on nothing else, so two guesses with equal signatures share
  one verdict;
* the most recent feasible assignment as a branch-order ``hint`` for
  the backtracking backend.

On the MILP backend a fresh signature is decided in two steps: the
greedy pack (:func:`~repro.ptas.ip.greedy_pack`, an ``eptas.pack``
span) accepts the guess when its assignment passes
:func:`~repro.ptas.ip.assignment_satisfies`; otherwise HiGHS gives the
verdict with ``compress=False`` (an ``eptas.ip_solve`` span).  The
binary search only needs verdicts, so the compressed objective — the
expensive part of a HiGHS solve — is paid once per solve, in
:meth:`GuessContext.finalize`.

Canonicality: a packed, uncompressed or *hinted* backtracking
assignment may differ from what a cold solve returns, so such bundles
are marked non-canonical and :meth:`GuessContext.finalize` re-solves
the winning guess cold (``compress=True`` on the MILP backend).  Every
verdict is exact, so the search visits the same guesses as the
rebuild-per-guess driver (:mod:`repro.algorithms.reference.eptas_rebuild`)
and the realized schedule is bit-for-bit its schedule, which the
equivalence harness asserts.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.core.errors import InfeasibleError
from repro.core.instance import Instance, Job
from repro.obs import get_tracer
from repro.ptas import ip
from repro.ptas.ip import (
    _HAVE_MILP,
    WindowAssignment,
    assignment_satisfies,
    greedy_pack,
    solve_window_ip,
)
from repro.ptas.layers import RoundedInstance, round_instance
from repro.ptas.params import PtasParams, choose_params
from repro.ptas.simplify import SimplifiedInstance, simplify
from repro.util.rational import Number

__all__ = [
    "GuessBundle",
    "GuessContext",
    "InstanceProfile",
    "rounded_signature",
]

#: Hashable identity of a rounded instance: everything the window IP
#: sees.  Two guesses with equal signatures have *the same* IP.
Signature = Tuple[int, int, Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]]


def rounded_signature(rounded: RoundedInstance) -> Signature:
    """The ``(L, m, per-class window demands)`` identity of ``rounded``."""
    return (
        rounded.grid.num_layers,
        rounded.num_machines,
        tuple(
            (cid, tuple(sorted(counts.items())))
            for cid, counts in sorted(rounded.unit_counts.items())
        ),
    )


def _ifloor(x: Number) -> int:
    """``⌊x⌋`` as an int (exact for Fraction/int thresholds)."""
    return math.floor(x)


class InstanceProfile:
    """Guess-independent sorted views of one instance.

    Job sizes are integers, so every threshold test ``p ≤ x`` against a
    rational ``x`` equals ``p ≤ ⌊x⌋`` — which turns the band totals of
    :func:`~repro.ptas.params.choose_params` and the big/medium/small
    splits of :func:`~repro.ptas.simplify.simplify` into bisections over
    these arrays.  Built once per solve, shared by every guess.
    """

    __slots__ = ("sizes", "prefix", "class_jobs", "class_sizes", "class_prefix")

    def __init__(self, instance: Instance) -> None:
        self.sizes: List[int] = sorted(job.size for job in instance.jobs)
        self.prefix: List[int] = _prefix_sums(self.sizes)
        # Per class: members stably sorted by size (ties keep declaration
        # order), their size array, and its prefix sums.
        self.class_jobs: Dict[int, List[Job]] = {}
        self.class_sizes: Dict[int, List[int]] = {}
        self.class_prefix: Dict[int, List[int]] = {}
        for cid, members in instance.classes.items():
            jobs = sorted(members, key=lambda job: job.size)
            self.class_jobs[cid] = jobs
            sizes = [job.size for job in jobs]
            self.class_sizes[cid] = sizes
            self.class_prefix[cid] = _prefix_sums(sizes)

    def band(self, lo: Number, hi: Number) -> int:
        """Total size of jobs with ``p_j ∈ (lo, hi]`` (== ``job_band``)."""
        i = bisect.bisect_right(self.sizes, _ifloor(lo))
        j = bisect.bisect_right(self.sizes, _ifloor(hi))
        return self.prefix[j] - self.prefix[i]

    def class_band(self, lo: Number, hi: Number) -> int:
        """The class-band quantity of ``choose_params`` condition 2."""
        hi_floor = _ifloor(hi)
        total = 0
        for cid, sizes in self.class_sizes.items():
            below = self.class_prefix[cid][bisect.bisect_right(sizes, hi_floor)]
            if lo < below <= hi:
                total += below
        return total

    def split_class(
        self, cid: int, params: PtasParams, T: Number
    ) -> Tuple[List[Job], List[Job], List[Job]]:
        """``(big, medium, small)`` members of one class for guess ``T``.

        Same sets as the scan-based split (``is_big``/``is_medium``/
        ``is_small``), as contiguous slices of the size-sorted members.
        """
        jobs = self.class_jobs[cid]
        sizes = self.class_sizes[cid]
        i_small = bisect.bisect_right(sizes, _ifloor(params.mu * T))
        i_big = bisect.bisect_right(sizes, _ifloor(params.delta * T))
        return jobs[i_big:], jobs[i_small:i_big], jobs[:i_small]


def _prefix_sums(values: List[int]) -> List[int]:
    prefix = [0]
    acc = 0
    for v in values:
        acc += v
        prefix.append(acc)
    return prefix


@dataclass
class GuessBundle:
    """Everything produced for one feasible makespan guess.

    ``canonical`` records whether ``assignment`` is exactly what a cold
    (hint-free) solve of this guess's window IP returns; the driver only
    realizes canonical bundles (see :meth:`GuessContext.finalize`).
    """

    T: int
    params: PtasParams
    simplified: SimplifiedInstance
    rounded: RoundedInstance
    assignment: WindowAssignment
    canonical: bool = True


class GuessContext:
    """Warm-start state shared by every guess of one EPTAS solve."""

    def __init__(
        self,
        instance: Instance,
        epsilon: Fraction,
        mode: str,
        *,
        ip_backend: str = "auto",
        max_layers: int = 4000,
    ) -> None:
        self.instance = instance
        self.epsilon = Fraction(epsilon)
        self.mode = mode
        self.ip_backend = ip_backend
        self.max_layers = max_layers
        self.profile = InstanceProfile(instance)
        #: Guess value → decided bundle (``None`` = infeasible); the
        #: binary search never pays for the same ``T`` twice.
        self.decided: Dict[int, Optional[GuessBundle]] = {}
        #: IP signature → (assignment | None, canonical flag).
        self._outcomes: Dict[Signature, Tuple[Optional[WindowAssignment], bool]] = {}
        #: Most recent feasible assignment — the backtracking hint.
        self._warm: Optional[WindowAssignment] = None
        self.counters: Dict[str, int] = {
            "guesses": 0,
            "guess_memo_hits": 0,
            "signature_hits": 0,
            "pack_accepts": 0,
            "ip_solves": 0,
            "hinted_solves": 0,
            "final_resolves": 0,
        }

    # ------------------------------------------------------------------ #
    def decide(self, T: int) -> Optional[GuessBundle]:
        """Decide one makespan guess, reusing every cached artifact.

        Returns the bundle for a feasible guess, ``None`` for an
        infeasible one; memoized per ``T`` and per IP signature.
        """
        if T in self.decided:
            self.counters["guess_memo_hits"] += 1
            return self.decided[T]
        self.counters["guesses"] += 1
        bundle = self._decide_fresh(T)
        self.decided[T] = bundle
        return bundle

    def _decide_fresh(self, T: int) -> Optional[GuessBundle]:
        tracer = get_tracer()
        try:
            with tracer.span("eptas.classify", T=T):
                params = choose_params(
                    self.instance, T, self.epsilon, self.mode,
                    profile=self.profile,
                )
                simplified = simplify(
                    self.instance, T, params, profile=self.profile
                )
                rounded = round_instance(
                    simplified, max_layers=self.max_layers
                )
        except InfeasibleError:
            return None

        signature = rounded_signature(rounded)
        cached = self._outcomes.get(signature)
        if cached is not None:
            assignment, canonical = cached
            # The signature determines the IP completely, but the reuse
            # is still certificate-checked — a mismatch would mean the
            # signature lost information, which must fail loudly.
            if assignment is not None and not assignment_satisfies(
                rounded, assignment
            ):  # pragma: no cover - signature is exact by construction
                raise AssertionError(
                    "cached window assignment does not satisfy an "
                    "identical IP signature"
                )
            self.counters["signature_hits"] += 1
            if assignment is None:
                return None
            self._warm = assignment
            return GuessBundle(
                T=T,
                params=params,
                simplified=simplified,
                rounded=rounded,
                assignment=assignment,
                canonical=canonical,
            )

        decide = (
            self._decide_milp
            if self._resolved_backend() == "milp"
            else self._decide_backtracking
        )
        try:
            assignment, canonical = decide(rounded, T)
        except InfeasibleError:
            self._outcomes[signature] = (None, True)
            return None
        self._outcomes[signature] = (assignment, canonical)
        self._warm = assignment
        return GuessBundle(
            T=T,
            params=params,
            simplified=simplified,
            rounded=rounded,
            assignment=assignment,
            canonical=canonical,
        )

    def _decide_milp(
        self, rounded: RoundedInstance, T: int
    ) -> Tuple[WindowAssignment, bool]:
        """A certified greedy pack, else the uncompressed HiGHS verdict
        (raises :class:`InfeasibleError`).  Either assignment is
        non-canonical: :meth:`finalize` re-solves the winner compressed."""
        tracer = get_tracer()
        layers = rounded.grid.num_layers
        with tracer.span("eptas.pack", T=T, layers=layers):
            packed = greedy_pack(rounded)
            certified = packed is not None and assignment_satisfies(
                rounded, packed
            )
        if certified:
            self.counters["pack_accepts"] += 1
            return packed, False
        self.counters["ip_solves"] += 1
        with tracer.span("eptas.ip_solve", T=T, layers=layers):
            # Looked up on the module at call time, so a wrapper
            # installed on ``ip.solve_window_ip_milp`` sees every call.
            return ip.solve_window_ip_milp(rounded, compress=False), False

    def _decide_backtracking(
        self, rounded: RoundedInstance, T: int
    ) -> Tuple[WindowAssignment, bool]:
        """A backtracking verdict, hinted by the last feasible assignment.

        No pack here: on this backend :class:`InfeasibleError` also means
        "node budget exhausted", so a certified pack could accept a guess
        that the rebuild reference rejects.  A hinted solve may find a
        non-canonical (still feasible) assignment.
        """
        hinted = self._warm is not None
        self.counters["ip_solves"] += 1
        if hinted:
            self.counters["hinted_solves"] += 1
        with get_tracer().span(
            "eptas.ip_solve",
            T=T,
            layers=rounded.grid.num_layers,
            hinted=hinted,
        ):
            assignment = solve_window_ip(
                rounded, backend=self.ip_backend, hint=self._warm
            )
        return assignment, not hinted

    def finalize(self, bundle: GuessBundle) -> GuessBundle:
        """Make the winning bundle canonical before realization.

        Intermediate guesses only need feasibility *verdicts*, so the
        pack, uncompressed HiGHS and warm starts may return any feasible
        assignment; the schedule the driver realizes must be the cold
        solve's.  Re-solves hint-free (compressed, on the MILP backend)
        when (and only when) the bundle is non-canonical.
        """
        if bundle.canonical:
            return bundle
        self.counters["final_resolves"] += 1
        with get_tracer().span(
            "eptas.ip_solve", T=bundle.T, final_resolve=True
        ):
            assignment = solve_window_ip(
                bundle.rounded, backend=self.ip_backend
            )
        self._outcomes[rounded_signature(bundle.rounded)] = (assignment, True)
        self._warm = assignment
        finalized = replace(bundle, assignment=assignment, canonical=True)
        self.decided[bundle.T] = finalized
        return finalized

    # ------------------------------------------------------------------ #
    def _resolved_backend(self) -> str:
        if self.ip_backend == "auto":
            return "milp" if _HAVE_MILP else "backtracking"
        return self.ip_backend

    def stats(self) -> Dict[str, int]:
        """A copy of the counters, for the result's stats."""
        return dict(self.counters)
