"""Tests for the incremental EPTAS machinery (PR 8).

Three layers:

* the :class:`~repro.ptas.context.InstanceProfile` bisection views must
  answer the parameter-band and class-split queries *identically* to the
  full scans they replace;
* the warm-start plumbing — hint-ordered backtracking, the certified
  greedy pack, the uncompressed HiGHS verdicts, the signature memo —
  must never change a solver verdict or the final (canonical)
  assignment;
* the full incremental driver must be bit-for-bit the preserved
  rebuild-per-guess reference on whole solves (the equivalence-harness
  contract), with the augmentation mode validated against the augmented
  instance.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.core.bounds import lower_bound_int
from repro.core.errors import InfeasibleError
from repro.core.validate import validate_schedule
from repro.ptas import context as context_module
from repro.ptas import ip as ip_module
from repro.ptas.context import (
    GuessContext,
    InstanceProfile,
    rounded_signature,
)
from repro.ptas.eptas import (
    augmented_instance,
    eptas_guess_feasible,
    schedule_eptas,
)
from repro.ptas.ip import (
    assignment_satisfies,
    greedy_pack,
    solve_window_ip,
    solve_window_ip_backtracking,
)
from repro.ptas.layers import round_instance
from repro.ptas.params import _class_band, choose_params, job_band
from repro.ptas.simplify import simplify
from tests.equivalence import assert_same_outcome, run_and_capture
from tests.markers import needs_milp
from tests.strategies import instances

EPS = Fraction(1, 2)
#: The incremental-vs-rebuild and pack tests run at ε = 1/2 and at the
#: default ε = 2/5.
EPSILONS = [Fraction(1, 2), Fraction(2, 5)]


def _epsilon_id(eps):
    return f"epsilon={eps}"


def _guess_range(inst):
    """A few makespan guesses spanning the instance's search range."""
    from repro.algorithms.three_halves import schedule_three_halves

    import math

    lb = max(lower_bound_int(inst), 1)
    ub = max(math.ceil(schedule_three_halves(inst).schedule.makespan), lb)
    mid = (lb + ub) // 2
    return sorted({lb, mid, ub})


class TestInstanceProfile:
    @given(instances(max_machines=4, max_classes=6, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_band_queries_match_scans(self, inst):
        if not inst.num_jobs:
            return
        profile = InstanceProfile(inst)
        for T in _guess_range(inst):
            for i in (1, 2, 3):
                delta = EPS**i
                mu = EPS**2 * delta
                lo, hi = mu * T, delta * T
                assert profile.band(lo, hi) == job_band(inst, lo, hi)
                assert profile.class_band(lo, hi) == _class_band(
                    inst, lo, hi
                )

    @given(instances(max_machines=4, max_classes=6, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_split_class_matches_predicates(self, inst):
        if not inst.num_jobs:
            return
        profile = InstanceProfile(inst)
        for T in _guess_range(inst):
            params = choose_params(inst, T, EPS)
            for cid, members in inst.classes.items():
                bigs, mediums, smalls = profile.split_class(cid, params, T)
                assert {j.id for j in bigs} == {
                    j.id for j in members if params.is_big(j.size, T)
                }
                assert {j.id for j in mediums} == {
                    j.id for j in members if params.is_medium(j.size, T)
                }
                assert {j.id for j in smalls} == {
                    j.id for j in members if params.is_small(j.size, T)
                }

    @given(instances(max_machines=4, max_classes=6, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_profile_hooks_change_nothing(self, inst):
        """choose_params and simplify produce identical parameters,
        group sets and loads with and without the profile."""
        if not inst.num_jobs:
            return
        profile = InstanceProfile(inst)
        for T in _guess_range(inst):
            scan_params = choose_params(inst, T, EPS)
            fast_params = choose_params(inst, T, EPS, profile=profile)
            assert scan_params == fast_params
            scan = simplify(inst, T, scan_params)
            fast = simplify(inst, T, fast_params, profile=profile)
            for attr in (
                "big_jobs",
                "placeholder_small",
                "medium_clumps",
                "removed_classes",
                "small_clumps_band",
                "small_clumps_tiny",
            ):
                a = getattr(scan, attr)
                b = getattr(fast, attr)
                assert {
                    cid: {j.id for j in jobs} for cid, jobs in a.items()
                } == {
                    cid: {j.id for j in jobs} for cid, jobs in b.items()
                }, attr


def _rounded_at(inst, T, eps=EPS, mode="augmentation"):
    params = choose_params(inst, T, eps, mode)
    return round_instance(simplify(inst, T, params))


def _solvable(inst):
    """A rounded instance at the 3/2 bound (feasible there, Theorem 14)."""
    return _rounded_at(inst, _guess_range(inst)[-1])


class TestAssignmentSatisfies:
    def test_accepts_solver_output(self):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2]], 3
        )
        rounded = _solvable(inst)
        assignment = solve_window_ip(rounded, backend="backtracking")
        assert assignment_satisfies(rounded, assignment)

    def test_rejects_corrupted_assignment(self):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2]], 3
        )
        rounded = _solvable(inst)
        assignment = solve_window_ip(rounded, backend="backtracking")
        cid = next(iter(assignment.windows))
        tampered = {
            c: list(ws) for c, ws in assignment.windows.items()
        }
        # Duplicate one window: per-(cid, u) counts no longer match.
        tampered[cid] = tampered[cid] + [tampered[cid][0]]
        broken = type(assignment)(windows=tampered)
        assert not assignment_satisfies(rounded, broken)

    def test_rejects_wrong_instance(self):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2]], 3
        )
        rounded = _solvable(inst)
        assignment = solve_window_ip(rounded, backend="backtracking")
        other = _rounded_at(inst, _guess_range(inst)[0])
        if rounded_signature(other) != rounded_signature(rounded):
            assert not assignment_satisfies(other, assignment)


class TestWarmStartedSolvers:
    @given(instances(max_machines=3, max_classes=5, max_size=10))
    @settings(max_examples=15, deadline=None)
    def test_hint_preserves_backtracking_verdict(self, inst):
        """A hint reorders the branch exploration but never changes the
        feasible/infeasible verdict (the candidate *set* per node is
        unchanged, so the search stays complete)."""
        if not inst.num_jobs:
            return
        guesses = _guess_range(inst)
        hint = None
        for T in reversed(guesses):
            try:
                rounded = _rounded_at(inst, T)
            except InfeasibleError:
                continue
            cold = run_and_capture(
                lambda _i: solve_window_ip_backtracking(rounded), inst
            )
            warm = run_and_capture(
                lambda _i: solve_window_ip_backtracking(
                    rounded, hint=hint
                ),
                inst,
            )
            assert cold.raised == warm.raised
            if not warm.raised:
                assert assignment_satisfies(rounded, warm.result)
                hint = warm.result


class TestGuessContext:
    def _ctx(self, inst, backend="backtracking"):
        return GuessContext(
            inst, EPS, "augmentation", ip_backend=backend
        )

    def test_decide_memoizes_per_guess(self):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2]], 3
        )
        ctx = self._ctx(inst)
        T = _guess_range(inst)[-1]
        first = ctx.decide(T)
        again = ctx.decide(T)
        assert again is first
        assert ctx.counters["guesses"] == 1
        assert ctx.counters["guess_memo_hits"] == 1
        assert ctx.counters["ip_solves"] == 1

    def test_signature_reuse_skips_solves(self):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2]], 3
        )
        ctx = self._ctx(inst)
        guesses = _guess_range(inst)
        bundles = {T: ctx.decide(T) for T in reversed(guesses)}
        # Any two guesses with equal signatures must have shared a solve.
        sigs = {
            T: rounded_signature(b.rounded)
            for T, b in bundles.items()
            if b is not None
        }
        distinct = len(set(sigs.values()))
        assert ctx.counters["ip_solves"] <= distinct + (
            len(bundles) - len(sigs)
        )

    def test_matches_cold_guess_decisions(self):
        """ctx.decide verdicts equal the context-free cold path for every
        guess in the search range."""
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2], [1, 1]], 2
        )
        ctx = self._ctx(inst)
        lo = _guess_range(inst)[0]
        hi = _guess_range(inst)[-1]
        for T in range(hi, lo - 1, -1):
            warm = ctx.decide(T)
            cold = eptas_guess_feasible(
                inst, T, EPS, "augmentation", ip_backend="backtracking"
            )
            assert (warm is None) == (cold is None), T
            if warm is not None:
                assert assignment_satisfies(
                    warm.rounded, warm.assignment
                )

    def test_finalize_makes_bundle_canonical(self):
        """A hinted (non-canonical) winning bundle re-solves cold in
        finalize and then equals the context-free solve exactly."""
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2], [1, 1]], 2
        )
        ctx = self._ctx(inst)
        guesses = _guess_range(inst)
        bundle = None
        for T in reversed(guesses):
            candidate = ctx.decide(T)
            if candidate is not None:
                bundle = candidate
        assert bundle is not None
        final = ctx.finalize(bundle)
        assert final.canonical
        cold = eptas_guess_feasible(
            inst, bundle.T, EPS, "augmentation",
            ip_backend="backtracking",
        )
        assert final.assignment.windows == cold.assignment.windows
        # Finalizing an already-canonical bundle is a no-op.
        assert ctx.finalize(final) is final


class TestGreedyPack:
    @pytest.mark.parametrize("eps", EPSILONS, ids=_epsilon_id)
    @given(inst=instances(max_machines=4, max_classes=6, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_every_pack_is_certified(self, inst, eps):
        """A returned pack is a feasible assignment of the IP it packed."""
        if not inst.num_jobs:
            return
        for T in _guess_range(inst):
            try:
                rounded = _rounded_at(inst, T, eps)
            except InfeasibleError:
                continue
            packed = greedy_pack(rounded)
            if packed is not None:
                assert assignment_satisfies(rounded, packed)


def _agrees_with_rebuild(inst, mode, eps, backend):
    """Solve with the incremental driver and the rebuild reference;
    require identical outcomes and return the incremental one."""
    from repro.algorithms.reference import reference_eptas

    incremental = run_and_capture(
        lambda i: schedule_eptas(
            i, epsilon=eps, mode=mode, ip_backend=backend
        ),
        inst,
    )
    rebuild = run_and_capture(
        lambda i: reference_eptas(
            i, epsilon=eps, mode=mode, ip_backend=backend
        ),
        inst,
    )
    assert_same_outcome(
        incremental, rebuild, context=f"eptas[{mode}, {eps}, {backend}]"
    )
    if not incremental.raised and mode == "augmentation":
        result = incremental.result
        validate_schedule(
            augmented_instance(
                inst, result.stats.get("extra_machines", 0)
            ),
            result.schedule,
        )
    return incremental


class TestIncrementalVsRebuild:
    """Whole-solve equivalence against the preserved rebuild driver."""

    @pytest.mark.parametrize(
        "backend", ["backtracking", pytest.param("milp", marks=needs_milp)]
    )
    @pytest.mark.parametrize("eps", EPSILONS, ids=_epsilon_id)
    @pytest.mark.parametrize("mode", ["augmentation", "fixed_m"])
    @given(inst=instances(max_machines=3, max_classes=5, max_size=10))
    @settings(max_examples=10, deadline=None)
    def test_agrees_across_guess_sequences(self, inst, mode, eps, backend):
        _agrees_with_rebuild(inst, mode, eps, backend)

    @needs_milp
    @pytest.mark.parametrize("eps", EPSILONS, ids=_epsilon_id)
    @pytest.mark.parametrize("mode", ["augmentation", "fixed_m"])
    @given(inst=instances(max_machines=3, max_classes=5, max_size=10))
    @settings(max_examples=10, deadline=None)
    def test_uncompressed_verdicts_agree_without_pack(self, inst, mode, eps):
        """With the pack disabled every fresh guess is decided by an
        uncompressed HiGHS verdict; the search still matches."""
        with mock.patch.object(
            context_module, "greedy_pack", lambda rounded: None
        ):
            outcome = _agrees_with_rebuild(inst, mode, eps, "milp")
        if not outcome.raised and "incremental" in outcome.result.stats:
            assert outcome.result.stats["incremental"]["pack_accepts"] == 0

    @needs_milp
    def test_packed_solve_calls_highs_once_compressed(self, monkeypatch):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2], [3, 3]], 3
        )
        calls = []
        real = ip_module.solve_window_ip_milp

        def counting(rounded, *, compress=True):
            calls.append(compress)
            return real(rounded, compress=compress)

        monkeypatch.setattr(ip_module, "solve_window_ip_milp", counting)
        result = schedule_eptas(inst, epsilon=EPS, ip_backend="milp")
        counters = result.stats["incremental"]
        assert counters["guesses"] >= 2
        assert counters["pack_accepts"] == (
            counters["guesses"] - counters["signature_hits"]
        )
        assert counters["ip_solves"] == 0
        assert counters["final_resolves"] == 1
        assert calls == [True]

    def test_incremental_counters_reported(self):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2], [3, 3]], 3
        )
        result = schedule_eptas(
            inst, epsilon=EPS, ip_backend="backtracking"
        )
        counters = result.stats["incremental"]
        assert counters["guesses"] >= 1
        assert counters["ip_solves"] <= counters["guesses"]
        # The pack runs on the MILP backend only.
        assert counters["pack_accepts"] == 0
