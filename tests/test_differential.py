"""Cross-algorithm differential invariants.

One shared hypothesis instance corpus is run through *every* algorithm in
the registry, asserting the contract every solver must honor:

* the schedule passes :func:`repro.core.validate.validate_schedule`
  (against :func:`validation_instance`, so resource-augmented schedules
  are validated on their own machine count);
* the makespan respects the instance lower bound ``basic_T`` and the
  solver's own ``lower_bound`` whenever the schedule uses the instance's
  machines (augmented schedules may legitimately beat the ``m``-machine
  bound);
* a claimed ``guarantee`` (when not ``None``) actually holds;
* ``Schedule.to_dict``/``from_dict`` round-trips the result exactly.

No single-algorithm test sees these regressions: a solver whose bound
drifts, whose serialization loses a field, or whose schedule silently
violates a class constraint fails here even if its own unit tests still
pass.  Every registry entry must be covered — the coverage test fails
when a newly registered algorithm is not added to a corpus group.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro import solve
from repro.algorithms.registry import algorithm_names
from repro.core.bounds import basic_T
from repro.core.errors import InfeasibleError, PreconditionError
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.validate import validate_schedule, validation_instance
from tests.strategies import instances, tiny_instances

#: Polynomial-time algorithms: safe on the full random corpus.
FAST_ALGORITHMS = (
    "class_greedy",
    "five_thirds",
    "list_lpt",
    "merge_lpt",
    "no_huge",
    "three_halves",
)

#: Exponential/heavyweight solvers: restricted to the tiny corpus.
EXPENSIVE_ALGORITHMS = ("eptas", "exact", "exact_bb", "exact_milp")

#: Raising is an acceptable outcome only for declared preconditions
#: (e.g. ``no_huge`` outside its job-size regime) or proven
#: infeasibility — never for arbitrary errors.
ALLOWED_ERRORS = (PreconditionError, InfeasibleError)


def test_every_registered_algorithm_is_covered():
    covered = set(FAST_ALGORITHMS) | set(EXPENSIVE_ALGORITHMS)
    assert covered == set(algorithm_names()), (
        "algorithm registry and differential corpus groups diverged"
    )


def check_contract(inst: Instance, algorithm: str) -> None:
    try:
        result = solve(inst, algorithm=algorithm)
    except ALLOWED_ERRORS:
        return

    schedule = result.schedule
    target = validation_instance(inst, schedule)
    validate_schedule(target, schedule)

    # Every job is scheduled exactly once.
    assert set(schedule.placements) == {job.id for job in inst.jobs}

    if schedule.num_machines == inst.num_machines:
        assert schedule.makespan >= basic_T(inst)
        assert schedule.makespan >= result.lower_bound
    assert result.lower_bound >= 0
    if inst.num_jobs:
        assert result.bound_ratio() >= 1

    if result.guarantee is not None:
        assert result.within_guarantee(), (
            f"{algorithm} violated its claimed guarantee "
            f"{result.guarantee}: makespan {result.makespan}, "
            f"bound {result.lower_bound}"
        )

    # Serialization round-trip preserves the schedule bit for bit.
    data = schedule.to_dict()
    again = Schedule.from_dict(data)
    assert again.to_dict() == data
    assert again.makespan == schedule.makespan
    assert again.num_machines == schedule.num_machines

    # The instance itself round-trips too (the sweep runner relies on
    # shipping instances through JSON).
    assert Instance.from_dict(inst.to_dict()) == inst


@pytest.mark.parametrize("algorithm", FAST_ALGORITHMS)
@given(inst=instances())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.differing_executors],
)
def test_differential_fast(algorithm, inst):
    check_contract(inst, algorithm)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", EXPENSIVE_ALGORITHMS)
@given(inst=tiny_instances())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.differing_executors],
)
def test_differential_expensive(algorithm, inst):
    check_contract(inst, algorithm)


@pytest.mark.parametrize(
    "algorithm", FAST_ALGORITHMS + EXPENSIVE_ALGORITHMS
)
def test_differential_empty_instance(algorithm):
    check_contract(Instance([], 3), algorithm)


@pytest.mark.parametrize("algorithm", FAST_ALGORITHMS)
def test_differential_single_machine(algorithm):
    # m = 1: every valid schedule is a permutation; makespan must equal
    # the total size for any work-conserving-or-not schedule ≥ p(J).
    inst = Instance.from_class_sizes([[4, 2], [3], [5, 1]], 1)
    try:
        result = solve(inst, algorithm=algorithm)
    except ALLOWED_ERRORS:
        return
    check_contract(inst, algorithm)
    assert result.schedule.makespan >= inst.total_size


# --------------------------------------------------------------------- #
# Adversarial corpus: deterministic shapes that historically break
# schedulers — run through every fast algorithm, and through both the
# kernel and the preserved reference paths of the approximation
# algorithms with their guarantees asserted per cell.
# --------------------------------------------------------------------- #
def _adversarial_corpus():
    from repro.workloads import generate, mh_stress_machines

    return {
        # One class dominates the load: class-sequentiality binds, and
        # the busy index carries almost every placement.
        "one_giant_class": Instance.from_class_sizes(
            [[7] * 40] + [[2, 3]] * 6, 4
        ),
        # Degenerate sizes: every tie-break rule is exercised at once.
        "all_unit_jobs": Instance.from_class_sizes(
            [[1] * 10 for _ in range(12)], 5
        ),
        # m = 1: scheduling collapses to a permutation.
        "single_machine": Instance.from_class_sizes(
            [[4, 2], [3], [5, 1], [2, 2]], 1
        ),
        # |C| ≫ m: maximal machine reuse, long per-machine chains.
        "classes_much_greater_than_m": Instance.from_class_sizes(
            [[(i % 5) + 1] for i in range(80)], 3
        ),
        # Every job just over T/2: CB+/CB machinery everywhere.
        "all_big_jobs": Instance.from_class_sizes(
            [[11] for _ in range(9)] + [[3, 3]] * 2, 4
        ),
        # The M̄H-pairing stress shape at test scale.
        "mh_stress_small": generate(
            "mh_stress", mh_stress_machines(60), 60, 2
        ),
    }


ADVERSARIAL_CORPUS = _adversarial_corpus()

#: The PR-4 kernel ports with a proven guarantee to assert per cell.
APPROX_WITH_GUARANTEE = ("five_thirds", "three_halves", "no_huge")


@pytest.mark.parametrize("algorithm", FAST_ALGORITHMS)
@pytest.mark.parametrize("shape", sorted(ADVERSARIAL_CORPUS))
def test_differential_adversarial_shapes(shape, algorithm):
    check_contract(ADVERSARIAL_CORPUS[shape], algorithm)


@pytest.mark.parametrize("algorithm", FAST_ALGORITHMS)
@pytest.mark.parametrize("shape", sorted(ADVERSARIAL_CORPUS))
def test_traced_counters_match_step_shims(shape, algorithm):
    """The obs-promoted kernel counters equal the counting-shim
    counters bit for bit."""
    from tests.equivalence import assert_traced_counters_match

    assert_traced_counters_match(ADVERSARIAL_CORPUS[shape], algorithm)


@pytest.mark.parametrize("algorithm", APPROX_WITH_GUARANTEE)
@pytest.mark.parametrize("shape", sorted(ADVERSARIAL_CORPUS))
def test_adversarial_guarantees_on_kernel_and_reference(shape, algorithm):
    """On every adversarial cell, the kernel and the preserved
    reference make identical decisions and both honor the claimed
    guarantee."""
    from fractions import Fraction

    from tests.equivalence import (
        EQUIVALENCE_PAIRS,
        assert_same_outcome,
        run_and_capture,
    )

    inst = ADVERSARIAL_CORPUS[shape]
    kernel = run_and_capture(
        lambda i: solve(i, algorithm=algorithm), inst
    )
    reference = run_and_capture(EQUIVALENCE_PAIRS[algorithm], inst)
    assert_same_outcome(kernel, reference, context=f"{algorithm}/{shape}")
    if kernel.raised:
        # Raising is acceptable only for declared preconditions.
        assert kernel.error == "PreconditionError"
        return
    for result in (kernel.result, reference.result):
        assert result.guarantee is not None
        assert result.makespan <= (
            result.guarantee * Fraction(result.lower_bound)
        ), f"{algorithm} violated its guarantee on {shape}"


def test_adversarial_reservation_conflict_rejected():
    """A conflicting reservation sequence — the shape the split lemmas
    promise never happens, i.e. an algorithm bug — is rejected, and the
    innocent class keeps exactly its own interval."""
    from repro.core.dispatch import ClassReservations
    from repro.core.errors import InvalidScheduleError

    res = ClassReservations((1, 2))
    res.reserve(1, 0, 7)
    res.reserve(2, 0, 7)  # other class: no cross-class conflict
    res.reserve(1, 10, 20)
    res.reserve(1, 15, 25)  # queued conflict inside class 1
    with pytest.raises(InvalidScheduleError):
        res.flush()
    assert res.of(2).intervals() == [(0, 7)]
