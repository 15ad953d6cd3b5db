"""Tests for the capacity-form window IP (Section 4.2)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.core.bounds import lower_bound_int
from repro.core.errors import InfeasibleError
from repro.core.instance import Instance
from repro.ptas.ip import (
    assignment_satisfies,
    greedy_pack,
    solve_window_ip,
    solve_window_ip_backtracking,
    solve_window_ip_milp,
)
from repro.ptas.layers import LayerGrid, RoundedInstance, round_instance
from repro.ptas.params import choose_params
from repro.ptas.simplify import simplify
from tests.markers import needs_milp
from tests.strategies import instances


def _rounded_from(inst, eps=Fraction(1, 2)):
    T = max(lower_bound_int(inst), 1)
    params = choose_params(inst, T, eps)
    return round_instance(simplify(inst, T, params))


def _synthetic(unit_counts, num_layers, m):
    rounded = RoundedInstance(
        grid=LayerGrid(T=1, g=Fraction(1), num_layers=num_layers),
        num_machines=m,
    )
    rounded.unit_counts = {
        cid: dict(counts) for cid, counts in unit_counts.items()
    }
    return rounded


def _check_assignment(rounded, assignment):
    """Solution sanity: counts match, class windows disjoint, capacity."""
    L = rounded.grid.num_layers
    for cid, counts in rounded.unit_counts.items():
        windows = assignment.windows.get(cid, [])
        got = {}
        for start, units in windows:
            got[units] = got.get(units, 0) + 1
            assert 0 <= start and start + units <= L
        assert got == counts
        covered = set()
        for start, units in windows:
            span = set(range(start, start + units))
            assert not (covered & span), "class windows overlap"
            covered |= span
    loads = assignment.layer_loads(L)
    assert max(loads, default=0) <= rounded.num_machines


class TestSynthetic:
    def test_simple_feasible(self):
        rounded = _synthetic({0: {2: 1}, 1: {2: 1}}, num_layers=4, m=1)
        assignment = solve_window_ip(rounded)
        _check_assignment(rounded, assignment)

    def test_class_conflict_forces_spread(self):
        # One class with two 2-unit windows in 4 layers: must be [0,2)+[2,4).
        rounded = _synthetic({0: {2: 2}}, num_layers=4, m=2)
        assignment = solve_window_ip(rounded)
        _check_assignment(rounded, assignment)
        wins = sorted(assignment.windows[0])
        assert wins == [(0, 2), (2, 2)]

    @needs_milp
    def test_infeasible_capacity(self):
        rounded = _synthetic({0: {3: 1}, 1: {3: 1}}, num_layers=4, m=1)
        # 6 units > 4 capacity
        with pytest.raises(InfeasibleError):
            solve_window_ip_milp(rounded)
        with pytest.raises(InfeasibleError):
            solve_window_ip_backtracking(rounded)

    @needs_milp
    def test_infeasible_class_serialization(self):
        # One class needing 3 windows of 2 units in 5 layers: needs 6 > 5.
        rounded = _synthetic({0: {2: 3}}, num_layers=5, m=3)
        with pytest.raises(InfeasibleError):
            solve_window_ip_milp(rounded)
        with pytest.raises(InfeasibleError):
            solve_window_ip_backtracking(rounded)

    @needs_milp
    def test_window_longer_than_horizon(self):
        rounded = _synthetic({0: {9: 1}}, num_layers=4, m=1)
        with pytest.raises(InfeasibleError):
            solve_window_ip_milp(rounded)

    def test_mixed_lengths_order_free(self):
        # Class needs a 1-unit before/after a 3-unit; backtracking must
        # explore both orders (regression for the fixed-order bug).
        rounded = _synthetic(
            {0: {3: 1, 1: 1}, 1: {3: 1}}, num_layers=4, m=2
        )
        assignment = solve_window_ip_backtracking(rounded)
        _check_assignment(rounded, assignment)

    def test_unknown_backend(self):
        rounded = _synthetic({0: {2: 1}}, num_layers=2, m=1)
        from repro.core.errors import PreconditionError

        with pytest.raises(PreconditionError):
            solve_window_ip(rounded, backend="bogus")


class TestGreedyPack:
    def test_longest_first_leftmost_start(self):
        """Longest windows first (ties: more class units, then lower
        class id), each at the leftmost start with capacity left and a
        free class."""
        rounded = _synthetic(
            {0: {3: 1, 1: 2}, 1: {3: 1}, 2: {2: 1}}, num_layers=6, m=2
        )
        packed = greedy_pack(rounded)
        assert packed.windows == {
            0: [(0, 3), (3, 1), (4, 1)],
            1: [(0, 3)],
            2: [(3, 2)],
        }
        _check_assignment(rounded, packed)
        assert assignment_satisfies(rounded, packed)

    def test_class_units_beyond_horizon(self):
        # Class 0 needs 6 disjoint layers of a 5-layer horizon.
        rounded = _synthetic({0: {2: 3}, 1: {1: 1}}, num_layers=5, m=3)
        assert greedy_pack(rounded) is None

    def test_window_longer_than_horizon(self):
        rounded = _synthetic({0: {6: 1}}, num_layers=5, m=3)
        assert greedy_pack(rounded) is None

    def test_empty_demand(self):
        rounded = _synthetic({}, num_layers=4, m=2)
        assert greedy_pack(rounded).windows == {}


class TestBackendAgreement:
    @needs_milp
    @given(instances(max_machines=3, max_classes=5, max_jobs_per_class=2))
    @settings(max_examples=25, deadline=None)
    def test_feasibility_agrees(self, inst):
        if inst.num_jobs == 0:
            return
        rounded = _rounded_from(inst)
        try:
            milp = solve_window_ip_milp(rounded)
            milp_feasible = True
        except InfeasibleError:
            milp_feasible = False
        try:
            bt = solve_window_ip_backtracking(rounded, node_budget=500_000)
            bt_feasible = True
        except InfeasibleError as exc:
            if "node" in str(exc):
                return  # budget exhausted, not a verdict
            bt_feasible = False
        assert milp_feasible == bt_feasible
        if milp_feasible:
            _check_assignment(rounded, milp)
            _check_assignment(rounded, bt)


class TestRealInstances:
    @given(instances(max_machines=4, max_classes=6))
    @settings(max_examples=25, deadline=None)
    def test_feasible_at_three_halves_bound(self, inst):
        """The IP must be feasible at any T >= OPT; use the 3/2 result."""
        if inst.num_jobs == 0:
            return
        import math

        from repro.algorithms.three_halves import schedule_three_halves

        ub = math.ceil(schedule_three_halves(inst).schedule.makespan)
        T = max(ub, 1)
        params = choose_params(inst, T, Fraction(1, 2))
        rounded = round_instance(simplify(inst, T, params))
        assignment = solve_window_ip(rounded)
        _check_assignment(rounded, assignment)
