"""Tests for the lower bounds (Note 1, Lemma 8, Lemma 9)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    all_bounds,
    average_load_bound,
    basic_T,
    lemma8_holds,
    lemma9_T,
    lemma9_T_binary,
    lemma9_T_candidates,
    lower_bound_int,
    max_class_bound,
    pair_bound,
)
from repro.core.instance import Instance, Job
from repro.util.selection import nth_largest
from tests.strategies import instances, tiny_instances


class TestBasicBounds:
    def test_average_load(self):
        inst = Instance.from_class_sizes([[5, 3], [4, 4], [6], [2, 2, 2]], 3)
        assert average_load_bound(inst) == Fraction(28, 3)

    def test_max_class(self):
        inst = Instance.from_class_sizes([[5, 3], [4, 4], [6], [2, 2, 2]], 3)
        assert max_class_bound(inst) == 8

    def test_pair_bound(self):
        inst = Instance.from_class_sizes([[5, 3], [4, 4], [6], [2, 2, 2]], 3)
        # sizes sorted desc: 6 5 4 4 3 2 2 2; p̃3 + p̃4 = 4 + 4
        assert pair_bound(inst) == 8

    def test_pair_bound_zero_when_few_jobs(self):
        inst = Instance.from_class_sizes([[5], [3]], 2)
        assert pair_bound(inst) == 0

    @given(
        m=st.integers(1, 8),
        jobs=st.lists(
            # Few distinct sizes, so ties around p̃_m are common.
            st.tuples(st.integers(1, 4), st.integers(0, 5)), max_size=20
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_pair_bound_matches_linear_selection(self, m, jobs):
        inst = Instance(
            [Job(i, size, cid) for i, (size, cid) in enumerate(jobs)], m
        )
        sizes = inst.sizes()
        expected = (
            0
            if len(sizes) <= m
            else nth_largest(sizes, m) + nth_largest(sizes, m + 1)
        )
        assert pair_bound(inst) == expected

    def test_basic_T_is_max(self):
        inst = Instance.from_class_sizes([[5, 3], [4, 4], [6], [2, 2, 2]], 3)
        assert basic_T(inst) == Fraction(28, 3)

    def test_lower_bound_int_is_ceiling(self):
        inst = Instance.from_class_sizes([[5, 3], [4, 4], [6], [2, 2, 2]], 3)
        assert lower_bound_int(inst) == 10

    def test_all_bounds_keys(self):
        inst = Instance.from_class_sizes([[3]], 1)
        keys = set(all_bounds(inst))
        assert keys == {
            "average_load",
            "max_class",
            "pair",
            "basic_T",
            "lemma9_T",
        }

    def test_single_machine(self):
        inst = Instance.from_class_sizes([[3], [4]], 1)
        assert basic_T(inst) == 7  # total load


class TestLemma8:
    def test_holds_at_large_T(self):
        inst = Instance.from_class_sizes([[10], [10], [10]], 2)
        assert lemma8_holds(inst, 100)

    def test_corridor_forces_machines(self):
        # Three classes with huge jobs need |CH| = 3 <= m machines.
        inst = Instance.from_class_sizes([[10], [10], [10], [2]], 2)
        assert not lemma8_holds(inst, 10)

    def test_known_example(self):
        # From the 3/2 regression: at T=22, CH=3, CB=3, excess=2 -> LHS=6.
        inst = Instance.from_class_sizes(
            [[20], [16], [19], [17], [10, 7], [8, 9], [12], [12]], 6
        )
        assert lemma8_holds(inst, 22)
        # At T = 16 four classes turn huge and four big: LHS = 8 > m = 6.
        assert not lemma8_holds(inst, 16)


class TestLemma9:
    def test_regression_value(self):
        inst = Instance.from_class_sizes(
            [[20], [16], [19], [17], [10, 7], [8, 9], [12], [12]], 6
        )
        assert lemma9_T(inst) == 22

    def test_empty_instance(self):
        assert lemma9_T(Instance([], 2)) == 0

    def test_at_least_basic(self):
        inst = Instance.from_class_sizes([[5, 3], [4, 4], [6], [2, 2, 2]], 3)
        assert lemma9_T(inst) >= lower_bound_int(inst)

    @given(instances())
    @settings(max_examples=60)
    def test_binary_and_candidate_searches_agree(self, inst):
        assert lemma9_T_binary(inst) == lemma9_T_candidates(inst)

    @given(instances())
    @settings(max_examples=60)
    def test_lemma8_holds_at_result(self, inst):
        T = lemma9_T(inst)
        if inst.num_jobs:
            assert lemma8_holds(inst, T)

    @given(instances())
    @settings(max_examples=40)
    def test_monotone_above_result(self, inst):
        if inst.num_jobs == 0:
            return
        T = lemma9_T(inst)
        for delta in (1, 2, 7):
            assert lemma8_holds(inst, T + delta)

    @given(tiny_instances())
    @settings(max_examples=25, deadline=None)
    def test_T_is_a_lower_bound_on_opt(self, inst):
        from repro.algorithms.exact import schedule_exact

        opt = schedule_exact(inst).schedule.makespan
        assert Fraction(lemma9_T(inst)) <= opt
        assert basic_T(inst) <= opt
