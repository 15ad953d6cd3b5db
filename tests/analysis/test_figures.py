"""Tests for the paper-figure regeneration (the FIG* experiments)."""

import pytest

from repro.analysis.figures import (
    FIGURE_INSTANCES,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
)
from tests.markers import needs_networkx


class TestFigures:
    def test_figure1_contains_all_steps(self):
        out = figure1()
        for marker in ("(a)", "(b)", "(c)", "Algorithm_5/3"):
            assert marker in out

    def test_figure2_all_panels(self):
        out = figure2()
        for marker in ("step2", "step3", "step4", "step5"):
            assert marker in out

    def test_figure3_all_cases(self):
        out = figure3()
        for marker in (
            "step6.1a",
            "step6.1b",
            "step6.2a",
            "step6.2b",
            "step7.1",
            "step7.2a",
            "step7.2b",
        ):
            assert marker in out

    def test_figure4_panels(self):
        out = figure4()
        for marker in ("step4", "step8", "step8cb", "step10"):
            assert marker in out

    @needs_networkx
    def test_figure5_flow(self):
        out = figure5()
        assert "alpha" in out and "omega" in out
        assert "assigned layers" in out

    def test_figure6_reduction(self):
        out = figure6()
        assert "makespan 4" in out
        assert "anc0" in out and "var0" in out

    def test_instances_dictionary_complete(self):
        # every no_huge case key renders a panel in fig2/fig3
        nh_keys = [k for k in FIGURE_INSTANCES if k.startswith("nh_")]
        assert len(nh_keys) == 11
