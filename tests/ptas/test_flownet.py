"""Tests for the Lemma 18 flow network (Figure 5)."""

import pytest

from repro.core.errors import InfeasibleError
from repro.ptas.flownet import (
    SINK,
    SOURCE,
    assign_placeholders_by_flow,
    build_flow_network,
)
from tests.markers import needs_networkx

pytestmark = needs_networkx


class TestBuild:
    def test_structure(self):
        graph = build_flow_network(
            n_c={0: 2}, gamma={(0, 0): 1, (0, 2): 1}, k={0: 1, 1: 1, 2: 1}
        )
        assert graph.has_edge(SOURCE, ("class", 0))
        assert graph[SOURCE][("class", 0)]["capacity"] == 2
        assert graph.has_edge(("class", 0), ("layer", 0))
        assert not graph.has_edge(("class", 0), ("layer", 1))
        assert graph[("layer", 2)][SINK]["capacity"] == 1

    def test_zero_gamma_omitted(self):
        graph = build_flow_network(
            n_c={0: 1}, gamma={(0, 0): 0, (0, 1): 1}, k={0: 1, 1: 1}
        )
        assert not graph.has_edge(("class", 0), ("layer", 0))


class TestAssignment:
    def test_integral_assignment(self):
        placement = assign_placeholders_by_flow(
            n_c={0: 2, 1: 1},
            gamma={(0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1},
            k={0: 1, 1: 2, 2: 1},
        )
        assert len(placement[0]) == 2
        assert len(placement[1]) == 1
        # per-class layers distinct
        for layers in placement.values():
            assert len(layers) == len(set(layers))

    def test_layer_capacity_respected(self):
        placement = assign_placeholders_by_flow(
            n_c={0: 1, 1: 1},
            gamma={(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1},
            k={0: 1, 1: 1},
        )
        used = [l for layers in placement.values() for l in layers]
        assert sorted(used) == [0, 1]

    def test_shortfall_raises(self):
        with pytest.raises(InfeasibleError):
            assign_placeholders_by_flow(
                n_c={0: 2},
                gamma={(0, 0): 1},
                k={0: 1},
            )

    def test_tight_instance(self):
        # Exactly enough slots; classic bipartite perfect matching.
        placement = assign_placeholders_by_flow(
            n_c={0: 2, 1: 2, 2: 1},
            gamma={
                (0, 0): 1,
                (0, 1): 1,
                (0, 3): 1,
                (1, 1): 1,
                (1, 2): 1,
                (1, 4): 1,
                (2, 2): 1,
                (2, 3): 1,
            },
            k={0: 1, 1: 1, 2: 1, 3: 1, 4: 1},
        )
        used = [l for layers in placement.values() for l in layers]
        assert len(used) == 5
        assert len(set(used)) == 5
