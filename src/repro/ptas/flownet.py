"""The Lemma 18 flow network (paper Figure 5).

The proof of Lemma 18 converts an arbitrary distribution of small-job load
over layers into an integral placement of the placeholder jobs: a flow
network with

* source ``α`` → class node ``u_c`` with capacity ``n_c`` (the number of
  placeholders of class ``c``),
* class node ``u_c`` → layer node ``v_ℓ`` with capacity
  ``γ_{c,ℓ} ∈ {0, 1}`` (1 iff some small load of ``c`` sits in layer ``ℓ``),
* layer node ``v_ℓ`` → sink ``ω`` with capacity ``k_ℓ`` (the number of
  slots reserved for small load in layer ``ℓ``).

The fractional placement induces a maximum flow of value ``Σ_c n_c``; flow
integrality then yields one placeholder per (class, layer) pair with
``f'(c, ℓ) = 1``.  This module builds the network, computes an integral
maximum flow (networkx), and returns the per-class layer sets.  The main
EPTAS pipeline obtains placements directly from the window IP; this
machinery is exercised by the FIG5 benchmark and by tests that start from a
fractional small-job distribution, mirroring the paper's proof.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from repro.core.errors import InfeasibleError, PreconditionError
from repro.util.optional import optional_import

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


def _networkx():
    """networkx, imported on first use; only the FIG5 flow machinery
    needs it."""
    nx = optional_import("networkx")
    if nx is None:
        raise PreconditionError(
            "networkx is required for the flow-network machinery"
        )
    return nx


__all__ = [
    "build_flow_network",
    "assign_placeholders_by_flow",
    "SOURCE",
    "SINK",
]

SOURCE = "alpha"
SINK = "omega"


def build_flow_network(
    n_c: Mapping[int, int],
    gamma: Mapping[Tuple[int, int], int],
    k: Mapping[int, int],
) -> nx.DiGraph:
    """Construct the Figure 5 network.

    Parameters
    ----------
    n_c:
        Placeholders needed per class.
    gamma:
        ``gamma[c, ℓ] = 1`` iff class ``c`` has small load in layer ``ℓ``.
    k:
        Slots available for small load per layer.
    """
    graph = _networkx().DiGraph()
    graph.add_node(SOURCE)
    graph.add_node(SINK)
    for cid, need in n_c.items():
        graph.add_edge(SOURCE, ("class", cid), capacity=int(need))
    for (cid, layer), indicator in gamma.items():
        if indicator:
            graph.add_edge(
                ("class", cid), ("layer", layer), capacity=1
            )
    for layer, slots in k.items():
        graph.add_edge(("layer", layer), SINK, capacity=int(slots))
    return graph


def assign_placeholders_by_flow(
    n_c: Mapping[int, int],
    gamma: Mapping[Tuple[int, int], int],
    k: Mapping[int, int],
) -> Dict[int, List[int]]:
    """Compute an integral placeholder placement via maximum flow.

    Returns per class the (sorted) list of layers receiving one placeholder
    each; raises :class:`InfeasibleError` if the maximum flow is smaller
    than ``Σ_c n_c`` (the fractional placement certificate is violated).
    """
    graph = build_flow_network(n_c, gamma, k)
    demand = sum(n_c.values())
    flow_value, flow = _networkx().maximum_flow(graph, SOURCE, SINK)
    if flow_value < demand:
        raise InfeasibleError(
            f"placeholder flow shortfall: {flow_value} < demand {demand}"
        )
    placement: Dict[int, List[int]] = {cid: [] for cid in n_c}
    for cid in n_c:
        node = ("class", cid)
        for target, amount in flow.get(node, {}).items():
            if amount >= 1 and isinstance(target, tuple):
                placement[cid].append(target[1])
        placement[cid].sort()
    return placement
