"""REP006 fixture: heavy optional packages imported at module scope."""

from typing import TYPE_CHECKING

import numpy as np  # positive: module-level import

try:  # the import below still runs on every import of the module
    from scipy.optimize import milp  # positive: inside a module-level try
except ImportError:
    milp = None

# repro: allow[REP006] fixture: demo of an inline suppression
import networkx

if TYPE_CHECKING:  # allowlisted: never executed
    import scipy.sparse


def max_flow(graph):
    """Allowlisted: imported when the function runs."""
    import networkx as nx

    return nx.maximum_flow(graph, "s", "t")


def zeros(n):
    return np.zeros(n), milp, networkx, scipy
