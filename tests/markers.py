"""Shared capability markers.

The suite must pass on a numpy-free (and therefore scipy-free)
interpreter: the seeded RNG degrades to a stdlib implementation with
identical behavior, while the MILP-backed solvers
(``exact`` past the branch-and-bound size cutoff, ``exact_milp``, the
EPTAS window IP) declare a ``PreconditionError``.  Tests that *require*
the MILP backend carry ``needs_milp`` and skip on that leg; tests that
require numpy itself (the PCG64 cross-checks) carry ``needs_numpy``, and
tests that build the Figure 5 flow network (which raises
``PreconditionError`` without networkx) carry ``needs_networkx``.
"""

from __future__ import annotations

import pytest

from repro.util.optional import milp_modules, optional_import

needs_numpy = pytest.mark.skipif(
    optional_import("numpy") is None, reason="numpy not installed"
)
needs_milp = pytest.mark.skipif(
    milp_modules() is None, reason="scipy.optimize.milp unavailable"
)
needs_networkx = pytest.mark.skipif(
    optional_import("networkx") is None, reason="networkx not installed"
)
