"""Shared capability markers.

The suite must pass on a numpy-free (and therefore scipy-free)
interpreter: the seeded RNG degrades to a stdlib implementation with
identical behavior, while the MILP-backed solvers
(``exact`` past the branch-and-bound size cutoff, ``exact_milp``, the
EPTAS window IP) declare a ``PreconditionError``.  Tests that *require*
the MILP backend carry ``needs_milp`` and skip on that leg; tests that
require numpy itself (the PCG64 cross-checks) carry ``needs_numpy``.
"""

from __future__ import annotations

import pytest

from repro.ptas.ip import _HAVE_MILP
from repro.util.rng import HAVE_NUMPY

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed"
)
needs_milp = pytest.mark.skipif(
    not _HAVE_MILP, reason="scipy.optimize.milp unavailable"
)
