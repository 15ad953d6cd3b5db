"""Seeded random-number helpers.

All stochastic code paths in the reproduction (workload generators, property
tests, benchmark sweeps) accept either a seed or an existing generator;
this module centralizes the coercion so that every experiment is
reproducible bit-for-bit.

numpy is **optional**: when it is importable, :func:`make_rng` returns a
real :class:`numpy.random.Generator`; without it, the pure-stdlib PCG64
port in :mod:`repro.util._pcg64` produces the *identical* draw streams
(pinned against numpy by ``tests/core/test_pcg64.py``), so seeds, golden
cells and cache keys mean the same thing in both environments.  numpy is
imported by the first :func:`make_rng` call, not by this module
(:mod:`repro.util.optional`).
"""

from __future__ import annotations

from typing import Any, Union

from repro.util._pcg64 import StdlibGenerator, stdlib_default_rng
from repro.util.optional import optional_import

__all__ = ["SeedLike", "make_rng"]

SeedLike = Union[None, int, Any]


def make_rng(seed: SeedLike = None) -> Any:
    """Coerce ``seed`` into a generator with the ``np.random.Generator`` API.

    Passing a generator (numpy or the stdlib fallback) returns it unchanged,
    so helper functions can be chained without reseeding; passing ``None``
    yields OS entropy (only used when a caller explicitly opts out of
    determinism).
    """
    if isinstance(seed, StdlibGenerator):
        return seed
    np = optional_import("numpy")
    if np is None:
        return stdlib_default_rng(seed)
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
