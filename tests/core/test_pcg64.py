"""Pins the stdlib PCG64 port word-for-word against numpy.

Two layers of defense: the C++ seed-sequence reference vectors (from the
upstream gist numpy itself tests against) hold even when numpy is absent,
and whenever numpy *is* importable every Generator method the repo uses is
differentially tested against the real stream — including the buffered
32-bit word that couples ``integers``/``shuffle`` draws.
"""

from __future__ import annotations

import pytest

from repro.util._pcg64 import (
    StdlibGenerator,
    StdlibPCG64,
    StdlibSeedSequence,
    stdlib_default_rng,
)
from repro.util.optional import optional_import
from repro.util.rng import make_rng
from tests.markers import needs_numpy

np = optional_import("numpy")

# C++ seed_seq_fe reference data (same vectors numpy's
# test_seed_sequence.py checks: gist.github.com/imneme/540829265469e673d045).
SEED_SEQ_INPUTS = [
    [3735928559, 195939070, 229505742, 305419896],
    [3668361503, 4165561550, 1661411377, 3634257570],
    [164546577, 4166754639, 1765190214, 1303880213],
    [446610472, 3941463886, 522937693, 1882353782],
]
SEED_SEQ_OUTPUTS = [
    [3914649087, 576849849, 3593928901, 2229911004],
    [2240804226, 3691353228, 1365957195, 2654016646],
    [3562296087, 3191708229, 1147942216, 3726991905],
    [1403443605, 3591372999, 1291086759, 441919183],
]
SEED_SEQ_OUTPUTS64 = [
    [2477551240072187391, 9577394838764454085],
    [15854241394484835714, 11398914698975566411],
    [13708282465491374871, 16007308345579681096],
    [15424829579845884309, 1898028439751125927],
]


def test_seed_sequence_reference_vectors():
    for entropy, exp32, exp64 in zip(
        SEED_SEQ_INPUTS, SEED_SEQ_OUTPUTS, SEED_SEQ_OUTPUTS64
    ):
        ss = StdlibSeedSequence(entropy)
        assert ss.generate_state(4, 32) == exp32
        assert ss.generate_state(2, 64) == exp64
    # The numpy 0.17-compat small-integer vector.
    assert StdlibSeedSequence(42).generate_state(4, 32) == [
        3444837047, 2669555309, 2046530742, 3581440988,
    ]


def test_stdlib_default_rng_passthrough_and_determinism():
    gen = stdlib_default_rng(1)
    assert stdlib_default_rng(gen) is gen
    a = stdlib_default_rng(42).integers(0, 1000, size=5)
    b = stdlib_default_rng(42).integers(0, 1000, size=5)
    assert a == b


def test_make_rng_accepts_stdlib_generator():
    gen = StdlibGenerator(StdlibPCG64(StdlibSeedSequence(7)))
    assert make_rng(gen) is gen


@needs_numpy
@pytest.mark.parametrize("seed", [0, 1, 42, 123456789, 2**40 + 7])
def test_raw_stream_matches_numpy(seed):
    a = np.random.default_rng(seed)
    b = stdlib_default_rng(seed)
    assert [int(a.bit_generator.random_raw()) for _ in range(64)] == [
        b._bitgen.next64() for _ in range(64)
    ]


@needs_numpy
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_interleaved_scalar_methods_match_numpy(seed):
    anchors = [3, 4, 6, 8, 9, 12, 16]
    a = np.random.default_rng(seed)
    b = stdlib_default_rng(seed)
    for i in range(1500):
        sa, sb = a.random(), b.random()
        assert sa == sb, i
        if sa < 0.2:
            assert int(a.integers(1, 100)) == b.integers(1, 100), i
        elif sa < 0.4:
            assert float(a.uniform(0.18, 0.98)) == b.uniform(0.18, 0.98), i
        elif sa < 0.6:
            assert a.choice(anchors) == b.choice(anchors), i
        elif sa < 0.8:
            assert int(a.integers(1, 5)) == b.integers(1, 5), i
        else:
            # > 32-bit range exercises the 64-bit Lemire path
            assert int(a.integers(0, 2**40)) == b.integers(0, 2**40), i


@needs_numpy
def test_shuffle_and_buffered_32bit_word_match_numpy():
    a = np.random.default_rng(5)
    b = stdlib_default_rng(5)
    for _ in range(200):
        la, lb = list(range(18)), list(range(18))
        a.shuffle(la)
        b.shuffle(lb)
        assert la == lb
        # Interleave draws so a stale/missing 32-bit buffer would desync.
        assert int(a.integers(1, 20)) == b.integers(1, 20)
        assert a.random() == b.random()


@needs_numpy
@pytest.mark.parametrize("lam", [0.5, 3.0, 9.9, 10.0, 25.0, 4000.0])
def test_poisson_matches_numpy(lam):
    a = np.random.default_rng(11)
    b = stdlib_default_rng(11)
    for i in range(300):
        assert int(a.poisson(lam)) == b.poisson(lam), (lam, i)


@needs_numpy
def test_workload_families_regenerate_identically():
    from repro.workloads.random_instances import FAMILIES

    for family, gen in sorted(FAMILIES.items()):
        for m, size, seed in [(2, 6, 0), (5, 40, 2)]:
            with_numpy = gen(m, size, np.random.default_rng(seed))
            with_stdlib = gen(m, size, stdlib_default_rng(seed))
            assert with_numpy.to_dict() == with_stdlib.to_dict(), family
