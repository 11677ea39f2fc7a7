import functools
import math

import numpy as np
import pytest

from biasrep.noise_model import FaultKind, FaultRow
from biasrep.streams import (_BLOCK, _GOLDEN, _MASK, _MIX1, _MIX2, TAG_FAULT,
                             TAG_LEAK_CZ, TrialHashes, draw_faults, hash_bound,
                             stream_key, uniform, uniform_vector)

SEED, LOC, QUBIT = 31, 17, 4

THRESHOLDS = [3.5e-7, 1.83e-3, 2.0**-20, 0.5, math.nextafter(0.5, 0.0),
              1.0 - 2.0**-53, 1.0]


def _unshift(x: int, s: int) -> int:
    """Inverse of x ^= x >> s on 64 bits."""
    y = x
    for _ in range(64 // s):
        y = x ^ (y >> s)
    return y


def trial_with_prefinal(y: int, tag: int = TAG_FAULT) -> int:
    """The trial whose pre-final word (the finalizer before its last
    xor-shift) at (SEED, LOC, QUBIT, tag) is ``y``: the finalizer's steps
    and the trial step are bijections of 64 bits."""
    x = y * pow(_MIX2, -1, 1 << 64) & _MASK
    x = _unshift(x, 27)
    x = x * pow(_MIX1, -1, 1 << 64) & _MASK
    x = _unshift(x, 30)
    key = stream_key(SEED, LOC, QUBIT, tag)
    return (x - key) * pow(_GOLDEN, -1, 1 << 64) & _MASK


def trial_with_hash(target: int, tag: int = TAG_FAULT) -> int:
    """The trial whose keyed hash at (SEED, LOC, QUBIT, tag) is ``target``."""
    return trial_with_prefinal(_unshift(target, 31), tag)


def test_trial_with_hash_inverts_the_hash():
    for target in (0, 1, 12345, _MASK, 1 << 63):
        trial = trial_with_hash(target)
        hashes = TrialHashes(SEED, np.array([trial], dtype=np.uint64))
        assert int(hashes.hash(LOC, QUBIT)[0]) == target


@pytest.mark.parametrize("t", THRESHOLDS)
def test_bound_test_matches_uniform(t):
    bound = hash_bound(t)
    edges = [h for h in (bound - 1, bound, bound + 1) if 0 <= h <= _MASK]
    rng = np.random.default_rng(3)
    spread = rng.integers(0, 1 << 64, size=200, dtype=np.uint64, endpoint=False)
    near = [max(0, min(_MASK, bound + int(d))) for d in rng.integers(-5000, 5000, 50)]
    targets = edges + [int(h) for h in spread] + near
    trials = np.array([trial_with_hash(h) for h in targets], dtype=np.uint64)
    hashes = TrialHashes(SEED, trials)
    h = hashes.hash(LOC, QUBIT)
    assert [int(x) for x in h] == targets
    expected = [i for i, trial in enumerate(trials)
                if uniform(SEED, int(trial), LOC, QUBIT) < t]
    assert hashes.below(h, t).tolist() == expected
    for h in edges:
        assert (h < bound) == ((h >> 11) * 2.0**-53 < t)


@pytest.mark.parametrize("t", [1.0, 1.0 + 2.0**-52, 2.0, math.inf])
def test_threshold_at_least_one_selects_everything(t):
    trials = np.array([trial_with_hash(h) for h in (0, _MASK - 1, _MASK)]
                      + list(range(100)), dtype=np.uint64)
    hashes = TrialHashes(SEED, trials)
    h = hashes.hash(LOC, QUBIT)
    assert hashes.below(h, t).tolist() == list(range(len(trials)))


def test_zero_threshold_selects_nothing():
    hashes = TrialHashes(SEED, np.array([trial_with_hash(0), 5], dtype=np.uint64))
    assert hashes.below(hashes.hash(LOC, QUBIT), 0.0).size == 0


def test_uniform_vector_on_fancy_indexed_trials():
    trials = np.arange(1000, 3000, dtype=np.uint64)
    idx = np.array([1999, 0, 17, 17, 512, 3])
    got = uniform_vector(SEED, trials[idx], LOC, QUBIT, TAG_LEAK_CZ)
    assert got.tolist() == [uniform(SEED, int(trials[i]), LOC, QUBIT, TAG_LEAK_CZ)
                            for i in idx]
    assert uniform_vector(SEED, trials[idx[:0]], LOC, QUBIT).shape == (0,)


# -- the fault-draw kernel ---------------------------------------------------

# Rows of the kernel tests: one class at each of THRESHOLDS, table1's CPHASE
# row, and a row whose last threshold lies above 1/2, where the last
# xor-shift changes bit 32 of y (its bound minus one has bit 32 clear).
ROWS = [FaultRow.build([(FaultKind.Z, t)]) for t in THRESHOLDS] + [
    FaultRow.build([(FaultKind.Z, 1.96e-3), (FaultKind.X, 1.75e-6),
                    (FaultKind.Y, 1.75e-6), (FaultKind.LEAK, 3.5e-6)]),
    FaultRow.build([(FaultKind.Z, 0.25), (FaultKind.X, 0.25),
                    (FaultKind.Y, 0.25 + 2.0**-40)]),
]
SIZES = [1, 63, 64, 65, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1 << 17]


@functools.lru_cache(maxsize=None)
def scalar_classes(offset: int) -> list[np.ndarray]:
    """For each of ROWS, the class index that ``FaultRow.draw`` gives each
    of the trials offset, offset + 1, ... (max(SIZES) of them) from the
    scalar ``uniform``, or -1 for no fault."""
    u = [uniform(SEED, offset + j, LOC, QUBIT) for j in range(max(SIZES))]
    out = []
    for row in ROWS:
        index = {cls: i for i, cls in enumerate(row.classes)}
        out.append(np.array([index.get(row.draw(x), -1) for x in u]))
    return out


@pytest.mark.parametrize("offset", [0, 12_345])
@pytest.mark.parametrize("size", SIZES)
def test_draw_faults_matches_scalar_draws(size, offset):
    trials = np.arange(offset, offset + size, dtype=np.uint64)
    got = draw_faults(SEED, trials, [(LOC, QUBIT, row.thresholds) for row in ROWS])
    u = uniform_vector(SEED, trials, LOC, QUBIT)    # the whole-batch hash
    for row, (pos, which), classes in zip(ROWS, got, scalar_classes(offset)):
        expected = np.flatnonzero(classes[:size] >= 0)
        assert pos.dtype == np.int32 and which.dtype == np.uint8
        assert pos.tolist() == expected.tolist()
        assert which.tolist() == classes[expected].tolist()
        assert pos.tolist() == np.flatnonzero(u < row.thresholds[-1]).tolist()


@pytest.mark.parametrize("t", sorted({row.thresholds[-1] for row in ROWS}))
def test_draw_on_both_sides_of_the_prefilter_cut(t):
    bound = hash_bound(t)
    cut = (((bound - 1) >> 33) + 1) << 33
    ys = {cut + d for d in (-(1 << 33), -(1 << 32) - 1, -(1 << 32), -2, -1,
                            0, 1, 1 << 32)}
    ys |= {_unshift(h, 31) for h in (bound - 2, bound - 1, bound, bound + 1)}
    rng = np.random.default_rng(7)
    ys |= {cut + int(d) for d in rng.integers(-(1 << 34), 1 << 34, 200)}
    ys = sorted(y for y in ys if 0 <= y <= _MASK)
    trials = np.array([trial_with_prefinal(y) for y in ys], dtype=np.uint64)
    assert TrialHashes(SEED, trials)._prefinal(LOC, QUBIT, TAG_FAULT).tolist() == ys
    pos, which = TrialHashes(SEED, trials).draw(LOC, QUBIT, (t,))
    expected = [i for i, trial in enumerate(trials)
                if uniform(SEED, int(trial), LOC, QUBIT) < t]
    assert pos.tolist() == expected
    assert not which.any()
    # some hits lie in the cut's last 2^33 step, which a cut at a coarser
    # or lower step would drop
    assert any(ys[i] >> 33 == (bound - 1) >> 33 for i in expected)
    if cut <= _MASK:
        assert any(y >= cut for y in ys)
