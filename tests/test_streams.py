import math

import numpy as np
import pytest

from biasrep.streams import (_GOLDEN, _MASK, _MIX1, _MIX2, TAG_FAULT,
                             TAG_LEAK_CZ, TrialHashes, hash_bound, stream_key,
                             uniform, uniform_vector)

SEED, LOC, QUBIT = 31, 17, 4

THRESHOLDS = [3.5e-7, 1.83e-3, 2.0**-20, 0.5, math.nextafter(0.5, 0.0),
              1.0 - 2.0**-53, 1.0]


def _unshift(x: int, s: int) -> int:
    """Inverse of x ^= x >> s on 64 bits."""
    y = x
    for _ in range(64 // s):
        y = x ^ (y >> s)
    return y


def trial_with_hash(target: int, tag: int = TAG_FAULT) -> int:
    """The trial whose keyed hash at (SEED, LOC, QUBIT, tag) is ``target``:
    the splitmix64 finalizer and the trial step are bijections of 64 bits."""
    x = _unshift(target, 31)
    x = x * pow(_MIX2, -1, 1 << 64) & _MASK
    x = _unshift(x, 27)
    x = x * pow(_MIX1, -1, 1 << 64) & _MASK
    x = _unshift(x, 30)
    key = stream_key(SEED, LOC, QUBIT, tag)
    return (x - key) * pow(_GOLDEN, -1, 1 << 64) & _MASK


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
