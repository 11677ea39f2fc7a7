"""Keyed, counter-based random streams for reproducible parallel Monte Carlo.

Every random decision in a simulation is addressed by a tuple
(seed, trial, location, qubit, tag) and hashed through the splitmix64
finalizer.  Draws are therefore independent of evaluation order, batch
size, and worker count: trial 7 sees the same faults whether it runs
alone, inside a vectorized batch, or on another process.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Draw purposes within one (location, qubit) cell.
TAG_FAULT = 0        # fault-class selection
TAG_LEAK_OUTCOME = 1 # random outcome when measuring a leaked qubit
TAG_LEAK_CZ = 2      # random dephasing of the partner of a leaked qubit


def _mix(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


@functools.lru_cache(maxsize=1 << 13)
def stream_key(seed: int, location: int, qubit: int, tag: int) -> int:
    """Collapse an address into a 64-bit stream key.  It does not depend on
    the trial, so it is cached: the cache holds every address a trial of
    cnot(9, 11) with pre-teleport can draw at (about 4,700), and a scalar
    draw pays one mix for its trial."""
    h = _mix(seed & _MASK)
    h = _mix(h ^ ((location & _MASK) * _GOLDEN) & _MASK)
    h = _mix(h ^ ((qubit & _MASK) * _MIX1) & _MASK)
    return _mix(h ^ tag)


def to_uniform(h):
    """The double in [0, 1) that a 64-bit hash (int or uint64 array) stands
    for: its top 53 bits."""
    return (h >> 11) * 2.0**-53


def hash_bound(t: float) -> int:
    """The integer b such that a hash h is below b exactly when
    ``to_uniform(h) < t``: h >> 11 is an integer, so it is below t·2^53
    exactly when it is below the ceiling.  A threshold t >= 1 gives 2^64,
    above every hash."""
    return math.ceil(min(t, 1.0) * 2.0**53) << 11


def uniform(seed: int, trial: int, location: int, qubit: int, tag: int = TAG_FAULT) -> float:
    """One double in [0, 1) for the addressed decision."""
    key = stream_key(seed, location, qubit, tag)
    return to_uniform(_mix((key + trial * _GOLDEN) & _MASK))


class TrialHashes:
    """Keyed hashes of one fixed array of trial indices, for one address at
    a time.  ``trials * GOLDEN`` is computed once, and every hash and hit
    test is written into buffers allocated once, so a batch that draws at
    many addresses allocates its hashing memory only here."""

    def __init__(self, seed: int, trials: np.ndarray):
        self.seed = int(seed)
        self._base = np.asarray(trials, dtype=np.uint64) * np.uint64(_GOLDEN)
        self._h = np.empty_like(self._base)
        self._tmp = np.empty_like(self._base)
        self._mask = np.empty(self._base.shape, dtype=bool)

    def hash(self, location: int, qubit: int, tag: int = TAG_FAULT) -> np.ndarray:
        """The hash of every trial at this address, the vectorized
        counterpart of the hash inside :func:`uniform`.  The array returned
        is overwritten by the next call."""
        h, tmp = self._h, self._tmp
        np.add(self._base, np.uint64(stream_key(self.seed, location, qubit, tag)),
               out=h)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(h, shift, out=tmp)
            h ^= tmp
            h *= np.uint64(mult)
        np.right_shift(h, 31, out=tmp)
        h ^= tmp
        return h

    def below(self, h: np.ndarray, t: float) -> np.ndarray:
        """Positions of the trials whose hash in ``h`` (as returned by
        :meth:`hash`) stands for a uniform below ``t``."""
        bound = hash_bound(t)
        if bound > _MASK:
            return np.arange(h.shape[0])
        np.less(h, np.uint64(bound), out=self._mask)
        return np.flatnonzero(self._mask)


def uniform_vector(seed: int, trials: np.ndarray, location: int, qubit: int,
                   tag: int = TAG_FAULT) -> np.ndarray:
    """Vectorized :func:`uniform` over an array of trial indices."""
    return to_uniform(TrialHashes(seed, trials).hash(location, qubit, tag))


class FaultStream:
    """Per-trial view of the keyed stream, passed to sampling routines."""

    __slots__ = ("seed", "trial")

    def __init__(self, seed: int, trial: int = 0):
        self.seed = int(seed)
        self.trial = int(trial)

    def uniform(self, location: int, qubit: int, tag: int = TAG_FAULT) -> float:
        return uniform(self.seed, self.trial, location, qubit, tag)
