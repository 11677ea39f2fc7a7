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
from typing import Sequence

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Draw purposes within one (location, qubit) cell.
TAG_FAULT = 0        # fault-class selection
TAG_LEAK_OUTCOME = 1 # random outcome when measuring a leaked qubit
TAG_LEAK_CZ = 2      # random dephasing of the partner of a leaked qubit


# The splitmix64 finalizer: shift-xor-multiply steps up to the pre-final
# word y, then the last xor-shift, which leaves the bits of y from
# _KEPT_FROM (33) up unchanged.
_STEPS = ((30, _MIX1), (27, _MIX2))
_LAST_SHIFT = 31
_KEPT_FROM = 64 - _LAST_SHIFT

# Trials per block of the fault-draw kernel: its three uint64 buffers
# (768 KiB) stay in a 2 MiB L2 while every site of a batch is hashed.
_BLOCK = 1 << 15


def _finish(y):
    """The finalizer's last step on a pre-final word (int or uint64 array)."""
    return y ^ (y >> _LAST_SHIFT)


def _mix(x: int) -> int:
    x &= _MASK
    for shift, mult in _STEPS:
        x = ((x ^ (x >> shift)) * mult) & _MASK
    return _finish(x)


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
    a time.  ``trials * GOLDEN`` is computed once, and each address is
    hashed into buffers allocated once, so a caller that draws at many
    addresses allocates its hashing memory only here."""

    def __init__(self, seed: int, trials: np.ndarray):
        self.seed = int(seed)
        self._base = np.asarray(trials, dtype=np.uint64) * np.uint64(_GOLDEN)
        self._y = np.empty_like(self._base)
        self._tmp = np.empty_like(self._base)
        self._mask = np.empty(self._base.shape, dtype=bool)

    def _prefinal(self, location: int, qubit: int, tag: int) -> np.ndarray:
        """The pre-final word y of every trial at this address, in a buffer
        that the next call overwrites."""
        y, tmp = self._y, self._tmp
        np.add(self._base, np.uint64(stream_key(self.seed, location, qubit, tag)),
               out=y)
        for shift, mult in _STEPS:
            np.right_shift(y, shift, out=tmp)
            y ^= tmp
            y *= np.uint64(mult)
        return y

    def hash(self, location: int, qubit: int, tag: int = TAG_FAULT) -> np.ndarray:
        """The hash of every trial at this address, the vectorized
        counterpart of the hash inside :func:`uniform`."""
        return _finish(self._prefinal(location, qubit, tag))

    @staticmethod
    def below(h: np.ndarray, t: float) -> np.ndarray:
        """Positions of the hashes in ``h`` that stand for a uniform below
        ``t``."""
        bound = hash_bound(t)
        if bound > _MASK:
            return np.arange(h.shape[0])
        return (h < np.uint64(bound)).nonzero()[0]

    def draw(self, location: int, qubit: int, thresholds: Sequence[float]
             ) -> tuple[np.ndarray, np.ndarray]:
        """The fault draw at (location, qubit, ``TAG_FAULT``) for every trial:
        the positions of the trials whose uniform is below
        ``thresholds[-1]`` and, for each, the number of ``thresholds`` at or
        below its uniform (its class index).

        Only the trials whose pre-final word y is below the cut, the hash
        bound b rounded up to a multiple of 2^33, are finished and tested:
        the last xor-shift keeps bits 63..33, so h < b implies y >> 33 <=
        (b - 1) >> 33.  The test on them is exact, so the result is that of
        hashing every trial."""
        y = self._prefinal(location, qubit, TAG_FAULT)
        bound = hash_bound(thresholds[-1])
        cut = (((bound - 1) >> _KEPT_FROM) + 1) << _KEPT_FROM
        if cut > _MASK:
            cand = np.arange(y.shape[0])
        else:
            cand = np.less(y, np.uint64(cut), out=self._mask).nonzero()[0]
        h = _finish(y[cand])
        hit = self.below(h, thresholds[-1])
        return cand[hit], np.asarray(thresholds).searchsorted(
            to_uniform(h[hit]), side="right")


def draw_faults(seed: int, trials: np.ndarray,
                draws: Sequence[tuple[int, int, Sequence[float]]]
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every fault draw of ``draws`` (location, qubit, thresholds) for every
    trial, as :meth:`TrialHashes.draw` makes it: per draw, the int32 batch
    positions of the trials that draw a fault, ascending, and the uint8
    class index of each.

    The trials are hashed in blocks of ``_BLOCK``, every draw within a
    block, so the hashing buffers stay in cache.  Each hash is a function
    of its address alone, so the blocking changes no result."""
    trials = np.asarray(trials, dtype=np.uint64)
    parts: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in draws]
    # at least one block, so that every draw has a part to join
    for start in range(0, max(trials.shape[0], 1), _BLOCK):
        hashes = TrialHashes(seed, trials[start:start + _BLOCK])
        for (location, qubit, thresholds), blocks in zip(draws, parts):
            pos, which = hashes.draw(location, qubit, thresholds)
            blocks.append(((pos + start).astype(np.int32), which.astype(np.uint8)))
    out = []
    for blocks in parts:
        pos, which = zip(*blocks)
        out.append((np.concatenate(pos), np.concatenate(which)))
        blocks.clear()      # free each draw's blocks once joined
    return out


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
