"""A fixed reference computation that gauges how fast the host runs now.

The benchmark's host is shared, and neighbours change how fast the same
code runs: by up to 2x, for minutes at a time, in cycles per instruction
rather than in stolen time (CPU time moves with wall time).  ``run.py``
times this computation between jobs and reports each job's wall time as a
multiple of it (of the parts ``workloads.REFERENCE_PARTS`` names for the
workload), which cancels the host's speed but not the program's.

The computation never touches biasrep and its inputs are fixed, so no
change to the program moves it.  Its three parts mirror the three kinds of
work biasrep does: an interpreted loop over small dicts and tuples (the
scalar engine and the oracle), elementwise numpy on bool and uint64 arrays
of a Monte Carlo batch's size (the batch engine and keyed hashing), and
dense complex linear algebra through BLAS (channel norms).  Each part takes
about 0.1 s on the benchmark's host; together they take about 0.3 s.
"""

from __future__ import annotations

import time

import numpy as np

_ROWS, _COLS = 34, 1 << 17          # cnot(5,7) qubits x one batch of trials
_DIM = 256                          # a two-qubit channel's probe matrix
_rng = np.random.default_rng(20260)
_X = _rng.random((_ROWS, _COLS)) < 0.5
_Z = _rng.random((_ROWS, _COLS)) < 0.01
_M = _rng.standard_normal((_DIM, _DIM)) + 1j * _rng.standard_normal((_DIM, _DIM))
_MIX = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(29)


def _interpreted() -> int:
    counts: dict[tuple[int, int], int] = {}
    for i in range(450_000):
        key = (i & 1023, i & 7)
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def _elementwise() -> int:
    x, z = _X.copy(), _Z.copy()
    h = np.arange(_COLS, dtype=np.uint64)
    for _ in range(60):
        x ^= z
        z |= x[::-1]
        h = (h * _MIX) ^ (h >> _SHIFT)
    return int(h[-1] & np.uint64(1))


def _dense() -> float:
    total = 0.0
    for _ in range(9):
        total += float(np.linalg.eigvalsh(_M @ _M.conj().T)[-1])
    return total


PARTS = {"interpreted": _interpreted, "elementwise": _elementwise,
         "dense": _dense}


def time_parts(names: tuple[str, ...]) -> dict[str, float]:
    """Wall time of each named part, in seconds."""
    times = {}
    for name in names:
        start = time.perf_counter()
        PARTS[name]()
        times[name] = time.perf_counter() - start
    return times
