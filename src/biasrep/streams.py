"""Keyed, counter-based random streams for reproducible parallel Monte Carlo.

Every random decision in a simulation is addressed by integers, (seed,
location, qubit, purpose) and a counter, and hashed through the splitmix64
finalizer.  Draws are therefore independent of evaluation order, batch
size, and worker count: trial 7 sees the same faults whether it runs
alone, inside a vectorized batch, or on another process.

Stream v2 (``STREAM_VERSION``).  A leak coin is keyed per trial: its
counter is the trial index.  A fault draw is sampled sparsely, per
absolute 64-trial word (``trial >> 6``): its counter is ``(word << 7) |
(round << 1) | purpose``.  Round 0 of a word hashes once and compares
against the bound of ``(1 - p)^64``, the chance that none of its 64
trials draws a fault, so most words end there.  A word with a hit takes
one round per hit: its gap hash gives the number of trials skipped before
the next hit, by a table of integer bounds, and its class hash the hit's
fault class.  One function walks these rounds, :func:`fault_hits`, for a
batch of trials and for a single trial alike; as the round is in the
counter, it steps the cells of many draws at different rounds as one
pool, one hash per cell a step.  It hands on its hits at cuts in the list
of draws that its caller sets, each piece once the walk has finished the
draws before the cut: the batch engine cuts at each layer's end and
applies a layer's hits while the later draws are still being made, and
the scalar engine (``noise_model.trial_hits``) walks one trial with one
cut, at the end, and sorts its hits by draw.  A span of trials that starts
inside a word walks that word from its first bit, with the same keys as
any other span; a span that ends inside a word stops after its last trial;
the hits outside the span are dropped.

A per-trial draw (:func:`uniform`, :func:`uniform_vector`,
:func:`keyed_hash`) at the default tag ``TAG_FAULT`` reads the very hash
of the fault draw at that (location, qubit) whose counter equals the trial
index: trial 387 is round 1's class hash of word 3.  No simulation draw
uses that tag per trial; only picks made outside a simulation (a fault
site to inject into a noiseless run) use the default.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Sequence

import numpy as np

STREAM_VERSION = 2

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Draw purposes within one (location, qubit) cell.
TAG_FAULT = 0        # fault draws (sparse, per 64-trial word)
TAG_LEAK_OUTCOME = 1 # random outcome when measuring a leaked qubit
TAG_LEAK_CZ = 2      # random dephasing of the partner of a leaked qubit

# The splitmix64 finalizer: shift-xor-multiply steps, then a last xor-shift.
_STEPS = ((30, _MIX1), (27, _MIX2))
_LAST_SHIFT = 31

_WORD = 64           # trials per word of a fault draw
_CLASS = 1           # purpose of a round's class hash; its gap hash's is 0

# fault_hits hashes round 0 in slices of about _CELLS (draw, word) cells,
# a group of draws with about _LIVE cells that hit at a time, and steps the
# later rounds of every group in one pool of live cells, which takes in the
# next group once it holds fewer than _ADMIT cells.  It hands on the hits of
# finished draws at each cut its caller sets.  So its arrays stay near
# 128 KiB or below: in cache, and small enough that the heap reuses them
# (larger ones, a larger pool or a later hand-off raised the Monte Carlo
# jobs' peak RSS).
_CELLS = 1 << 14
_LIVE = 1 << 13
_ADMIT = 1 << 10

# A gap hash's bucket is its top _BUCKET_BITS of 53 bits (see _gap).
_BUCKET_BITS = 10
_BUCKET_SHIFT = 53 - _BUCKET_BITS


def _mix(x: int) -> int:
    x &= _MASK
    for shift, mult in _STEPS:
        x = ((x ^ (x >> shift)) * mult) & _MASK
    return x ^ (x >> _LAST_SHIFT)


def _mix_array(y: np.ndarray) -> np.ndarray:
    """:func:`_mix` on a uint64 array, in place."""
    tmp = np.empty_like(y)
    for shift, mult in _STEPS:
        np.right_shift(y, shift, out=tmp)
        y ^= tmp
        y *= np.uint64(mult)
    np.right_shift(y, _LAST_SHIFT, out=tmp)
    y ^= tmp
    return y


@functools.lru_cache(maxsize=1 << 13)
def stream_key(seed: int, location: int, qubit: int, tag: int) -> int:
    """Collapse an address into a 64-bit stream key.  It does not depend on
    the counter, so it is cached: the cache holds every address a trial of
    cnot(9, 11) with pre-teleport can draw at (about 4,700), and a scalar
    draw pays one mix per hash it makes."""
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


def _stream_keys(seed: int, location: np.ndarray, qubit: np.ndarray,
                 tag: int) -> np.ndarray:
    """:func:`stream_key` of each (location, qubit) pair of two int arrays,
    by the same mixes on uint64 arrays."""
    y = np.multiply(location, _GOLDEN, dtype=np.uint64, casting="unsafe")
    y ^= np.uint64(_mix(seed & _MASK))
    y = _mix_array(y)
    y ^= np.multiply(qubit, _MIX1, dtype=np.uint64, casting="unsafe")
    y = _mix_array(y)
    y ^= np.uint64(tag)
    return _mix_array(y)


def keyed_hash(seed: int, trials: np.ndarray, location: int | np.ndarray,
               qubit: int | np.ndarray, tag: int = TAG_FAULT) -> np.ndarray:
    """The hash of every counter of ``trials`` at the address, the
    vectorized counterpart of the hash inside :func:`uniform`.
    ``location`` and ``qubit`` are ints, or int arrays of the shape of
    ``trials`` that give each counter an address of its own."""
    y = np.asarray(trials, dtype=np.uint64) * np.uint64(_GOLDEN)
    if np.ndim(location) or np.ndim(qubit):
        y += _stream_keys(seed, *np.broadcast_arrays(location, qubit), tag)
    else:
        y += np.uint64(stream_key(seed, location, qubit, tag))
    return _mix_array(y)


def uniform(seed: int, trial: int, location: int, qubit: int,
            tag: int = TAG_FAULT) -> float:
    """One double in [0, 1) for the addressed decision.  At the default
    ``TAG_FAULT`` it shares its hashes with the fault draws at (location,
    qubit), counter = trial (see the module docstring), so a per-trial
    draw in a simulation takes a tag of its own."""
    key = stream_key(seed, location, qubit, tag)
    return to_uniform(_mix((key + trial * _GOLDEN) & _MASK))


def uniform_vector(seed: int, trials: np.ndarray, location: int | np.ndarray,
                   qubit: int | np.ndarray, tag: int = TAG_FAULT) -> np.ndarray:
    """Vectorized :func:`uniform` over an array of trial indices, at one
    address or, as in :func:`keyed_hash`, at one address per trial."""
    return to_uniform(keyed_hash(seed, trials, location, qubit, tag))


# ---------------------------------------------------------------------------
# Sparse fault draws
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1 << 8)
def fault_bounds(thresholds: tuple[float, ...]
                 ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The bounds on a hash's top 53 bits (``h >> 11``) of a fault draw
    whose classes have these running-sum thresholds (a ``FaultRow``'s),
    p = ``thresholds[-1]`` the chance of a fault.

    ``gaps[g]`` bounds (1 - p)^(g + 1), the chance that the next g + 1
    trials draw no fault, so a gap hash skips as many trials as there are
    entries above it.  The powers are built by repeated IEEE
    multiplication, not ``pow`` or ``log``, so the table is the same on
    every host.  ``classes[i]`` bounds ``thresholds[i] / p``: a hit's class
    is the number of them at or below its class hash."""
    p = thresholds[-1]
    stay = max(1.0 - p, 0.0)
    power, gaps = 1.0, []
    for _ in range(_WORD):
        power *= stay
        gaps.append(hash_bound(power) >> 11)
    classes = [hash_bound(t / p) >> 11 for t in thresholds[:-1]] if p > 0 else []
    return tuple(gaps), tuple(classes)


def trial_span(trials: range | np.ndarray) -> tuple[int, int]:
    """(first, size) of a batch that is one span of trials >= 0: a step-1
    ``range``, or a 1-D integer array (empty, or ascending by one).  Raises
    ``ValueError`` for anything else: batch position j is trial first + j."""
    if isinstance(trials, range):
        if trials.step == 1 and trials.start >= 0:
            return trials.start, len(trials)
    else:
        a = np.asarray(trials)
        if a.ndim == 1 and not a.size:
            return 0, 0
        if (a.ndim == 1 and np.issubdtype(a.dtype, np.integer) and a[0] >= 0
                and int(a[-1]) - int(a[0]) == a.size - 1 and (np.diff(a) == 1).all()):
            return int(a[0]), a.size
    raise ValueError("trials must be one span of consecutive trials >= 0")


def _gap(top: np.ndarray, levels: Sequence[tuple[int, np.ndarray]],
         row: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The entries of each cell's 64-entry table (table ``row / 64``) above
    its hash ``h``: at most 63, as the cell is known to hit.  The entries
    descend.  The hash's bucket, its top 10 bits, gives the count of the
    entries above the bucket, at ``top[16 * row + (h >> 43)]``; the entries
    inside the bucket come next, and ``levels`` count those above h by
    binary search, a level per bit of the most entries that one bucket of
    one table holds: level (s, bounds) adds s when ``bounds[at]``, the
    table's entry at at + s - 1 (0 past the table's end), is above h."""
    at = (h >> np.uint64(_BUCKET_SHIFT)).view(np.intp)
    at += row << (_BUCKET_BITS - 6)          # table r's buckets start at 1024 r
    np.add(row, top[at], out=at)
    for s, bounds in levels:
        above = bounds[at] > h
        at += above if s == 1 else above * s
    at -= row
    return at


@functools.lru_cache(maxsize=1 << 6)
def _stacked(rows: tuple[tuple[float, ...], ...]) -> tuple:
    """The read-only tables of :func:`fault_hits` for these distinct rows
    (thresholds), table r at index 64r, a cell's ``row``: each table's round
    0 bound; the bucket counts and the levels of :func:`_gap`; at row + b,
    the bound of a further hit after one at bit b (63 - b trials; above
    every hash at b = 63); at ``row``, one per class past the first, the
    class bounds, padded with 2^53; and the share of each row's cells that
    hit in round 0."""
    tables = [fault_bounds(t) for t in rows]
    gaps = np.array([g for g, _ in tables], dtype=np.uint64)
    # per row and bucket, the entries in it (the zeros, never above a hash,
    # left out; p = 0's 2^53, above every hash, in a last bucket) and the
    # entries above it
    n_buckets = 1 << _BUCKET_BITS
    bucket = (gaps >> np.uint64(_BUCKET_SHIFT)).astype(np.intp)
    bucket += np.arange(len(rows))[:, None] * (n_buckets + 1)
    inside = np.bincount(bucket[gaps > 0], minlength=len(rows) * (n_buckets + 1))
    inside = inside.reshape(len(rows), n_buckets + 1)
    top = np.cumsum(inside[:, :0:-1], axis=1)[:, ::-1].astype(np.uint8).ravel()
    span = int(inside[:, :-1].max())
    levels = []
    for k in reversed(range(span.bit_length())):
        bounds = np.zeros_like(gaps)
        bounds[:, :_WORD - (1 << k) + 1] = gaps[:, (1 << k) - 1:]
        levels.append((1 << k, bounds.ravel()))
    after = np.full_like(gaps, _MASK)
    after[:, :-1] = gaps[:, -2::-1]
    width = max(len(c) for _, c in tables)
    classes = np.zeros((width, gaps.size), dtype=np.uint64)
    classes[:, ::_WORD] = np.array(
        [c + (1 << 53,) * (width - len(c)) for _, c in tables], dtype=np.uint64).T
    last, after = gaps[:, -1].copy(), after.ravel()
    for a in (last, top, *(b for _, b in levels), after, classes):
        a.flags.writeable = False
    return (last, top, tuple(levels), after, classes,
            tuple(1.0 - g[-1] * 2.0**-53 for g, _ in tables))


def fault_hits(seed: int, trials: range | np.ndarray,
               draws: Sequence[tuple[int, int, Sequence[float]]], cuts: Sequence[int]
               ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every fault draw of ``draws`` (location, qubit, thresholds) for every
    trial of the span ``trials`` (see :func:`trial_span`), yielded in
    pieces: for each cut c of ``cuts`` (ascending, the last one
    ``len(draws)``), the hits of the draws from the previous cut (or 0) up
    to c, as soon as the walk has finished those draws.  A piece is three
    flat arrays, one entry per hit: its draw's index (in the smallest
    unsigned type that holds ``len(draws)``), its trial's int32 batch
    position and its uint8 class index.  A draw's hits come in round order,
    then word order; the draws' hits are interleaved.

    The draws are sampled per (draw, word) cell.  Round 0 hashes every cell,
    a group of draws at a time; the cells that hit join one pool of live
    cells, and each step of the pool takes every cell in it one round on,
    keeping those whose round hits again, so a sparse draw costs about one
    hash per 64 trials.  The next group joins once the pool holds fewer
    than ``_ADMIT`` cells, so the cells of several groups, at different
    rounds, share a step.  A cell carries its round in its hash key.  Each
    hash is a function of its address alone, so neither the grouping nor
    the batch nor the cuts change a hit.  No draws cost nothing."""
    first, size = trial_span(trials)
    empty = (np.zeros(0, np.min_scalar_type(len(draws))), np.zeros(0, np.int32),
             np.zeros(0, np.uint8))
    if not (draws and size):
        for _ in cuts:
            yield empty
        return
    words = np.arange(first >> 6, ((first + size - 1) >> 6) + 1, dtype=np.uint64)
    n_words = words.size
    base = (words << np.uint64(7)) * np.uint64(_GOLDEN)
    # offsets (64 per word) of the span's first trial and one past its last
    skip = first & (_WORD - 1)
    stop = skip + size
    partial = bool(skip or stop & (_WORD - 1))
    keys = np.array([stream_key(seed, location, qubit, TAG_FAULT)
                     for location, qubit, _ in draws], dtype=np.uint64)
    rows: dict[tuple, int] = {}
    row_index = [rows.setdefault(tuple(t), len(rows)) for *_, t in draws]
    row_of = np.array(row_index, dtype=np.intp) * _WORD
    last, top, levels, after, classes, share = _stacked(tuple(rows))
    any_hit = last[row_index]           # round 0's bound, per draw
    # Groups of draws of about _LIVE cells with a hit in round 0 (a
    # fraction 1 - (1 - p)^64 of a draw's cells), each of one draw or more
    groups, g0, live = [], 0, 0.0
    for d, r in enumerate(row_index):
        expect = n_words * share[r]
        if live + expect > _LIVE and d > g0:
            groups.append(g0)
            g0, live = d, 0.0
        live += expect
    groups += [g0, len(draws)]
    per = max(1, _CELLS // n_words)     # draws per slice of round 0

    def round0(d0: int, d1: int):
        """The cells of draws [d0, d1) that hit in round 0, in (draw, word)
        order: their draws, words and gap hashes (top 53 bits)."""
        cells, hs = [], []
        for s0 in range(d0, d1, per):
            s1 = min(s0 + per, d1)
            h = _mix_array(keys[s0:s1, None] + base).ravel()
            h >>= np.uint64(11)
            cell = (h.reshape(s1 - s0, n_words)
                    >= any_hit[s0:s1, None]).ravel().nonzero()[0]
            hs.append(h[cell])
            cells.append(cell + s0 * n_words)
        d, w = np.divmod(np.concatenate(cells), n_words)
        return d, w, np.concatenate(hs)

    # The pool, in (draw, word) order, as the groups join in draw order and
    # a step keeps its cells in order: per cell its draw (of a piece's
    # type), the key of its round's gap hash (the round is in the key, so
    # cells at any round share a step), that hash, its next trial's offset
    # (64 per word) and its table row.
    d = empty[0]
    key, h = np.zeros(0, np.uint64), np.zeros(0, np.uint64)
    at, row = np.zeros(0, np.intp), np.zeros(0, np.intp)
    # per step: each hit's draw, batch position and class, in draw order, so
    # the hits before a cut are a prefix of each step's
    held: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    cuts = iter(cuts)
    cut = next(cuts, None)
    g = 0
    while cut is not None:
        while d.size < _ADMIT and g < len(groups) - 1:
            nd, nw, nh = round0(groups[g], groups[g + 1])
            g += 1
            d = np.concatenate((d, nd.astype(d.dtype)))
            key = np.concatenate((key, keys[nd] + base[nw]))
            h = np.concatenate((h, nh))
            at = np.concatenate((at, nw * _WORD))
            row = np.concatenate((row, row_of[nd]))
            del nd, nw, nh
        if d.size:
            # every cell here hits in its round, at trial offset ``at``
            at += _gap(top, levels, row, h)
            if len(classes):
                hc = _mix_array(key + np.uint64(_CLASS * _GOLDEN & _MASK))
                hc >>= np.uint64(11)
                # the bounds ascend, so only a hit past one bound can pass
                # the next
                cls = (hc >= classes[0][row]).view(np.uint8)
                past = cls.nonzero()[0]
                for bounds in classes[1:]:
                    past = past[hc[past] >= bounds[row[past]]]
                    cls[past] += 1
                del hc, past
            else:
                cls = np.zeros(d.size, dtype=np.uint8)
            src = ((at >= skip) & (at < stop)).nonzero()[0] if partial else slice(None)
            step = (d[src], (at[src] - skip).astype(np.int32), cls[src])
            if step[0].size:
                held.append(step)
            del cls, step, src
            # the next round's gap hash, and whether it hits in the trials left
            key += np.uint64(2 * _GOLDEN & _MASK)     # the counter steps by 2
            np.copyto(h, key)
            h = _mix_array(h)
            h >>= np.uint64(11)
            bound = at & (_WORD - 1)
            bound += row
            hit = h >= after[bound]
            del bound
            at += 1
            if partial:
                hit &= at < stop
            keep = hit.nonzero()[0]
            d = d[keep]
            key = key[keep]
            h = h[keep]
            at = at[keep]
            row = row[keep]
            del hit, keep
        # the first draw with a cell live or still to join (past the last
        # group, none: every cut left is ready)
        if d.size:
            low = int(d[0])
        else:
            low = groups[g] if g + 1 < len(groups) else math.inf
        while cut is not None and cut <= low:
            ends = [step[0].size if step[0][-1] < cut
                    else int(np.count_nonzero(step[0] < cut)) for step in held]
            yield tuple(np.concatenate([empty[k], *(step[k][:e] for step, e
                                                    in zip(held, ends))])
                        for k in range(3))
            held = [tuple(a[e:] for a in step) for step, e in zip(held, ends)
                    if e < step[0].size]
            cut = next(cuts, None)


class FaultStream:
    """Per-trial view of the keyed stream: the (seed, trial) address of one
    trial, whose leak coins :meth:`uniform` draws."""

    __slots__ = ("seed", "trial")

    def __init__(self, seed: int, trial: int = 0):
        self.seed = int(seed)
        self.trial = int(trial)

    def uniform(self, location: int, qubit: int, tag: int = TAG_FAULT) -> float:
        return uniform(self.seed, self.trial, location, qubit, tag)
