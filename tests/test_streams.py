import functools
import math
from bisect import bisect_left
from collections import Counter

import numpy as np
import pytest

from biasrep import streams
from biasrep.noise_model import FaultKind, FaultRow
from biasrep.streams import (_CELLS, _GOLDEN, _MASK, _MIX1, _MIX2, TAG_FAULT,
                             TAG_LEAK_CZ, fault_bounds, fault_hits, hash_bound,
                             keyed_hash, stream_key, trial_span, uniform,
                             uniform_vector)

from oracles import draw_faults

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
        h = keyed_hash(SEED, np.array([trial], dtype=np.uint64), LOC, QUBIT)
        assert int(h[0]) == target


@pytest.mark.parametrize("t", THRESHOLDS)
def test_bound_test_matches_uniform(t):
    bound = hash_bound(t)
    edges = [h for h in (bound - 1, bound, bound + 1) if 0 <= h <= _MASK]
    rng = np.random.default_rng(3)
    spread = rng.integers(0, 1 << 64, size=200, dtype=np.uint64, endpoint=False)
    near = [max(0, min(_MASK, bound + int(d))) for d in rng.integers(-5000, 5000, 50)]
    targets = edges + [int(h) for h in spread] + near
    trials = np.array([trial_with_hash(h) for h in targets], dtype=np.uint64)
    h = keyed_hash(SEED, trials, LOC, QUBIT)
    assert [int(x) for x in h] == targets
    expected = [i for i, trial in enumerate(trials)
                if uniform(SEED, int(trial), LOC, QUBIT) < t]
    assert [i for i, x in enumerate(targets) if x < bound] == expected
    for h in edges:
        assert (h < bound) == ((h >> 11) * 2.0**-53 < t)


@pytest.mark.parametrize("t", [1.0, 1.0 + 2.0**-52, 2.0, math.inf])
def test_threshold_at_least_one_selects_everything(t):
    trials = np.array([trial_with_hash(h) for h in (0, _MASK - 1, _MASK)]
                      + list(range(100)), dtype=np.uint64)
    assert hash_bound(t) == 1 << 64
    assert all(uniform(SEED, int(trial), LOC, QUBIT) < t for trial in trials)


def test_zero_threshold_selects_nothing():
    assert hash_bound(0.0) == 0
    assert uniform(SEED, trial_with_hash(0), LOC, QUBIT) == 0.0


def test_uniform_vector_on_fancy_indexed_trials():
    trials = np.arange(1000, 3000, dtype=np.uint64)
    idx = np.array([1999, 0, 17, 17, 512, 3])
    got = uniform_vector(SEED, trials[idx], LOC, QUBIT, TAG_LEAK_CZ)
    assert got.tolist() == [uniform(SEED, int(trials[i]), LOC, QUBIT, TAG_LEAK_CZ)
                            for i in idx]
    assert uniform_vector(SEED, trials[idx[:0]], LOC, QUBIT).shape == (0,)


def test_uniform_vector_with_an_address_per_trial():
    # location and qubit arrays give each trial its own address, as one
    # scalar draw each; a scalar beside an array broadcasts
    rng = np.random.default_rng(7)
    trials = rng.integers(0, 2**40, 300, dtype=np.uint64)
    locs = rng.integers(0, 4_000, 300)
    qubits = rng.integers(-1, 200, 300)
    for seed in (SEED, 2**64 - 1):
        got = uniform_vector(seed, trials, locs, qubits, TAG_LEAK_CZ)
        assert got.tolist() == [uniform(seed, int(t), int(loc), int(q), TAG_LEAK_CZ)
                                for t, loc, q in zip(trials, locs, qubits)]
    assert uniform_vector(SEED, trials, locs, QUBIT).tolist() == [
        uniform(SEED, int(t), int(loc), QUBIT) for t, loc in zip(trials, locs)]
    assert uniform_vector(SEED, trials[:0], locs[:0], qubits[:0]).shape == (0,)


# -- the sparse fault draws --------------------------------------------------

# Rows of the draw tests: one class at each of THRESHOLDS, table1's CPHASE
# row, a row of three classes whose last threshold lies above 1/2, and the
# raw thresholds of p = 0, which no FaultRow holds.
ROWS = [FaultRow.build([(FaultKind.Z, t)]).thresholds for t in THRESHOLDS] + [
    FaultRow.build([(FaultKind.Z, 1.96e-3), (FaultKind.X, 1.75e-6),
                    (FaultKind.Y, 1.75e-6), (FaultKind.LEAK, 3.5e-6)]).thresholds,
    FaultRow.build([(FaultKind.Z, 0.25), (FaultKind.X, 0.25),
                    (FaultKind.Y, 0.25 + 2.0**-40)]).thresholds,
    (0.0,),
]
STARTS = [0, 37, 12_345]
SIZES = [1, 63, 65, 130, 5_001]     # none a multiple of 64


def draws(rows=ROWS):
    return [(LOC, QUBIT, row) for row in rows]


@functools.lru_cache(maxsize=None)
def falling_powers(p: float) -> list[float]:
    """-(1 - p)^k for k = 1..64, by repeated multiplication: ascending."""
    powers, q = [], 1.0
    for _ in range(64):
        q *= max(1.0 - p, 0.0)
        powers.append(-q)
    return powers


@functools.lru_cache(maxsize=None)
def walked_word(word: int, thresholds: tuple, loc: int, qubit: int) -> dict[int, int]:
    """Reference for the fault draws of one 64-trial word from the stream's
    definition alone, in floats: the class of each bit that draws a fault.
    Round r of the word is the uniform at counter (word << 7) | (r << 1)
    (gap) or | 1 (class); the gap is the number of k in 1..64 with
    (1 - p)^k, by repeated multiplication, above it."""
    p = thresholds[-1]
    hits, start, rnd = {}, 0, 0
    while True:
        u = uniform(SEED, (word << 7) | (rnd << 1), loc, qubit)
        hit = start + bisect_left(falling_powers(p), -u)
        if hit >= 64:
            return hits
        uc = uniform(SEED, (word << 7) | (rnd << 1) | 1, loc, qubit)
        hits[hit] = sum(t / p <= uc for t in thresholds[:-1])
        start, rnd = hit + 1, rnd + 1


def walked_class(trial: int, thresholds, loc: int = LOC, qubit: int = QUBIT) -> int:
    """The class of the fault that ``trial`` draws at (loc, qubit), or -1,
    by :func:`walked_word`."""
    return walked_word(trial >> 6, tuple(thresholds), loc, qubit).get(trial & 63, -1)


@functools.lru_cache(maxsize=None)
def walked_classes(start: int) -> list[np.ndarray]:
    """For each of ROWS, the :func:`walked_class` of each of the trials
    start, start + 1, ... (max(SIZES) of them)."""
    return [np.array([walked_class(start + j, row) for j in range(max(SIZES))])
            for row in ROWS]


def as_pairs(pos: np.ndarray, which: np.ndarray) -> list[tuple[int, int]]:
    """A draw's hits as (position, class) pairs, by position."""
    return sorted(zip(pos.tolist(), which.tolist()))


@pytest.mark.parametrize("row", ROWS, ids=range(len(ROWS)))
def test_draw_faults_follows_the_word_walk(row):
    for trials in (range(200), range(12_345, 12_545)):
        want = [walked_class(t, row) for t in trials]
        alone = []
        for t in trials:
            [(_, which)] = draw_faults(SEED, range(t, t + 1), draws([row]))
            alone.append(int(which[0]) if which.size else -1)
        assert alone == want
        [(pos, which)] = draw_faults(SEED, trials, draws([row]))
        assert as_pairs(pos, which) == [(j, c) for j, c in enumerate(want) if c >= 0]


@pytest.mark.parametrize("row", [row for row in ROWS if row[-1] >= 0.5],
                         ids=str)
def test_a_span_stops_after_its_last_trial(row):
    # a span ending at each bit b of a word holds the whole word's hits at
    # bits 0..b, the one at b too
    first = 64 * 193
    [whole] = draw_faults(SEED, np.arange(first, first + 64, dtype=np.uint64),
                          draws([row]))
    for b in range(64):
        [got] = draw_faults(SEED, np.arange(first, first + b + 1, dtype=np.uint64),
                            draws([row]))
        assert as_pairs(*got) == [(j, c) for j, c in as_pairs(*whole) if j <= b]


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("size", SIZES)
def test_draw_faults_equals_scalar_per_trial(size, start):
    trials = np.arange(start, start + size, dtype=np.uint64)
    got = draw_faults(SEED, trials, draws())
    for (pos, which), classes in zip(got, walked_classes(start)):
        expected = np.flatnonzero(classes[:size] >= 0)
        assert pos.dtype == np.int32 and which.dtype == np.uint8
        assert as_pairs(pos, which) == list(zip(expected.tolist(),
                                                classes[expected].tolist()))


def test_certain_and_impossible_draws():
    trials = np.arange(12_345, 12_345 + 5_001, dtype=np.uint64)
    certain, never = draw_faults(SEED, trials, draws([(1.0,), (0.0,)]))
    assert sorted(certain[0].tolist()) == list(range(trials.size))
    assert not certain[1].any()
    assert never[0].size == never[1].size == 0
    for trial in (0, 63, 64, 12_345):
        certain, never = draw_faults(SEED, np.array([trial], dtype=np.uint64),
                                     draws([(1.0,), (0.0,)]))
        assert as_pairs(*certain) == [(0, 0)]
        assert never[0].size == 0


@pytest.mark.parametrize("split", [1, 37, 64 * 50 + 17, 9_999])
def test_spans_split_inside_a_word_add_up(split):
    n = 10_000
    whole = draw_faults(SEED, np.arange(n, dtype=np.uint64), draws())
    left = draw_faults(SEED, np.arange(split, dtype=np.uint64), draws())
    right = draw_faults(SEED, np.arange(split, n, dtype=np.uint64), draws())
    for w, a, b in zip(whole, left, right):
        assert as_pairs(*w) == as_pairs(*a) + as_pairs(b[0] + split, b[1])


@pytest.mark.parametrize("k", [1, _CELLS - 1, _CELLS, _CELLS + 1, 2 * _CELLS + 3,
                               3 * _CELLS + 4])
def test_trial_span_refuses_a_swap_anywhere(k):
    # trials k - 1 and k swapped: the span check must see it wherever it lies
    n = 3 * _CELLS + 5
    trials = np.arange(12_345, 12_345 + n, dtype=np.uint64)
    assert trial_span(trials) == trial_span(range(12_345, 12_345 + n)) == (12_345, n)
    trials[[k - 1, k]] = trials[[k, k - 1]]
    with pytest.raises(ValueError):
        trial_span(trials)
    with pytest.raises(ValueError):
        draw_faults(SEED, trials, draws())


@pytest.mark.parametrize("trials", [
    np.array([5, 6, 6, 7]),                     # a repeated trial
    np.array([5, 6, 7, 7]),                     # repeated at the end
    np.arange(9, 1, -1),                        # descending
    np.arange(8).reshape(2, 4),                 # 2-D
    range(0, 10, 2),                            # step 2
    range(4, 0, -1),
    range(-1, 3),                               # a negative start
    np.arange(-2, 3),
    np.array([0.0, 1.0]),                       # not integers
], ids=["repeat", "repeat-last", "descending", "2-d", "step-2", "step-minus-1",
        "negative-range", "negative-array", "floats"])
def test_trial_span_refuses_all_but_one_span(trials):
    with pytest.raises(ValueError):
        trial_span(trials)


def test_trial_span_accepts_empty_and_one_trial_spans():
    assert trial_span(range(7, 7)) == (7, 0)
    assert trial_span(np.zeros(0, np.uint64)) == (0, 0)
    assert trial_span(np.array([2**40], dtype=np.uint64)) == (2**40, 1)
    assert trial_span([3, 4, 5]) == (3, 3)
    for pos, which in draw_faults(SEED, range(7, 7), draws()):
        assert pos.size == which.size == 0


def test_fault_bounds_by_repeated_multiplication():
    p = 1.83e-3
    gaps, classes = fault_bounds((p,))
    power = 1.0
    for g in gaps:
        power *= 1.0 - p
        assert g == math.ceil(power * 2.0**53)
    assert classes == ()
    row = ROWS[-3]                 # table1's CPHASE row
    gaps, classes = fault_bounds(row)
    assert list(gaps) == sorted(gaps, reverse=True)
    assert classes == tuple(hash_bound(t / row[-1]) >> 11 for t in row[:-1])


def test_draws_add_no_stream_keys():
    # round and purpose are in the counter: one key per (location, qubit)
    stream_key.cache_clear()
    draw_faults(SEED, np.arange(10_000, dtype=np.uint64),
                [(loc, QUBIT, (0.5,)) for loc in range(20)])
    assert stream_key.cache_info().currsize == 20


# Per-word hit counts against Binomial(64, p): a chi-square test over the
# counts of expected frequency 5 or more (the rest pooled into the tails),
# at a fixed seed, failing below a p-value of 1e-4.
@pytest.mark.parametrize("p", [0.05, 0.5])
def test_hits_per_word_are_binomial(p):
    from scipy.stats import binom, chi2

    words = 1 << 14
    [(pos, _)] = draw_faults(SEED, np.arange(64 * words, dtype=np.uint64),
                             [(LOC, QUBIT, (p,))])
    counts = np.bincount(np.bincount(pos >> 6, minlength=words), minlength=65)
    expected = words * binom.pmf(np.arange(65), 64, p)
    keep = np.flatnonzero(expected >= 5)
    lo, hi = keep[0], keep[-1]
    observed = np.concatenate([[counts[:lo + 1].sum()], counts[lo + 1:hi],
                               [counts[hi:].sum()]])
    want = np.concatenate([[expected[:lo + 1].sum()], expected[lo + 1:hi],
                           [expected[hi:].sum()]])
    stat = ((observed - want) ** 2 / want).sum()
    assert chi2.sf(stat, len(want) - 1) > 1e-4


def test_class_shares_follow_the_row():
    from scipy.stats import chisquare

    row = ROWS[-2]          # 0.25, 0.5, 0.75 + 2^-40
    [(_, which)] = draw_faults(SEED, np.arange(1 << 18, dtype=np.uint64),
                               [(LOC, QUBIT, row)])
    counts = np.bincount(which, minlength=3)
    assert chisquare(counts).pvalue > 1e-4


def table1_x5_sites() -> tuple:
    """cnot(3,3) and its fault sites on table1 with every rate x5."""
    from biasrep.gadgets import build_logical_cnot
    from biasrep.noise_model import ErrorRateTable, Rates, default_rates

    table = ErrorRateTable(entries={
        k: Rates(5 * r.eps, 5 * r.eps_other, 5 * r.eps_leak)
        for k, r in default_rates().entries.items()})
    circuit = build_logical_cnot(3, 3)
    return circuit, table.sites(circuit)


def table1_x5_draws() -> list:
    """The fault draws of cnot(3,3) on table1 with every rate x5."""
    return [(s.location_id, s.qubit, s.row.thresholds)
            for sites in table1_x5_sites()[1] for s in sites]


def test_one_draw_per_group_changes_no_array(monkeypatch):
    # the grouping only bounds working memory: with one draw per group and
    # round 0 in 64-cell slices, every array and its order is unchanged
    trials = np.arange(37, 5_038, dtype=np.uint64)
    whole = draw_faults(SEED, trials, table1_x5_draws())
    monkeypatch.setattr(streams, "_LIVE", 1)
    monkeypatch.setattr(streams, "_CELLS", 64)
    split = draw_faults(SEED, trials, table1_x5_draws())
    assert len(split) == len(whole)
    for (pos, which), (want, want_which) in zip(split, whole):
        assert pos.dtype == np.int32 and which.dtype == np.uint8
        assert pos.tolist() == want.tolist()
        assert which.tolist() == want_which.tolist()


def table1_x5_layers() -> tuple[list, list[int]]:
    """The draws of :func:`table1_x5_draws` in layer order, as the batch
    engine walks them, and one past each layer's last draw."""
    from biasrep.pauli_frame import _build_hit_plan

    circuit, sites = table1_x5_sites()
    the_draws, ends = [], []
    for layer in _build_hit_plan(circuit, sites).layers:
        the_draws += [(s.location_id, s.qubit, s.row.thresholds)
                      for i in layer.locations for s in sites[i]]
        ends.append(len(the_draws))
    return the_draws, ends


# The pool's test inputs: table1 x5 on cnot(3,3), by layer, and the rows of
# ROWS with p >= 1/2, each at a location of its own and two to a "layer",
# whose cells stay live for many rounds; and trials in whole words, and a
# span that starts and ends inside a word.
HIGH_P = [row for row in ROWS if row[-1] >= 0.5]
POOL_TRIALS = {
    "words": np.arange(64 * 40, 64 * 120, dtype=np.uint64),
    "inside": np.arange(37, 5_038, dtype=np.uint64),
}


def pool_draws(inputs: str) -> tuple[list, list[int]]:
    if inputs == "x5":
        return table1_x5_layers()
    n = len(HIGH_P)
    return [(LOC + i, QUBIT, row) for i, row in enumerate(HIGH_P)], [
        *range(2, n, 2), n]


@pytest.mark.parametrize("inputs", ["x5", "high-p"])
@pytest.mark.parametrize("trials", list(POOL_TRIALS))
def test_pool_and_hand_off_sizes_change_no_array(monkeypatch, inputs, trials):
    # the pool's admission size and the cuts at which the walk hands on its
    # hits only bound working memory: with one draw per group and round 0
    # in 64-cell slices, a pool that takes in a group only once empty, one
    # that takes in every group at once and one that takes in a group
    # beside cells many rounds on, each cut after every draw, after every
    # layer or only at the end, each piece holds the hits of its draws
    # alone, and they give every draw's arrays in their order
    trials = POOL_TRIALS[trials]
    the_draws, layers = pool_draws(inputs)
    whole = draw_faults(SEED, trials, the_draws)
    for (pos, which), (loc, qubit, row) in zip(whole, the_draws):
        classes = [walked_class(int(t), row, loc, qubit) for t in trials]
        assert as_pairs(pos, which) == [(j, c) for j, c in enumerate(classes) if c >= 0]
    monkeypatch.setattr(streams, "_LIVE", 1)
    monkeypatch.setattr(streams, "_CELLS", 64)
    n = len(the_draws)
    for admit in (1, 40, 1 << 40):
        monkeypatch.setattr(streams, "_ADMIT", admit)
        for cuts in (range(1, n + 1), layers, [n]):
            pieces = list(fault_hits(SEED, trials, the_draws, cuts))
            assert len(pieces) == len(cuts)
            for (d, pos, which), lo, hi in zip(pieces, [0, *cuts], cuts):
                assert d.dtype == np.min_scalar_type(n)
                assert pos.dtype == np.int32 and which.dtype == np.uint8
                assert ((lo <= d) & (d < hi)).all()
            d, pos, which = (np.concatenate(a) for a in zip(*pieces))
            order = np.argsort(d, kind="stable")
            ends = np.cumsum(np.bincount(d, minlength=n)).tolist()
            for i, (a, b) in enumerate(zip([0, *ends], ends)):
                assert pos[order[a:b]].tolist() == whole[i][0].tolist()
                assert which[order[a:b]].tolist() == whole[i][1].tolist()


# The gap tests' rows beside ROWS: p <= 1e-6, whose 64 bounds share one
# bucket, and p >= 1/2, whose bounds crowd near 0.
GAP_ROWS = ROWS + [(1e-9,), (1e-6,), (0.75,), (0.999,)]


@pytest.mark.parametrize("rows", [GAP_ROWS] + [[row] for row in GAP_ROWS if row[-1]],
                         ids=["stacked"] + [str(row[-1]) for row in GAP_ROWS if row[-1]])
def test_gap_counts_the_entries_above_each_hash(rows):
    # the tables of ``rows``, stacked as fault_hits stacks them, at each
    # hash that hits (none does at p = 0): 0, 2^53 - 1, each entry and its
    # neighbours, and each bucket's edges; the count is the entries above
    # the hash
    tables = [fault_bounds(row)[0] for row in rows]
    edges = {(b << 43) + e for b in range(1 << 10) for e in (-1, 0)}
    cells = []
    for r, table in enumerate(tables):
        hashes = {0, (1 << 53) - 1} | {g + e for g in table for e in (-1, 0, 1)}
        cells += [(64 * r, h, sum(g > h for g in table))
                  for h in sorted(hashes | edges) if table[-1] <= h < 1 << 53]
    assert {row // 64 for row, _, _ in cells} == {
        r for r, row in enumerate(rows) if row[-1] > 0}
    row, h, want = zip(*cells)
    _, top, levels = streams._stacked(tuple(rows))[:3]
    got = streams._gap(top, levels, np.array(row, dtype=np.intp),
                       np.array(h, dtype=np.uint64))
    assert got.tolist() == list(want)
    # the levels finish the most entries that share a bucket
    most = max(max(Counter(g >> 43 for g in table if g).values(), default=0)
               for table in tables)
    assert [s for s, _ in levels] == [1 << k for k in reversed(range(most.bit_length()))]


def test_gap_buckets_at_the_extremes():
    # p <= 1e-6 puts all 64 bounds in the top bucket; p >= 1/2 crowds them
    # into bucket 0; table1 and table1 x5 leave at most one in any bucket,
    # so one compare finishes each count
    for p in (1e-9, 1e-6):
        assert {g >> 43 for g in fault_bounds((p,))[0]} == {(1 << 10) - 1}
    assert sum(g >> 43 == 0 for g in fault_bounds((0.75,))[0]) > 32
    from biasrep.gadgets import build_logical_cnot
    from biasrep.noise_model import default_rates

    x5 = {row for *_, row in table1_x5_draws()}
    table1 = {s.row.thresholds for sites in default_rates().sites(
        build_logical_cnot(5, 7)) for s in sites}
    for rows in (x5, table1):
        assert [s for s, _ in streams._stacked(tuple(sorted(rows)))[2]] == [1]


def test_a_group_with_no_hit_returns_empty_arrays():
    got = draw_faults(SEED, np.arange(1_000, dtype=np.uint64),
                      draws([(0.0,)] * 3))
    assert len(got) == 3
    for pos, which in got:
        assert pos.dtype == np.int32 and which.dtype == np.uint8
        assert pos.size == which.size == 0


def test_a_group_of_more_than_256_draws():
    # 300 draws at p = 0.01 over two words form one group, so draw indices
    # within it pass 255
    rows = [(0.004, 0.01), (0.01,), (0.003, 0.006, 0.01)]
    many = [(loc, QUBIT, rows[loc % 3]) for loc in range(300)]
    trials = np.arange(64, 192, dtype=np.uint64)
    got = draw_faults(SEED, trials, many)
    assert len(got) == len(many)
    for (pos, which), (loc, qubit, row) in zip(got, many):
        classes = [walked_class(int(t), row, loc, qubit) for t in trials]
        expected = [(j, c) for j, c in enumerate(classes) if c >= 0]
        assert as_pairs(pos, which) == expected
    assert sum(pos.size for pos, _ in got[256:]) > 0
