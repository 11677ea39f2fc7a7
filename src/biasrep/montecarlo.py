"""Majority decoding, Monte Carlo logical-error estimation, and an exact
small-instance fault-enumeration oracle.

A trial is classified by combining the run's residual output frame with the
corrections derived from the (majority-decoded) measurement outcomes:

* logical phase error: the Z-pattern on an output block, after applying any
  recorded logical-Z correction (Z on every block qubit), has weight above
  n/2, i.e. it majority-decodes to the coded Z operator;
* logical bit-flip error: the X-parity of the block (X-type components mod
  the code's X-pair stabilizers) disagrees with the recorded logical-X
  correction;
* leaked output: any output-block qubit ends leaked.  Leakage cannot be
  corrected by the code, so by default it is folded into the non-phase
  logical rate while remaining separately visible on the trial flags.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Sequence

import numpy as np

from .gadgets import Circuit, assert_valid
from .noise_model import (EFFECTS, ErrorRateTable, FaultEvent, FaultSite,
                          zero_rates)
from .pauli_frame import (BatchRunResult, LeakPolicy, RunResult,
                          run_circuit, run_circuit_batch, unpack_words)


def _at_least(bits: Sequence, k: int):
    """Whether at least ``k`` of the bits are set, elementwise.  Each bit may
    be a single bit, a boolean array or a row of packed uint64 words (all of
    one kind); only ``&`` and ``|`` are used.  ``reach[j]`` says that at
    least j + 1 of the bits seen so far are set; each new bit is sorted into
    that column by compare-exchanges (``|`` keeps the larger, ``&`` carries
    the smaller down), and levels past k are dropped."""
    reach = []
    for b in bits:
        carry = b | False       # one read of b (a strided row is copied)
        for j, level in enumerate(reach):
            reach[j], carry = level | carry, level & carry
        if len(reach) < k:
            reach.append(carry)
    return reach[k - 1] if len(reach) == k else False


def majority(bits: Sequence) -> bool | np.ndarray:
    """Majority value of an odd-length list of bits.  The bits may also be
    equal-shape boolean arrays or rows of packed words (one per bit, over
    trials); the majority is then taken elementwise."""
    if len(bits) % 2 == 0:
        raise ValueError(f"majority needs an odd number of bits, got {len(bits)}")
    maj = _at_least(bits, len(bits) // 2 + 1)
    return maj if isinstance(maj, np.ndarray) else bool(maj)


@dataclass(frozen=True)
class TrialResult:
    logical_z_error: bool
    logical_x_error: bool
    leaked_output: bool


@dataclass(frozen=True)
class RateEstimate:
    mean: float
    stderr: float
    trials: int
    seed: int

    @staticmethod
    def from_counts(errors: int, trials: int, seed: int) -> "RateEstimate":
        mean = errors / trials
        return RateEstimate(mean, math.sqrt(mean * (1.0 - mean) / trials),
                            trials, seed)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def _decode(circuit: Circuit, bits, x, z, leaked):
    """The logical-error rule, for one trial or for a batch.

    ``bits[location]`` is a measurement outcome and ``x[q]``, ``z[q]``,
    ``leaked[q]`` the output frame of qubit q; each is a bit (one trial), a
    boolean array over the trials of a batch or a row of packed words
    (:func:`~biasrep.pauli_frame.unpack_words`).  Only ``^``, ``&`` and
    ``|`` are used, which mean the same for all three.  Returns the flags
    (logical_z, logical_x, leaked_output).
    """
    maj = {name: majority([bits[loc] for loc in ids])
           for name, ids in circuit.groups.items()}
    corr = {}
    for c in circuit.corrections:
        for src in c.sources:
            corr[c.pauli, c.block] = corr.get((c.pauli, c.block), False) ^ maj[src]
    lz = lx = lk = False
    for block in circuit.output_blocks:
        z_corr = corr.get(("Z", block.name), False)
        xpar = corr.get(("X", block.name), False)
        for q in block.qubits:
            xpar = xpar ^ x[q]
            lk = lk | leaked[q]
        # Z pattern after Z on all n, of weight above n/2
        lz = lz | _at_least([z[q] ^ z_corr for q in block.qubits],
                            len(block.qubits) // 2 + 1)
        lx = lx | xpar
    return lz, lx, lk


def classify_batch(circuit: Circuit, result: BatchRunResult
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized trial classification; returns boolean arrays
    (logical_z, logical_x, leaked_output), each of shape [B].  A result
    that holds packed words is decoded on the words, 64 trials to an
    operation, and only the three flags are unpacked."""
    packed = result.words
    rows = result if packed is None else packed
    unflagged = np.zeros(rows.frame_x.shape[1],
                         dtype=bool if packed is None else np.uint64)
    flags = (unflagged | flag for flag in _decode(
        circuit, dict(zip(result.meas_locations, rows.outcome_bits)),
        rows.frame_x, rows.frame_z, rows.frame_leaked))
    if packed is None:
        return tuple(flags)
    # unpack_words drops the last word's bits past the batch
    return tuple(unpack_words(flag, len(result.trials)) for flag in flags)


def classify_run(circuit: Circuit, result: RunResult) -> TrialResult:
    """Scalar counterpart of :func:`classify_batch`."""
    frame = result.frame
    return TrialResult(*map(bool, _decode(circuit, result.outcomes.bits,
                                          frame.x, frame.z, frame.leaked)))


def run_trial(gadget: Circuit, rates: ErrorRateTable, seed: int,
              trial_index: int = 0, *,
              forced_faults: Sequence[FaultEvent] = (),
              leak_policy: LeakPolicy | str = LeakPolicy.RANDOM_Z,
              validate: bool = True) -> TrialResult:
    """Execute one trial and classify the residual logical error."""
    result = run_circuit(gadget, rates, seed, trial=trial_index,
                         forced_faults=forced_faults, leak_policy=leak_policy,
                         validate=validate)
    return classify_run(gadget, result)


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialCounts:
    trials: int
    logical_z: int
    logical_x: int
    leaked: int
    logical_other: int     # logical_x OR leaked (leakage folded in)

    def __add__(self, other: "TrialCounts") -> "TrialCounts":
        return TrialCounts(self.trials + other.trials,
                           self.logical_z + other.logical_z,
                           self.logical_x + other.logical_x,
                           self.leaked + other.leaked,
                           self.logical_other + other.logical_other)


# Trials per batch of count_trials; it bounds the batch's working arrays
# (trial indices, 8 bytes per trial, and the fault hits, 5 bytes per fault;
# the keyed hashes take a fixed 768 KiB block).
_BATCH_SIZE = 1 << 17


def _count_batch(gadget: Circuit, rates: ErrorRateTable, seed: int,
                 lo: int, hi: int, leak_policy: LeakPolicy | str,
                 validate: bool) -> TrialCounts:
    """Classify trials [lo, hi) as one batch, decoded on its packed words.
    Every array of the batch is freed on return, before the next batch is
    built."""
    lz, lx, leaked = classify_batch(gadget, run_circuit_batch(
        gadget, rates, seed, np.arange(lo, hi, dtype=np.uint64),
        leak_policy=leak_policy, validate=validate))
    return TrialCounts(hi - lo, *(int(np.count_nonzero(flag))
                                  for flag in (lz, lx, leaked, lx | leaked)))


def count_trials(gadget: Circuit, rates: ErrorRateTable, seed: int,
                 trial_start: int, trial_stop: int, *,
                 leak_policy: LeakPolicy | str = LeakPolicy.RANDOM_Z) -> TrialCounts:
    """Classify trials [trial_start, trial_stop) in packed batches, one
    alive at a time.  Results depend only on absolute trial indices, never
    on batching."""
    total = TrialCounts(0, 0, 0, 0, 0)
    for lo in range(trial_start, trial_stop, _BATCH_SIZE):
        total = total + _count_batch(gadget, rates, seed, lo,
                                     min(lo + _BATCH_SIZE, trial_stop),
                                     leak_policy, lo == trial_start)
    return total


def estimate_logical_rates(gadget: Circuit, rates: ErrorRateTable,
                           trials: int, seed: int, *,
                           leak_policy: LeakPolicy | str = LeakPolicy.RANDOM_Z,
                           include_leaked: bool = True, workers: int = 1
                           ) -> tuple[RateEstimate, RateEstimate]:
    """Monte Carlo estimates of the logical phase-error rate and the logical
    non-phase rate (X/Y-type, plus leaked outputs unless disabled).  More
    than one worker splits the trials into that many spans, counted in a
    pool of at most ``os.cpu_count()`` processes; draws are keyed by trial
    index and counts add, so the estimates depend on neither."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    edges = [trials * i // workers for i in range(workers + 1)]
    spans = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]
    if len(spans) > 1:
        # imported on use: it costs 12-17 ms (2-core Xeon) that no import of
        # the package should pay
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(len(spans),
                                                 os.cpu_count() or 1)) as pool:
            futures = [pool.submit(count_trials, gadget, rates, seed, lo, hi,
                                   leak_policy=leak_policy)
                       for lo, hi in spans]
            counts = sum((f.result() for f in futures), TrialCounts(0, 0, 0, 0, 0))
    else:
        counts = count_trials(gadget, rates, seed, 0, trials,
                              leak_policy=leak_policy)
    other = counts.logical_other if include_leaked else counts.logical_x
    return (RateEstimate.from_counts(counts.logical_z, trials, seed),
            RateEstimate.from_counts(other, trials, seed))


# ---------------------------------------------------------------------------
# Exact low-weight fault enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    """Truncated exact logical-error probabilities from fault patterns of
    weight <= weight_max.  ``remainder_bound`` bounds the probability of any
    heavier pattern, hence the truncation error."""

    weight_max: int
    sites: int
    prob_z: float
    prob_x: float
    prob_either: float
    by_weight_z: tuple[float, ...]     # contribution per pattern weight
    by_weight_x: tuple[float, ...]
    count_z: tuple[int, ...]           # error-causing patterns per weight
    count_x: tuple[int, ...]
    remainder_bound: float
    patterns_run: int


def fault_sites(circuit: Circuit, rates: ErrorRateTable) -> list[FaultSite]:
    """``rates.sites(circuit)`` flattened, checked for the oracle.  Leakage
    rates are rejected: a leak makes downstream propagation random, so exact
    enumeration only covers Pauli and outcome-flip faults."""
    sites = [s for loc_sites in rates.sites(circuit) for s in loc_sites]
    for s in sites:
        if s.qubit < 0:
            raise ValueError("fault enumeration does not support cphase_zz")
        if any(EFFECTS[cls].leak for cls in s.row.classes):
            raise ValueError(
                "fault enumeration requires a leak-free rate table "
                f"(location {s.location_id}, qubit {s.qubit})")
    return sites


def _fault_effects(circuit: Circuit, faults: Sequence[FaultEvent],
                   zero: ErrorRateTable) -> np.ndarray:
    """The effect of each single fault, from one batched run on the zero
    table under ``never-z`` with trial j forced with fault j: outcome bits
    (in ``measure_locations`` order), then output frame x and z bits, in
    the contiguous columns of a bool array [outcomes + 2 * qubits, faults]."""
    run = run_circuit_batch(circuit, zero, 0, np.zeros(len(faults), np.uint64),
                            forced_faults=[[f] for f in faults],
                            leak_policy=LeakPolicy.NEVER_Z, validate=False)
    return np.asfortranarray(np.concatenate([run.outcome_bits, run.frame_x,
                                             run.frame_z]))


# Patterns decoded per numpy pass of the oracle; it bounds the pass's memory
# (a few times outcomes + 2 * qubits bytes per pattern).
_ORACLE_CHUNK = 1 << 15


def _pattern_chunks(n_classes: np.ndarray, w: int):
    """Every weight-``w`` fault pattern over sites with ``n_classes[i]``
    fault classes each, numbered site by site and class by class, as
    arrays [patterns, w] of those numbers.  Patterns come in enumeration
    order: ``combinations`` of sites, then the ``product`` of their classes
    with the last site fastest.  A chunk holds at most ``_ORACLE_CHUNK``
    patterns, or one combination's."""
    first = np.cumsum(n_classes) - n_classes
    per_chunk = max(1, _ORACLE_CHUNK // int(n_classes.max()) ** w)
    combos = combinations(range(len(n_classes)), w)
    while True:
        site = np.fromiter(chain.from_iterable(islice(combos, per_chunk)),
                           dtype=np.intp).reshape(-1, w)
        if not site.size:
            return
        radix = n_classes[site]
        counts = radix.prod(axis=1)
        combo = np.repeat(np.arange(len(site)), counts)
        rest = np.arange(len(combo)) - np.repeat(np.cumsum(counts) - counts, counts)
        rows, radix = first[site[combo]], radix[combo]
        for j in range(w - 1, -1, -1):
            rest, cls = np.divmod(rest, radix[:, j])
            rows[:, j] += cls
        yield rows


def _carried_sum(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...`` added left to right, as a
    Python loop would (``np.sum`` adds pairwise)."""
    return float(np.cumsum(np.concatenate(([start], values)))[-1])


def brute_force_oracle(gadget: Circuit, rates: ErrorRateTable,
                       weight_max: int, *,
                       max_patterns: int = 2_000_000) -> OracleResult:
    """Exact logical-error probability from exhaustive fault patterns up to
    the given weight.

    Each pattern is weighted by the product of its fault probabilities and
    the no-fault survival of all other sites.  The result is exact up to
    patterns of weight > weight_max, whose total probability is bounded by
    ``remainder_bound``.

    Without leakage (:func:`fault_sites` rejects it) and with zero sampled
    rates, frame propagation is linear over GF(2): a pattern's outcomes and
    output frame are the XOR of the effects of its single faults.  One
    batched run gives every single fault's effect, each in its own trial;
    patterns are then formed and decoded in batches.  For every weight, the
    first pattern decoded as an error and the first decoded as clean are
    replayed by :func:`run_trial`; a disagreement raises ``RuntimeError``.
    """
    if weight_max < 0:
        raise ValueError(f"weight_max must be >= 0, got {weight_max}")
    assert_valid(gadget)
    sites = fault_sites(gadget, rates)
    L = len(sites)
    # by_w[w] = patterns of weight w: the elementary symmetric sum of the
    # per-site class counts, built up one site at a time.
    by_w = [1] + [0] * weight_max
    for s in sites:
        for w in range(weight_max, 0, -1):
            by_w[w] += by_w[w - 1] * len(s.choices)
    budget = sum(by_w[1:])
    if budget > max_patterns:
        raise ValueError(f"enumeration budget exceeded: {budget} patterns "
                         f"for {L} sites at weight {weight_max} "
                         f"(limit {max_patterns})")

    survival_all = math.prod((1.0 - s.total for s in sites), start=1.0)
    # One entry per (site, fault class), in enumeration order.
    faults = [FaultEvent(s.location_id, s.qubit, kind)
              for s in sites for kind, _ in s.choices]
    factor = np.array([p / (1.0 - s.total) for s in sites for _, p in s.choices])
    n_classes = np.array([len(s.choices) for s in sites], dtype=np.intp)
    zero = zero_rates()
    effects = _fault_effects(gadget, faults, zero)
    M = len(gadget.measure_locations)
    N = gadget.n_qubits

    by_z = [0.0] * (weight_max + 1)
    by_x = [0.0] * (weight_max + 1)
    cnt_z = [0] * (weight_max + 1)
    cnt_x = [0] * (weight_max + 1)
    prob_either = 0.0
    patterns_run = 0
    for w in range(1, weight_max + 1):
        replay = {}     # first pattern decoded as an error (True) / as clean
        for rows in _pattern_chunks(n_classes, w) if L >= w else ():
            weight = survival_all * factor[rows[:, 0]]
            pattern = effects[:, rows[:, 0]]
            for j in range(1, w):
                weight *= factor[rows[:, j]]
                pattern ^= effects[:, rows[:, j]]
            B = len(rows)
            lz, lx, _ = classify_batch(gadget, BatchRunResult(
                np.arange(patterns_run, patterns_run + B, dtype=np.uint64),
                gadget.measure_locations, pattern[:M], np.zeros((M, B), bool),
                pattern[M:M + N], pattern[M + N:], np.zeros((N, B), bool)))
            patterns_run += B
            either = lz | lx
            by_z[w] = _carried_sum(by_z[w], weight[lz])
            by_x[w] = _carried_sum(by_x[w], weight[lx])
            prob_either = _carried_sum(prob_either, weight[either])
            cnt_z[w] += int(lz.sum())
            cnt_x[w] += int(lx.sum())
            for flag in {True, False} - replay.keys():
                hits = np.flatnonzero(either == flag)
                if hits.size:
                    i = hits[0]
                    replay[flag] = ([faults[r] for r in rows[i]],
                                    TrialResult(bool(lz[i]), bool(lx[i]), False))
        for events, expected in replay.values():
            trial = run_trial(gadget, zero, 0, 0, forced_faults=events,
                              leak_policy=LeakPolicy.NEVER_Z, validate=False)
            if trial != expected:
                raise RuntimeError(
                    f"linear fault enumeration gives {expected} for {events}, "
                    f"but propagating the pattern gives {trial}")

    # P(more than weight_max faults) via the binomial tail union bound.
    p_max = max((s.total for s in sites), default=0.0)
    remainder = math.comb(L, weight_max + 1) * p_max**(weight_max + 1) \
        if L > weight_max else 0.0
    return OracleResult(weight_max, L, sum(by_z), sum(by_x), prob_either,
                        tuple(by_z), tuple(by_x), tuple(cnt_z), tuple(cnt_x),
                        remainder, patterns_run)
