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
  corrected by the code, so it is folded into the non-phase logical rate
  while remaining separately visible on the trial flags.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass
from functools import partial
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
    (logical_z, logical_x, leaked_output), each of shape [B].  The result's
    packed words are decoded 64 trials to an operation, and only the three
    flags are unpacked."""
    words = result.words
    unflagged = np.zeros(words.frame_x.shape[1], dtype=np.uint64)
    bits = dict(zip(result.meas_locations, words.outcome_bits))
    flags = _decode(circuit, bits, words.frame_x, words.frame_z,
                    words.frame_leaked)
    # a flag no output qubit can raise is False, an all-zero row; and
    # unpack_words drops the last word's bits past the batch
    return tuple(unpack_words(unflagged | flag, len(result.trials))
                 for flag in flags)


def classify_run(circuit: Circuit, result: RunResult) -> TrialResult:
    """Scalar counterpart of :func:`classify_batch`."""
    frame = result.frame
    return TrialResult(*map(bool, _decode(circuit, result.outcomes.bits,
                                          frame.x, frame.z, frame.leaked)))


def run_trial(gadget: Circuit, rates: ErrorRateTable, seed: int,
              trial_index: int = 0, *,
              forced_faults: Sequence[FaultEvent] = (),
              leak_policy: LeakPolicy | str = LeakPolicy.RANDOM_Z) -> TrialResult:
    """Execute one trial and classify the residual logical error."""
    result = run_circuit(gadget, rates, seed, trial=trial_index,
                         forced_faults=forced_faults, leak_policy=leak_policy)
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


# Trials per batch of count_trials; it bounds the batch's working arrays:
# packed rows, a bit per trial and row, and one layer's fault hits at a
# time, 6 or 7 bytes per fault.  The walk of the fault draws keeps its own
# arrays near 128 KiB (see streams._CELLS).
_BATCH_SIZE = 1 << 17


def _count_batch(gadget: Circuit, rates: ErrorRateTable, seed: int,
                 lo: int, hi: int, leak_policy: LeakPolicy | str) -> TrialCounts:
    """Classify trials [lo, hi) as one batch, decoded on its packed words.
    Every array of the batch is freed on return, before the next batch is
    built."""
    lz, lx, leaked = classify_batch(gadget, run_circuit_batch(
        gadget, rates, seed, range(lo, hi), leak_policy=leak_policy))
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
                                     min(lo + _BATCH_SIZE, trial_stop), leak_policy)
    return total


def _exit_when_orphaned(parent: int) -> None:
    """Start a daemon thread that ends this process, within a quarter of a
    second, once its parent is no longer ``parent``."""
    def watch():
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)
    threading.Thread(target=watch, daemon=True).start()


def _forked(tasks: list) -> list:
    """The results of the calls ``task()``, each made in a child process of
    its own: the children are forked together and pipe back their pickled
    result.  A child's exception is raised here with its type and message,
    and a child that ends without a result (a signal, an out-of-memory kill)
    raises ``RuntimeError``.  Every child is reaped before this returns or
    raises; on any exception here (``KeyboardInterrupt`` included) those
    still running are killed first.  A child whose parent dies without
    that cleanup (SIGTERM, SIGKILL) exits by itself within a second."""
    parent = os.getpid()
    children = []                       # (pid, read end of its pipe)
    try:
        for task in tasks:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                # the child never returns into the caller's stack, and
                # leaves without flushing inherited stdio or running atexit
                code = 1
                try:
                    _exit_when_orphaned(parent)
                    try:
                        out = (True, task())
                    except BaseException as exc:
                        out = (False, exc)
                    with open(w, "wb") as pipe:
                        pickle.dump(out, pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = []
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status != 0:
                raise RuntimeError(
                    f"worker process {pid} ended without a result (exit "
                    f"code {os.waitstatus_to_exitcode(status)})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def estimate_logical_rates(gadget: Circuit, rates: ErrorRateTable,
                           trials: int, seed: int, *,
                           leak_policy: LeakPolicy | str = LeakPolicy.RANDOM_Z,
                           workers: int = 1
                           ) -> tuple[RateEstimate, RateEstimate]:
    """Monte Carlo estimates of the logical phase-error rate and the logical
    non-phase rate (X/Y-type, plus leaked outputs).  The trials are split
    into min(workers, trials, ``os.cpu_count()``) spans: a single span is
    counted in this process, and with more each is counted in a forked
    child process.  Draws are keyed by trial index and counts add, so the
    estimates depend on neither.  The circuit is checked here, once, so an
    invalid one forks nothing and each child inherits the verdict."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    assert_valid(gadget)
    processes = min(workers, trials, os.cpu_count() or 1)
    if processes > 1:
        counts = sum(_forked([
            partial(count_trials, gadget, rates, seed, trials * i // processes,
                    trials * (i + 1) // processes, leak_policy=leak_policy)
            for i in range(processes)]), TrialCounts(0, 0, 0, 0, 0))
    else:
        counts = count_trials(gadget, rates, seed, 0, trials,
                              leak_policy=leak_policy)
    return (RateEstimate.from_counts(counts.logical_z, trials, seed),
            RateEstimate.from_counts(counts.logical_other, trials, seed))


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
    run = run_circuit_batch(circuit, zero, 0, range(len(faults)),
                            forced_faults=[[f] for f in faults],
                            leak_policy=LeakPolicy.NEVER_Z)
    return np.asfortranarray(np.concatenate([run.outcome_bits, run.frame_x,
                                             run.frame_z]))


# Patterns per numpy pass of the oracle.  A pass holds a few bytes of
# decoded words and 24 bytes of sums per pattern, and about 60 bytes per
# failing one (its position, rank, weight and parts), so this bounds its
# arrays to about 10 MiB however many faults the circuit has.
_ORACLE_PASS = 1 << 17


def _pattern_chunks(n_classes: np.ndarray, w: int, later: np.ndarray):
    """Every weight-``w`` fault pattern over sites with ``n_classes[i]``
    fault classes each, numbered site by site and class by class, as
    arrays [patterns, w] of those numbers.  Patterns come in enumeration
    order: ``combinations`` of sites, then the ``product`` of their classes
    with the last site fastest.  A chunk holds whole site combinations.
    A pattern whose last site is s counts ``later[s]`` times, and a chunk
    counts at most ``_ORACLE_PASS``, or one combination's."""
    first = np.cumsum(n_classes) - n_classes

    def class_rows(site: np.ndarray) -> np.ndarray:
        radix = n_classes[site]
        counts = radix.prod(axis=1)
        combo = np.repeat(np.arange(len(site)), counts)
        rest = np.arange(len(combo)) - np.repeat(np.cumsum(counts) - counts, counts)
        rows, radix = first[site[combo]], radix[combo]
        for j in range(w - 1, -1, -1):
            rest, cls = np.divmod(rest, radix[:, j])
            rows[:, j] += cls
        return rows

    combos = combinations(range(len(n_classes)), w)
    site = np.zeros((0, w), dtype=np.intp)    # read, not yet yielded
    while True:
        block = np.fromiter(chain.from_iterable(islice(combos, 1 << 12)),
                            dtype=np.intp).reshape(-1, w)
        site = np.concatenate([site, block])
        end = np.cumsum(n_classes[site].prod(axis=1) * later[site[:, -1]])
        # a chunk as soon as more than one is read, and the rest at the end
        while len(site) and (end[-1] > _ORACLE_PASS or not len(block)):
            k = max(1, int(np.searchsorted(end, _ORACLE_PASS, side="right")))
            yield class_rows(site[:k])
            site, end = site[k:], end[k:] - end[k - 1]
        if not len(block):
            return


def _carried_sum(values: np.ndarray):
    """``values[0] + values[1] + ...`` added left to right, as a Python
    loop would (``np.sum`` adds pairwise); complex values carry two such
    sums, of the real and of the imaginary parts.  The running sums
    overwrite ``values``."""
    return np.cumsum(values, out=values)[-1].item()


def _suffix_words(effects: np.ndarray) -> tuple[np.ndarray, int]:
    """Effect rows [R, F] packed 64 faults to a word (the layout of
    :func:`~biasrep.pauli_frame.unpack_words`) from every start: with
    W = ceil(F / 64), columns [b * W, (b + 1) * W) hold faults b, b + 1,
    ..., so faults a, a + 1, ... start at column (a % 64) * W + a // 64.
    Bits past fault F - 1 are zero.  Returns the words [R, 64 * W] and W."""
    R, F = effects.shape
    W = -(-F // 64)
    shifted = np.zeros((R, min(64, F), 64 * W), dtype=bool)
    for b in range(shifted.shape[1]):
        shifted[:, b, :F - b] = effects[:, b:]
    words = np.packbits(shifted, axis=-1, bitorder="little").view("<u8")
    return words.astype(np.uint64, copy=False).reshape(R, shifted.shape[1] * W), W


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
    batched run gives every single fault's effect, each in its own trial.
    A weight-w pattern is a prefix, its first w - 1 faults, and a last
    fault at a later site; those last faults are one contiguous range of
    the fault numbering, whose effects are packed 64 to a word.  A prefix's
    patterns are then its flips of those words, decoded 64 to an operation.
    Each failing pattern is mapped to its rank in enumeration order (sites
    by ``combinations``, then their classes with the last site fastest),
    and its weight is formed and added in that order, so results are
    bit-identical to a pattern-by-pattern loop.  For every weight, the
    first pattern in that order decoded as an error and the first decoded
    as clean are replayed by :func:`run_trial`; a disagreement raises
    ``RuntimeError``.
    """
    if weight_max < 0:
        raise ValueError(f"weight_max must be >= 0, got {weight_max}")
    if max_patterns < 0:
        raise ValueError(f"max_patterns must be >= 0, got {max_patterns}")
    assert_valid(gadget)
    sites = fault_sites(gadget, rates)
    L = len(sites)
    totals = [s.total for s in sites]
    n_classes = np.array([len(s.row.classes) for s in sites], dtype=np.intp)
    # by_w[w] = patterns of weight w: the elementary symmetric sum of the
    # per-site class counts, built up one site at a time.
    by_w = [1] + [0] * weight_max
    for n in n_classes.tolist():
        for w in range(weight_max, 0, -1):
            by_w[w] += by_w[w - 1] * n
    budget = sum(by_w[1:])
    if budget > max_patterns:
        raise ValueError(f"enumeration budget exceeded: {budget} patterns "
                         f"for {L} sites at weight {weight_max} "
                         f"(limit {max_patterns})")

    survival_all = math.prod((1.0 - t for t in totals), start=1.0)
    # One entry per (site, fault class), in enumeration order.
    faults = [FaultEvent(s.location_id, s.qubit, kind)
              for s in sites for kind in s.row.classes]
    factor = np.array([p / (1.0 - s.total) for s in sites for p in s.row.probs])
    F = len(faults)
    site_of = np.repeat(np.arange(L), n_classes)
    first = np.cumsum(n_classes) - n_classes
    after = np.append(first, F)      # after[s + 1]: first fault past site s
    first_of, n_of = first[site_of], n_classes[site_of]
    class_of = np.arange(F) - first_of
    zero = zero_rates()
    # The rows the decoder reads: the outcomes of the majority groups, then
    # the x and z rows of the output qubits.
    M, N = len(gadget.measure_locations), gadget.n_qubits
    row_of = {loc: i for i, loc in enumerate(gadget.measure_locations)}
    group_locs = [loc for ids in gadget.groups.values() for loc in ids]
    outs = [q for block in gadget.output_blocks for q in block.qubits]
    G, O = len(group_locs), len(outs)
    effects = _fault_effects(gadget, faults, zero)[
        [row_of[loc] for loc in group_locs] + [M + q for q in outs]
        + [M + N + q for q in outs]]
    # with a row of ones, whose words mark the bits of faults below F
    suffix, Wf = _suffix_words(np.vstack([effects, np.ones((1, F), bool)]))
    suffix, present = suffix[:-1], suffix[-1]
    unleaked = dict.fromkeys(outs, False)

    by_z = [0.0] * (weight_max + 1)
    by_x = [0.0] * (weight_max + 1)
    cnt_z = [0] * (weight_max + 1)
    cnt_x = [0] * (weight_max + 1)
    prob_either = 0.0
    patterns_run = 0
    for w in range(1, weight_max + 1):
        replay = {}     # first pattern decoded as an error (True) / as clean
        prefix_chunks = () if L < w else (
            _pattern_chunks(n_classes, w - 1, F - after[1:]) if w > 1
            else [np.zeros((1, 0), np.intp)])
        for prefix in prefix_chunks:
            P = len(prefix)
            combo_sites = site_of[prefix]
            a = after[combo_sites[:, -1] + 1] if w > 1 else np.zeros(1, np.intp)
            # prefix i takes words [off[i], off[i] + n_words[i]) of the pass
            n_words = -(-(F - a) // 64)
            off = np.cumsum(n_words) - n_words
            W = int(n_words.sum())
            owner = np.repeat(np.arange(P), n_words)
            src = np.repeat((a % 64) * Wf + a // 64 - off, n_words) + np.arange(W)
            flip = np.bitwise_xor.reduce(effects[:, prefix], axis=2)
            # where(flip, ~suffix, suffix), as an XOR with all-ones words
            words = suffix[:, src]
            words ^= (flip * ~np.uint64(0))[:, owner]
            flags = _decode(gadget, dict(zip(group_locs, words)),
                            dict(zip(outs, words[G:])),
                            dict(zip(outs, words[G + O:])), unleaked)
            valid = present[src]        # the bits of faults below F
            lz, lx = (flag & valid for flag in flags[:2])

            # Enumeration rank within the pass.  The t prefixes of one site
            # combination (its class product) are adjacent, and its
            # patterns run over the later sites j, then the prefix (the
            # r-th of the t), then j's class: the combination's first rank
            # plus t * (first[j] - a) + r * n_classes[j] + class.
            new = np.append(True, (combo_sites[1:] != combo_sites[:-1]).any(axis=1))
            combo = np.cumsum(new) - 1
            start = np.flatnonzero(new)
            n_pre = np.diff(np.append(start, P))
            size = n_pre * (F - a[start])
            n = int(size.sum())
            t, r = n_pre[combo], np.arange(P) - start[combo]
            keys, pair = np.unique(t * P + r, return_inverse=True)
            kt, kr = np.divmod(keys, P)
            # rows of (t * first[j] + r * n_classes[j] + class) per (t, r)
            # pair, and of the last fault's factor, over the faults
            table = (kt[:, None] * first_of + kr[:, None] * n_of + class_of).ravel()
            factors = np.tile(factor, len(keys))
            pw = np.full(P, survival_all)
            for j in range(w - 1):
                pw *= factor[prefix[:, j]]
            # Bit pos of the pass is fault pos - shift[p] of prefix p and
            # entry pos - (shift[p] - row[p]) of the tables; per word, that
            # offset, its combination's first rank plus one (the sums'
            # slot 0) less t * a, and its prefix's weight:
            shift = 64 * off - a
            word_entry = (shift - pair * F)[owner]
            word_slot = (1 + np.cumsum(size) - size - n_pre * a[start])[combo][owner]
            word_pw = pw[owner]

            def locate(pos: np.ndarray):
                """Word, table entry and sum slot of bits ``pos``."""
                k = pos >> 6
                entry = word_entry[k]
                np.subtract(pos, entry, out=entry)
                slot = table[entry]
                slot += word_slot[k]
                return k, entry, slot

            def pattern(pos: int) -> list[FaultEvent]:
                p = owner[pos >> 6]
                return [faults[q] for q in (*prefix[p], pos - shift[p])]

            pos = np.flatnonzero(unpack_words(lz | lx, 64 * W))
            k, entry, slot = locate(pos)
            weight = factors[entry]
            weight *= word_pw[k]    # = (survival * prefix factors) * last
            z, x = (unpack_words(flag, 64 * W)[pos] for flag in (lz, lx))
            # The sums run over the pass in rank order: slot 0 holds the
            # sums so far, slot 1 + rank a failing pattern's weight and
            # every other slot 0.0, which leaves a sum unchanged.  Z and X
            # share a complex sum, one in each part.
            zx = np.zeros(n + 1, dtype=complex)
            either = np.zeros(n + 1)
            zx[0], either[0] = complex(by_z[w], by_x[w]), prob_either
            parts = np.empty(len(pos), dtype=complex)
            np.multiply(weight, z, out=parts.real)
            np.multiply(weight, x, out=parts.imag)
            zx[slot], either[slot] = parts, weight
            zx = _carried_sum(zx)
            by_z[w], by_x[w] = zx.real, zx.imag
            prob_either = _carried_sum(either)
            cnt_z[w] += int(np.count_nonzero(z))
            cnt_x[w] += int(np.count_nonzero(x))
            patterns_run += n

            if True not in replay and pos.size:
                i = np.argmin(slot)
                replay[True] = (pattern(pos[i]),
                                TrialResult(bool(z[i]), bool(x[i]), False))
            if False not in replay:
                clean = np.flatnonzero(unpack_words(valid & ~(lz | lx), 64 * W))
                if clean.size:
                    replay[False] = (pattern(clean[np.argmin(locate(clean)[2])]),
                                     TrialResult(False, False, False))
        for events, expected in replay.values():
            trial = run_trial(gadget, zero, 0, 0, forced_faults=events,
                              leak_policy=LeakPolicy.NEVER_Z)
            if trial != expected:
                raise RuntimeError(
                    f"linear fault enumeration gives {expected} for {events}, "
                    f"but propagating the pattern gives {trial}")

    # P(more than weight_max faults) via the binomial tail union bound.
    p_max = max(totals, default=0.0)
    remainder = math.comb(L, weight_max + 1) * p_max**(weight_max + 1) \
        if L > weight_max else 0.0
    return OracleResult(weight_max, L, sum(by_z), sum(by_x), prob_either,
                        tuple(by_z), tuple(by_x), tuple(cnt_z), tuple(cnt_x),
                        remainder, patterns_run)


def prob_more_faults(circuit: Circuit, rates: ErrorRateTable,
                     weight: int) -> float:
    """The exact probability that more than ``weight`` of the circuit's
    fault draws (``rates.sites(circuit)``) produce a fault: the tail of
    the Poisson-binomial distribution of their totals, built up one draw
    at a time in O(draws * weight).  The tail is its own state, fed by the
    mass that leaves P(N = weight), never ``1 - sum P(N = j)``, which
    cancels."""
    if weight < 0:
        raise ValueError(f"weight must be >= 0, got {weight}")
    exact = [1.0] + [0.0] * weight      # P(N = j) for j <= weight
    tail = 0.0
    for loc_sites in rates.sites(circuit):
        for site in loc_sites:
            p = site.total
            tail += exact[weight] * p
            for j in range(weight, 0, -1):
                exact[j] = exact[j] * (1.0 - p) + exact[j - 1] * p
            exact[0] *= 1.0 - p
    return tail
