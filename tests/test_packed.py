"""The packed batch engine: 64 trials per uint64 word, trial j at bit j % 64
of word j // 64.  Counts decoded on packed words must equal the flags
decoded on the unpacked boolean rows of the same trials, whatever the span's
offset and length within its words."""

import itertools
import tracemalloc

import numpy as np
import pytest

from biasrep import montecarlo
from biasrep.gadgets import (assert_valid, build_logical_cnot,
                             circuit_from_text)
from biasrep.montecarlo import (TrialCounts, classify_batch, count_trials,
                                majority, run_trial)
from biasrep.noise_model import (ErrorRateTable, FaultEvent, FaultKind,
                                 Rates, default_rates, zero_rates)
from biasrep.pauli_frame import run_circuit, run_circuit_batch, unpack_words

from conftest import pack, table_with
from oracles import draw_faults


def leaky(cphase_zz: float = 0.0) -> ErrorRateTable:
    """table1 with phase rates x40, non-phase x1e4 and leakage x3e4: leaked
    qubits, their partners and leaked measurements in most short spans."""
    return ErrorRateTable({
        key: Rates(min(r.eps * 40, 0.3), min(r.eps_other * 1e4, 0.2),
                   min(r.eps_leak * 3e4, 0.2))
        for key, r in default_rates().entries.items()}, cphase_zz=cphase_zz)


CONFIGS = {
    "random-z": (lambda: build_logical_cnot(3, 3), leaky, "random-z"),
    "always-z": (lambda: build_logical_cnot(3, 3), leaky, "always-z"),
    "never-z": (lambda: build_logical_cnot(3, 3), leaky, "never-z"),
    "cphase_zz": (lambda: build_logical_cnot(3, 3),
                  lambda: leaky(cphase_zz=0.02), "random-z"),
    "pre-teleport": (lambda: build_logical_cnot(3, 3, pre_teleport=True),
                     leaky, "random-z"),
}
SPANS = [(lo, length) for lo in (0, 7, 123) for length in (1, 63, 65, 3333)]


def flag_counts(circuit, table, seed, lo, hi, policy) -> TrialCounts:
    """The counts of trials [lo, hi) from one batch's boolean rows, decoded
    as booleans rather than words."""
    batch = run_circuit_batch(circuit, table, seed,
                              np.arange(lo, hi, dtype=np.uint64),
                              leak_policy=policy)
    lz, lx, lk = montecarlo._decode(
        circuit, dict(zip(batch.meas_locations, batch.outcome_bits)),
        batch.frame_x, batch.frame_z, batch.frame_leaked)
    return TrialCounts(hi - lo, int(lz.sum()), int(lx.sum()), int(lk.sum()),
                       int((lx | lk).sum()))


class TestWordLayout:
    def test_packed_rows_are_the_batch_rows(self):
        circuit, table = build_logical_cnot(3, 3), leaky()
        trials = np.arange(40, 170, dtype=np.uint64)
        batch = run_circuit_batch(circuit, table, 2, trials)
        for words, rows in zip(batch.words, (batch.outcome_bits,
                                             batch.leaked_random,
                                             batch.frame_x, batch.frame_z,
                                             batch.frame_leaked)):
            assert words.dtype == np.uint64 and words.shape[1] == 3
            assert np.array_equal(words, pack(rows))
            assert np.array_equal(unpack_words(words, len(trials)), rows)
        assert batch.leaked_random.any() and batch.frame_leaked.any()

    def test_words_or_rows(self):
        circuit = build_logical_cnot(3, 3)
        batch = run_circuit_batch(circuit, leaky(), 2,
                                  np.arange(70, dtype=np.uint64))
        assert "frame_z" not in vars(batch)         # unpacked on first read
        assert batch.frame_z is batch.frame_z
        with pytest.raises(AttributeError):
            batch.frame_y

    def test_bits_past_the_batch_are_zero(self):
        circuit, table = build_logical_cnot(3, 3), leaky(cphase_zz=0.02)
        for policy in ("random-z", "always-z", "never-z"):
            run = run_circuit_batch(circuit, table, 4,
                                    np.arange(65, dtype=np.uint64),
                                    leak_policy=policy)
            for words in run.words:
                assert not (words[:, 1] >> np.uint64(1)).any()


class TestMajorityWords:
    @pytest.mark.parametrize("size", range(1, 16, 2))
    def test_words_equal_bool_rows(self, size):
        rng = np.random.default_rng(size)
        rows = rng.random((size, 1000)) < 0.5
        expected = majority(list(rows))
        got = majority(list(pack(rows)))
        assert got.dtype == np.uint64
        assert np.array_equal(unpack_words(got, 1000), expected)
        assert np.array_equal(expected, rows.sum(axis=0) * 2 > size)

    def test_single_bits(self):
        for size in range(1, 8, 2):
            for bits in itertools.product((0, 1), repeat=size):
                assert majority(list(bits)) is (sum(bits) * 2 > size)


class TestTailWords:
    """count_trials on spans that start and end inside a word."""

    @pytest.mark.parametrize("config", CONFIGS)
    def test_counts_equal_batch_flags(self, config):
        build, table, policy = CONFIGS[config]
        circuit, rates = build(), table()
        seen = TrialCounts(0, 0, 0, 0, 0)
        for lo, length in SPANS:
            got = count_trials(circuit, rates, 11, lo, lo + length,
                               leak_policy=policy)
            assert got == flag_counts(circuit, rates, 11, lo, lo + length,
                                      policy), (lo, length)
            seen = seen + got
        # every flag is reached, so each count is checked on live bits
        assert min(seen.logical_z, seen.logical_x, seen.leaked) > 0

    @pytest.mark.parametrize("config", CONFIGS)
    def test_counts_equal_scalar_trials(self, config):
        build, table, policy = CONFIGS[config]
        circuit, rates = build(), table()
        lo, hi = 123, 123 + 65
        flags = [run_trial(circuit, rates, 11, t, leak_policy=policy)
                 for t in range(lo, hi)]
        expected = TrialCounts(
            hi - lo, sum(f.logical_z_error for f in flags),
            sum(f.logical_x_error for f in flags),
            sum(f.leaked_output for f in flags),
            sum(f.logical_x_error or f.leaked_output for f in flags))
        assert count_trials(circuit, rates, 11, lo, hi,
                            leak_policy=policy) == expected

    def test_partial_batches(self, monkeypatch):
        circuit, rates = build_logical_cnot(3, 3), leaky()
        whole = count_trials(circuit, rates, 11, 7, 7 + 3333)
        monkeypatch.setattr(montecarlo, "_BATCH_SIZE", 100)
        assert count_trials(circuit, rates, 11, 7, 7 + 3333) == whole

    def test_bits_past_the_batch_are_not_counted(self, monkeypatch):
        # Set every unused bit of every returned row: the counts must not
        # change, whatever those bits decode to.
        def dirty(circuit, rates, seed, trials, **kwargs):
            run = run_circuit_batch(circuit, rates, seed, trials, **kwargs)
            tail = ~np.uint64(0) << np.uint64(len(trials) % 64)
            if len(trials) % 64:
                for words in run.words:
                    words[:, -1] |= tail
            return run

        circuit, rates = build_logical_cnot(3, 3), leaky()
        expected = [count_trials(circuit, rates, 11, lo, lo + n)
                    for lo, n in SPANS]
        monkeypatch.setattr(montecarlo, "run_circuit_batch", dirty)
        assert [count_trials(circuit, rates, 11, lo, lo + n)
                for lo, n in SPANS] == expected


class TestForcedReplay:
    """A sampled run equals a run on the zero table forced with the faults
    its keyed draws made, in table order, a pair draw hitting each of its
    targets: a drawn fault and a forced one act alike, in both engines."""

    LO, TRIALS, SEED = 37, 700, 3      # the span starts inside a word

    def drawn_faults(self, circuit, rates, trials):
        """Per trial, the faults of its draws as forced-fault events."""
        sites = [s for loc_sites in rates.sites(circuit) for s in loc_sites]
        forced = [[] for _ in trials]
        draws = draw_faults(self.SEED, trials, [
            (s.location_id, s.qubit, s.row.thresholds) for s in sites])
        for site, (hit, which) in zip(sites, draws):
            for j, i in zip(hit.tolist(), which.tolist()):
                forced[j] += [FaultEvent(site.location_id, q,
                                         site.row.classes[i])
                              for q in site.targets]
        return forced

    @pytest.mark.parametrize("policy", ["random-z", "always-z", "never-z"])
    def test_sampled_equals_forced(self, policy):
        circuit, rates = build_logical_cnot(3, 3), leaky(cphase_zz=0.02)
        trials = np.arange(self.LO, self.LO + self.TRIALS, dtype=np.uint64)
        forced = self.drawn_faults(circuit, rates, trials)
        sampled = run_circuit_batch(circuit, rates, self.SEED, trials,
                                    leak_policy=policy)
        replayed = run_circuit_batch(circuit, zero_rates(), self.SEED, trials,
                                     forced_faults=forced, leak_policy=policy)
        for got, want in zip(replayed.words, sampled.words):
            assert np.array_equal(got, want)
        # leaked measurements and leaked output qubits are in the span
        assert sampled.leaked_random.any() and sampled.frame_leaked.any()
        for j in range(0, self.TRIALS, 7):
            t = self.LO + j
            want = run_circuit(circuit, rates, self.SEED, trial=t,
                               leak_policy=policy)
            got = run_circuit(circuit, zero_rates(), self.SEED, trial=t,
                              forced_faults=forced[j], leak_policy=policy)
            assert got.outcomes == want.outcomes, t
            assert (got.frame.x, got.frame.z, got.frame.leaked) == \
                (want.frame.x, want.frame.z, want.frame.leaked), t


# Four output qubits (an even block) coupled to one ancilla.  The ancilla's
# outcome records both logical corrections on the block.
EVEN_BLOCK = ("# qubit 0 A data out\n# qubit 1 A data out\n"
              "# qubit 2 A data out\n# qubit 3 A data out\n"
              "# qubit 4 B ancilla\n"
              "# block out output 0 1 2 3\n"
              "# group zz 9\n"
              "# correction X out zz\n# correction Z out zz\n"
              "PREP 0\nPREP 1\nPREP 2\nPREP 3\nPREP 4\n"
              "CZ 4 0\nCZ 4 1\nCZ 4 2\nCZ 4 3\nMEASX 4\n")


class TestEvenOutputBlock:
    """An output block may have even size; a logical phase error is a Z
    pattern of weight above half the block, after the Z correction."""

    PATTERNS = [(qubits, flip) for flip in (False, True)
                for w in range(5) for qubits in itertools.combinations(range(4), w)]

    @staticmethod
    def forced(qubits, flip):
        events = [FaultEvent(q, q, FaultKind.Z) for q in qubits]
        return events + [FaultEvent(9, 4, FaultKind.MEAS_FLIP)] * flip

    @staticmethod
    def expected(qubits, flip):
        weight = 4 - len(qubits) if flip else len(qubits)
        return weight > 2

    def test_scalar_and_batch(self):
        circuit = circuit_from_text(EVEN_BLOCK)
        assert_valid(circuit)
        batch = run_circuit_batch(
            circuit, zero_rates(), 0, range(len(self.PATTERNS)),
            forced_faults=[self.forced(*p) for p in self.PATTERNS])
        lz, lx, _ = classify_batch(circuit, batch)
        for i, pattern in enumerate(self.PATTERNS):
            trial = run_trial(circuit, zero_rates(), 0,
                              forced_faults=self.forced(*pattern))
            assert trial.logical_z_error == bool(lz[i]) == self.expected(*pattern)
            assert trial.logical_x_error == bool(lx[i]) == pattern[1]

    def test_packed_counts(self):
        circuit = circuit_from_text(EVEN_BLOCK)
        rates = table_with(prep_A=Rates(eps=0.5))
        counts = count_trials(circuit, rates, 3, 5, 5 + 1000)
        batch = run_circuit_batch(circuit, rates, 3,
                                  np.arange(5, 5 + 1000, dtype=np.uint64))
        half = batch.frame_z.sum(axis=0) * 2 == 4
        assert half.any()
        assert counts.logical_z == int((batch.frame_z.sum(axis=0) > 2).sum())


def test_one_batch_alive(monkeypatch):
    """count_trials holds one batch at a time: four batches peak no higher
    than one, up to a margin."""
    circuit, rates = build_logical_cnot(3, 3), default_rates()
    monkeypatch.setattr(montecarlo, "_BATCH_SIZE", 8192)

    def peak(trials):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            count_trials(circuit, rates, 1, 0, trials)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    count_trials(circuit, rates, 1, 0, 8192)      # fill the caches first
    one, four = peak(8192), peak(4 * 8192)
    assert four < 1.25 * one, (one, four)


def single_faults(circuit):
    """Every (site, class) fault of a leak-free table with phase and
    non-phase faults at every location."""
    from biasrep.montecarlo import fault_sites

    from conftest import uniform_table

    return [FaultEvent(s.location_id, s.qubit, kind)
            for s in fault_sites(circuit, uniform_table(1e-3, 1e-4))
            for kind in s.row.classes]


def test_forced_faults_held_lean():
    """A 131,072-trial cnot(5,7) batch on the zero table, each trial forced
    with one leak-free fault (as the oracle forces its faults), peaks at
    most 32 bytes per forced event above the same batch with none."""
    circuit, zero = build_logical_cnot(5, 7), zero_rates()
    faults = single_faults(circuit)
    trials = range(1 << 17)
    forced = [[faults[j % len(faults)]] for j in range(len(trials))]

    def peak(forced_faults):
        tracemalloc.start()
        try:
            run_circuit_batch(circuit, zero, 0, trials, forced_faults=forced_faults)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # fill the caches first
    run_circuit_batch(circuit, zero, 0, trials[:64], forced_faults=forced[:64])
    unforced, all_forced = peak(()), peak(forced)
    assert all_forced - unforced <= 32 * len(trials), (unforced, all_forced)


@pytest.mark.parametrize("forced", [False, True], ids=["sampled", "forced"])
@pytest.mark.parametrize("limit", [1, 7, 100])
def test_hits_applied_a_slice_at_a_time(monkeypatch, limit, forced):
    """Hits applied at most ``limit`` at once (so that a draw's hits are cut
    across slices, and a slice joins draws) equal hits applied one layer at
    once: the sampled hits of a leaky table, or forced events on the zero
    table, two per trial, so that events at one location come from many
    trials."""
    from biasrep import pauli_frame

    circuit = build_logical_cnot(3, 3)
    if forced:
        faults = single_faults(circuit)
        events = [[faults[j % len(faults)], faults[(7 * j) % len(faults)]]
                  for j in range(3 * len(faults) + 5)]
        args = (zero_rates(), 0, range(len(events)))
        kwargs = {"forced_faults": events, "leak_policy": "never-z"}
    else:
        args = (leaky(cphase_zz=0.02), 9, np.arange(5, 5 + 300, dtype=np.uint64))
        kwargs = {}
    monkeypatch.setattr(pauli_frame, "_HITS", 1 << 30)
    whole = run_circuit_batch(circuit, *args, **kwargs)
    monkeypatch.setattr(pauli_frame, "_HITS", limit)
    for got, want in zip(run_circuit_batch(circuit, *args, **kwargs).words,
                         whole.words):
        assert np.array_equal(got, want)
