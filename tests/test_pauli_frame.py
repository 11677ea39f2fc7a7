import hashlib
import itertools

import numpy as np
import pytest

from biasrep.gadgets import (Block, Circuit, Location, Qubit,
                             ScheduleViolation, build_gadget,
                             build_logical_cnot, build_teleport_identity)
from biasrep.noise_model import (ErrorRateTable, FaultEvent, FaultKind, OpKind,
                                 Rates, Species, default_rates, zero_rates)
from biasrep.pauli_frame import (LeakPolicy, PauliFrame, conjugate_through_cz,
                                 measure_x, run_circuit, run_circuit_batch)
import biasrep.noise_model
import biasrep.pauli_frame
from biasrep.streams import FaultStream

from conftest import table_with, uniform_table
from oracles import PAULIS, kron_all


def leaky_table(leak_scale, cphase_zz=0.0):
    """table1 with phase rates x40, non-phase x1e4 and leakage x leak_scale."""
    base = default_rates()
    return type(base)(entries={
        key: Rates(min(r.eps * 40, 0.3), min(r.eps_other * 1e4, 0.2),
                   min(r.eps_leak * leak_scale, 0.2))
        for key, r in base.entries.items()}, cphase_zz=cphase_zz)


# sha256 of test_scalar_draws_are_pinned's runs
SCALAR_PIN = "01b536798ae4263e1f6ac02baa769be7e48a4361bfeddfe25d1ab5721322d82c"


def frame_with(n, **states):
    frame = PauliFrame(n)
    for key, q in states.items():
        frame.inject(FaultEvent(0, q, FaultKind(key[0])))
    return frame


def set_state(frame, q, name):
    bits = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}[name]
    frame.x[q], frame.z[q] = bits


class TestCzConjugation:
    def test_x_gains_partner_z(self):
        frame = PauliFrame(2)
        set_state(frame, 0, "X")
        conjugate_through_cz(frame, 0, 1)
        assert frame.states() == ["X", "Z"]

    def test_diagonal_commutes(self):
        frame = PauliFrame(2)
        set_state(frame, 0, "Z")
        set_state(frame, 1, "Z")
        conjugate_through_cz(frame, 0, 1)
        assert frame.states() == ["Z", "Z"]

    def test_yx_pair(self):
        frame = PauliFrame(2)
        set_state(frame, 0, "Y")
        set_state(frame, 1, "X")
        conjugate_through_cz(frame, 0, 1)
        assert frame.states() == ["X", "Y"]

    def test_all_pairs_against_matrix_conjugation(self):
        # CZ (P1 x P2) CZ must equal the frame-rule pair up to phase.
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        for p1, p2 in itertools.product("IXYZ", repeat=2):
            frame = PauliFrame(2)
            set_state(frame, 0, p1)
            set_state(frame, 1, p2)
            conjugate_through_cz(frame, 0, 1)
            got = np.kron(PAULIS[frame.state(0)], PAULIS[frame.state(1)])
            want = cz @ np.kron(PAULIS[p1], PAULIS[p2]) @ cz
            overlap = abs(np.trace(got.conj().T @ want)) / 4
            assert overlap == pytest.approx(1.0, abs=1e-12), (p1, p2)

    def test_involution(self):
        for p1, p2 in itertools.product("IXYZ", repeat=2):
            frame = PauliFrame(2)
            set_state(frame, 0, p1)
            set_state(frame, 1, p2)
            conjugate_through_cz(frame, 0, 1)
            conjugate_through_cz(frame, 0, 1)
            assert frame.states() == [p1, p2]

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            conjugate_through_cz(PauliFrame(2), 1, 1)

    def test_z_frames_commute_through_layers(self):
        # bias preservation: diagonal frames never change under CPHASE
        rng = np.random.default_rng(5)
        frame = PauliFrame(8)
        for q in range(8):
            if rng.integers(0, 2):
                set_state(frame, q, "Z")
        before = frame.states()
        for _ in range(50):
            a, b = rng.choice(8, size=2, replace=False)
            conjugate_through_cz(frame, int(a), int(b))
        assert frame.states() == before

    def test_leak_policies(self):
        for policy, expect in ((LeakPolicy.ALWAYS_Z, "Z"),
                               (LeakPolicy.NEVER_Z, "I")):
            frame = PauliFrame(2)
            frame.set_leaked(0)
            conjugate_through_cz(frame, 0, 1, policy=policy)
            assert frame.state(1) == expect
            assert frame.state(0) == "Leaked"

    def test_leak_random_policy_needs_stream(self):
        frame = PauliFrame(2)
        frame.set_leaked(0)
        with pytest.raises(ValueError):
            conjugate_through_cz(frame, 0, 1)

    def test_both_leaked_no_action(self):
        frame = PauliFrame(2)
        frame.set_leaked(0)
        frame.set_leaked(1)
        conjugate_through_cz(frame, 0, 1, policy=LeakPolicy.ALWAYS_Z)
        assert frame.states() == ["Leaked", "Leaked"]

    def test_random_z_frequency(self):
        hits = 0
        trials = 20000
        for t in range(trials):
            frame = PauliFrame(2)
            frame.set_leaked(0)
            conjugate_through_cz(frame, 0, 1, stream=FaultStream(3, t),
                                 location_id=8)
            hits += frame.z[1]
        sigma = (0.25 / trials) ** 0.5
        assert abs(hits / trials - 0.5) < 4 * sigma


class TestMeasureX:
    def test_z_flips_outcome(self):
        frame = PauliFrame(1)
        set_state(frame, 0, "Z")
        assert measure_x(frame, 0) == 1

    def test_x_commutes(self):
        frame = PauliFrame(1)
        set_state(frame, 0, "X")
        assert measure_x(frame, 0) == 0

    def test_y_flips_outcome(self):
        frame = PauliFrame(1)
        set_state(frame, 0, "Y")
        assert measure_x(frame, 0) == 1

    def test_flip_fault_and_ideal_outcome(self):
        frame = PauliFrame(1)
        assert measure_x(frame, 0, ideal_outcome=1) == 1
        assert measure_x(frame, 0, ideal_outcome=1, flip_fault=True) == 0

    def test_measurement_replaces_qubit(self):
        frame = PauliFrame(1)
        frame.set_leaked(0)
        measure_x(frame, 0, stream=FaultStream(0, 0))
        assert frame.state(0) == "I"

    def test_leaked_outcome_uniform(self):
        # Leak on the prep, then measure: outcomes drawn 50/50.
        circuit = Circuit(
            qubits=(Qubit(0, Species.A, "data", "b"),),
            locations=(Location(0, OpKind.PREP_PLUS, (0,)),
                       Location(1, OpKind.MEASURE_X, (0,))),
            blocks=(Block("b", (0,), "output"),))
        table = table_with(prep_A=Rates(eps_leak=1.0))
        trials = 1_000_000
        batch = run_circuit_batch(circuit, table, 5,
                                  np.arange(trials, dtype=np.uint64))
        assert batch.leaked_random.all()
        mean = batch.outcome_bits[0].mean()
        sigma = (0.25 / trials) ** 0.5
        assert abs(mean - 0.5) <= 3 * sigma


def two_qubit_cz_circuit():
    return Circuit(
        qubits=(Qubit(0, Species.A, "data", "d"),
                Qubit(1, Species.B, "ancilla", "")),
        locations=(Location(0, OpKind.PREP_PLUS, (1,)),
                   Location(1, OpKind.CPHASE, (0, 1)),
                   Location(2, OpKind.MEASURE_X, (0,)),
                   Location(3, OpKind.MEASURE_X, (1,))),
        blocks=(Block("d", (0,), "input"),))


class TestRunCircuit:
    def test_noiseless_run(self):
        tele = build_teleport_identity(3, 3)
        result = run_circuit(tele, zero_rates(), seed=1)
        assert all(bit == 0 for bit in result.outcomes.bits.values())
        assert result.frame.states() == ["I"] * tele.n_qubits

    def test_forced_z_flips_measurement(self):
        circuit = two_qubit_cz_circuit()
        forced = [FaultEvent(1, 0, FaultKind.Z)]
        result = run_circuit(circuit, zero_rates(), 0, forced_faults=forced)
        assert result.outcomes.bits[2] == 1
        assert result.outcomes.bits[3] == 0

    def test_forced_x_dephases_partner(self):
        # X on the data qubit before the CZ resolves is injected after the
        # gate here, so only a pre-CZ (prep-time) X reaches the ancilla.
        circuit = two_qubit_cz_circuit()
        forced = [FaultEvent(0, 1, FaultKind.X)]  # X on ancilla at its prep
        result = run_circuit(circuit, zero_rates(), 0, forced_faults=forced)
        assert result.outcomes.bits[2] == 1   # data qubit picked up Z
        assert result.outcomes.bits[3] == 0

    def test_malformed_circuit_rejected_with_location(self):
        bad = Circuit(
            qubits=(Qubit(0, Species.A, "data", "d"),
                    Qubit(1, Species.A, "data", "d")),
            locations=(Location(0, OpKind.CPHASE, (0, 1)),),
            blocks=(Block("d", (0, 1), "input"),))
        with pytest.raises(ScheduleViolation) as err:
            run_circuit(bad, zero_rates(), 0)
        assert err.value.location_id == 0

    def test_trace_dump_format(self):
        circuit = two_qubit_cz_circuit()
        result = run_circuit(circuit, zero_rates(), 0,
                             forced_faults=[FaultEvent(1, 0, FaultKind.Z)],
                             trace=True)
        assert len(result.trace) == len(circuit.locations)
        assert result.trace[1].startswith("1\tcz 0 1\tfaults=0:Z")

    def test_deterministic_per_seed(self):
        tele = build_teleport_identity(3, 3)
        table = uniform_table(0.05, 0.02)
        a = run_circuit(tele, table, seed=9, trial=4)
        b = run_circuit(tele, table, seed=9, trial=4)
        assert a.outcomes.bits == b.outcomes.bits
        assert a.frame.states() == b.frame.states()

    def test_scalar_draws_are_pinned(self):
        # trials 0-1,999 of cnot(3,3) on table1 x5 with a correlated CPHASE
        # term: the outcome bits (in measure_locations order) and the output
        # frame of each run, pinned to the scalar engine's output as it was
        # before it took its draws from streams.fault_hits
        circuit = build_logical_cnot(3, 3)
        table = ErrorRateTable(entries={
            key: Rates(5 * r.eps, 5 * r.eps_other, 5 * r.eps_leak)
            for key, r in default_rates().entries.items()}, cphase_zz=0.01)
        digest = hashlib.sha256()
        for trial in range(2_000):
            run = run_circuit(circuit, table, 3, trial=trial,
                              leak_policy="random-z")
            digest.update(bytes(run.outcomes.bits[loc]
                                for loc in circuit.measure_locations))
            digest.update(run.frame.x + run.frame.z + run.frame.leaked)
        assert digest.hexdigest() == SCALAR_PIN

    def test_measurement_angle_is_metadata_only(self):
        # equatorial measurement angles never touch rates or outcomes
        import math
        from dataclasses import replace

        tele = build_teleport_identity(3, 3)
        rotated = Circuit(
            tele.qubits,
            tuple(replace(loc, angle=math.pi / 8)
                  if loc.kind is OpKind.MEASURE_X else loc
                  for loc in tele.locations),
            tele.blocks, tele.groups, tele.corrections, tele.meta)
        table = uniform_table(0.05, 0.02)
        for trial in range(30):
            a = run_circuit(tele, table, 21, trial=trial)
            b = run_circuit(rotated, table, 21, trial=trial)
            assert a.outcomes.bits == b.outcomes.bits


class TestBatchAgreement:
    @pytest.mark.parametrize("gadget,leak_scale,cphase_zz,policy", [
        pytest.param("teleport", 0.0, 0.0, "random-z", id="0.0"),
        pytest.param("teleport", 3e4, 0.0, "random-z", id="30000.0"),
        pytest.param("teleport", 3e4, 0.0, "always-z", id="30000.0-always-z"),
        pytest.param("teleport", 3e4, 0.0, "never-z", id="30000.0-never-z"),
        pytest.param("cnot", 3e4, 0.02, "random-z", id="cnot-cphase_zz"),
    ])
    def test_scalar_batch_outcomes_and_frames(self, gadget, leak_scale,
                                              cphase_zz, policy):
        circuit = build_gadget(gadget, 3, 3)
        table = leaky_table(leak_scale, cphase_zz)
        trials = np.arange(400, dtype=np.uint64)
        batch = run_circuit_batch(circuit, table, 77, trials, leak_policy=policy)
        assert batch.leaked_random.any() == (leak_scale > 0)
        for t in (0, 3, 57, 211, 399):
            scalar = run_circuit(circuit, table, 77, trial=t, leak_policy=policy)
            for i, loc in enumerate(batch.meas_locations):
                assert bool(batch.outcome_bits[i, t]) == bool(scalar.outcomes.bits[loc])
            for q in range(circuit.n_qubits):
                assert bool(batch.frame_x[q, t]) == bool(scalar.frame.x[q])
                assert bool(batch.frame_z[q, t]) == bool(scalar.frame.z[q])
                assert bool(batch.frame_leaked[q, t]) == bool(scalar.frame.leaked[q])

    def test_batch_independent_of_partition(self):
        tele = build_teleport_identity(3, 1)
        table = uniform_table(0.03, 0.01)
        whole = run_circuit_batch(tele, table, 5, np.arange(100, dtype=np.uint64))
        first = run_circuit_batch(tele, table, 5, np.arange(37, dtype=np.uint64))
        second = run_circuit_batch(tele, table, 5, np.arange(37, 100, dtype=np.uint64))
        merged = np.concatenate([first.outcome_bits, second.outcome_bits], axis=1)
        assert np.array_equal(whole.outcome_bits, merged)

    def test_leaky_batch_independent_of_partition(self):
        # Leak draws are made for the leaked trials only, so they must be
        # keyed by trial index, not by position among the drawn trials.
        tele = build_teleport_identity(3, 3)
        table = leaky_table(3e4)
        parts = [run_circuit_batch(tele, table, 5, np.arange(lo, hi, dtype=np.uint64))
                 for lo, hi in ((0, 100), (0, 37), (37, 100))]
        assert parts[0].leaked_random[:, 37:].any()
        for name in ("outcome_bits", "leaked_random", "frame_x", "frame_z",
                     "frame_leaked"):
            whole, first, second = (getattr(p, name) for p in parts)
            assert np.array_equal(whole, np.concatenate([first, second], axis=1)), name


class TestStateVectorEquivalence:
    def test_fault_propagation_matches_exact_simulation(self):
        # Parity circuits on computational inputs have deterministic
        # outcomes, so the frame's outcome flips must match the exact
        # state-vector difference between noiseless and faulted runs,
        # for random Pauli fault patterns at random sites.
        from biasrep.gadgets import build_parity_measurement
        from oracles import run_statevector

        rng = np.random.default_rng(17)
        for case in range(40):
            sizes = [int(rng.integers(1, 3)) for _ in range(2)]
            k = int(rng.choice([1, 3]))
            circuit = build_parity_measurement(sizes, k)
            n_in = sum(sizes)
            bits = rng.integers(0, 2, size=n_in)
            vec = kron_all(*(np.eye(2, dtype=complex)[b] for b in bits))

            sites = [(loc.index, q) for loc in circuit.locations
                     for q in loc.qubits if loc.kind is not OpKind.MEASURE_X]
            n_faults = int(rng.integers(1, 4))
            chosen = rng.choice(len(sites), size=n_faults, replace=False)
            pattern = [(sites[i][0], sites[i][1],
                        "ZXY"[rng.integers(0, 3)]) for i in chosen]

            forced = [FaultEvent(loc, q, FaultKind(p)) for loc, q, p in pattern]
            frame_run = run_circuit(circuit, zero_rates(), 0,
                                    forced_faults=forced)

            errors = {}
            for loc, q, p in pattern:
                errors.setdefault(loc, {})[q] = p
            (ref,) = run_statevector(circuit, vec)
            (noisy,) = run_statevector(circuit, vec, errors=errors)
            for meas_loc in circuit.measure_locations:
                expected_flip = ref.outcomes[meas_loc] ^ noisy.outcomes[meas_loc]
                assert frame_run.outcomes.bits[meas_loc] == expected_flip, \
                    (case, pattern, meas_loc)


class TestLeakageContainment:
    def test_leak_is_absorbing(self):
        frame = PauliFrame(2)
        frame.set_leaked(0)
        frame.inject(FaultEvent(0, 0, FaultKind.Z))
        assert frame.state(0) == "Leaked"
        conjugate_through_cz(frame, 0, 1, policy=LeakPolicy.NEVER_Z)
        assert frame.state(0) == "Leaked"

    def test_prep_unleaks(self):
        tele = build_teleport_identity(3, 1)
        prep_loc = next(l for l in tele.locations
                        if l.kind is OpKind.PREP_PLUS)
        result = run_circuit(tele, zero_rates(), 0)
        assert result.frame.states() == ["I"] * tele.n_qubits

    def test_input_leak_never_reaches_output(self):
        # Leak every input qubit at the first location touching it: output
        # block data qubits must stay unleaked (ancilla chains touch outputs
        # first), picking up at most Z noise.
        tele = build_teleport_identity(3, 3)
        inp = tele.block("in").qubits
        first_touch = {}
        for loc in tele.locations:
            for q in loc.qubits:
                if q in inp and q not in first_touch:
                    first_touch[q] = loc.index
        forced = [FaultEvent(loc, q, FaultKind.LEAK)
                  for q, loc in first_touch.items()]
        for trial in range(50):
            result = run_circuit(tele, zero_rates(), 3, trial=trial,
                                 forced_faults=forced)
            for q in tele.block("out").qubits:
                assert not result.frame.leaked[q]
                assert result.frame.state(q) in ("I", "Z")


class TestFaultSiteTable:
    """``ErrorRateTable.sites`` resolves a circuit's keyed fault draws; both
    engines draw exactly those, in table order."""

    CIRCUITS = [lambda: build_teleport_identity(3, 1),
                lambda: build_logical_cnot(3, 3, pre_teleport=True)]
    TABLES = [default_rates, lambda: leaky_table(1e3, cphase_zz=0.01)]

    @staticmethod
    def record(monkeypatch, module):
        """Record the (location, qubit) of every fault draw, per call of the
        walk of the draws, ``fault_hits``, from ``module``: the batch engine
        calls it from ``pauli_frame``, the scalar engine from
        ``noise_model`` (``trial_faults``)."""
        calls = []
        original = module.fault_hits

        def recorded(seed, trials, draws, cuts):
            calls.append([(location, qubit) for location, qubit, _ in draws])
            return original(seed, trials, draws, cuts)
        monkeypatch.setattr(module, "fault_hits", recorded)
        return calls

    @pytest.mark.parametrize("table", TABLES, ids=["table1", "leaky-zz"])
    @pytest.mark.parametrize("build", CIRCUITS, ids=["teleport31", "cnot33-pre"])
    def test_engines_draw_the_table(self, monkeypatch, build, table):
        circuit, rates = build(), table()
        sites = rates.sites(circuit)
        assert len(sites) == len(circuit.locations)
        flat = [(s.location_id, s.qubit) for loc_sites in sites for s in loc_sites]
        assert (-1 in {q for _, q in flat}) == (rates.cphase_zz > 0)
        batch = self.record(monkeypatch, biasrep.pauli_frame)
        scalar = self.record(monkeypatch, biasrep.noise_model)
        run_circuit_batch(circuit, rates, 5, np.arange(64, dtype=np.uint64))
        run_circuit(circuit, rates, 5, trial=3)
        # each engine draws every cell of the table once, in one call, and
        # both draw them in the order of their shared plan
        assert [sorted(call) for call in batch] == [sorted(flat)]
        assert len(set(flat)) == len(flat)
        assert scalar == batch

    def test_batch_draws_the_table_once(self, monkeypatch):
        # several chunks of (draw, word) cells, and a batch that starts and
        # ends inside a word
        circuit, rates = build_logical_cnot(3, 3), leaky_table(1e3, cphase_zz=0.01)
        flat = [(s.location_id, s.qubit) for loc_sites in rates.sites(circuit)
                for s in loc_sites]
        batch = self.record(monkeypatch, biasrep.pauli_frame)
        run_circuit_batch(circuit, rates, 5,
                          np.arange(37, 70_000, dtype=np.uint64))
        assert [sorted(call) for call in batch] == [sorted(flat)]

    @pytest.mark.parametrize("build", CIRCUITS, ids=["teleport31", "cnot33-pre"])
    def test_sites_per_location(self, build):
        circuit, rates = build(), leaky_table(1e3, cphase_zz=0.01)
        for loc, loc_sites in zip(circuit.locations, rates.sites(circuit)):
            pair = [-1] if loc.kind is OpKind.CPHASE else []
            assert [s.qubit for s in loc_sites] == [*loc.qubits, *pair]
            for s in loc_sites:
                assert s.location_id == loc.index
                assert s.targets == (loc.qubits if s.qubit < 0 else (s.qubit,))
                assert s.total == sum(p for _, p in s.choices)

    @staticmethod
    def record_builds(monkeypatch):
        """The circuit of each ``_build_hit_plan`` call, in call order."""
        built = []
        original = biasrep.pauli_frame._build_hit_plan

        def recorded(circuit, table):
            built.append(circuit)
            return original(circuit, table)
        monkeypatch.setattr(biasrep.pauli_frame, "_build_hit_plan", recorded)
        return built

    @staticmethod
    def runs(circuit, rates):
        """A batch of two words and a scalar run of ``circuit``, as values
        that compare equal exactly when the runs are."""
        batch = run_circuit_batch(circuit, rates, 5, range(100, 228))
        scalar = run_circuit(circuit, rates, 5, trial=150)
        return ([w.tobytes() for w in batch.words], scalar.outcomes,
                (scalar.frame.x, scalar.frame.z, scalar.frame.leaked))

    def test_hit_plan_is_built_once_per_circuit_and_table(self, monkeypatch):
        # batches and scalar runs of one circuit and table share one plan;
        # another table gets a plan of its own, and each gives what a fresh
        # circuit gives
        built = self.record_builds(monkeypatch)
        circuit = build_logical_cnot(3, 3)
        tables = (default_rates(), default_rates(), leaky_table(1e3))
        spans = [np.arange(lo, lo + 200, dtype=np.uint64) for lo in (0, 100)]

        def runs(circuit):
            batches, scalars = [], []
            for rates in tables:
                # a scalar run first, then batches, then scalar runs again
                scalars.append(run_circuit(circuit, rates, 5, trial=150))
                batches += [run_circuit_batch(circuit, rates, 5, trials)
                            for trials in spans]
                scalars += [run_circuit(circuit, rates, 5, trial=t)
                            for t in (0, 150, 299)]
            return batches, scalars
        (batches, scalars), (fresh, fresh_scalars) = (
            runs(circuit), runs(build_logical_cnot(3, 3)))
        # one plan per table's values: the two default_rates() are equal
        assert sum(c is circuit for c in built) == 2
        for got, want in zip(batches, fresh):
            for a, b in zip(got.words, want.words):
                assert np.array_equal(a, b)
        for got, want in zip(scalars, fresh_scalars):
            assert got.outcomes == want.outcomes
            assert (got.frame.x, got.frame.z, got.frame.leaked) == (
                want.frame.x, want.frame.z, want.frame.leaked)

    def test_alternated_circuits_keep_their_own_plans(self, monkeypatch):
        # two circuits that share one table, run in turn through both
        # engines, build one plan each
        built = self.record_builds(monkeypatch)
        rates = leaky_table(1e3, cphase_zz=0.01)
        a, b = build_logical_cnot(3, 3), build_teleport_identity(3, 1)
        got = [self.runs(c, rates) for _ in range(4) for c in (a, b)]
        assert len(built) == 2 and built[0] is a and built[1] is b
        want = [self.runs(build_logical_cnot(3, 3), rates),
                self.runs(build_teleport_identity(3, 1), rates)]
        assert got == want * 4

    def test_equal_tables_share_a_plan(self, monkeypatch):
        built = self.record_builds(monkeypatch)
        circuit = build_logical_cnot(3, 3)
        got = [self.runs(circuit, default_rates()) for _ in range(3)]
        assert len(built) == 1
        assert got == [self.runs(build_logical_cnot(3, 3), default_rates())] * 3

    def test_changed_rates_rebuild_the_plan(self, monkeypatch):
        # a changed entry, then a changed cphase_zz, each rebuild the plan,
        # and each run is the run of a fresh circuit
        built = self.record_builds(monkeypatch)
        circuit, rates = build_logical_cnot(3, 3), default_rates()
        cz_a = Rates(0.1, 0.01, 0.01)
        got = [self.runs(circuit, rates)]
        rates.entries[(OpKind.CPHASE, Species.A)] = cz_a
        got.append(self.runs(circuit, rates))
        rates.cphase_zz = 0.01
        got.append(self.runs(circuit, rates))
        assert len(built) == 3
        changed = default_rates()
        changed.entries[(OpKind.CPHASE, Species.A)] = cz_a
        want = [self.runs(build_logical_cnot(3, 3), table) for table in (
            default_rates(), changed, ErrorRateTable(changed.entries, 0.01))]
        assert got == want
        assert got[0] != got[1] != got[2]

    def test_zero_table_draws_nothing(self, monkeypatch):
        circuit = build_logical_cnot(3, 3)
        assert zero_rates().sites(circuit) == [[]] * len(circuit.locations)
        scalar = self.record(monkeypatch, biasrep.noise_model)
        run_circuit(circuit, zero_rates(), 5)
        assert scalar == []
