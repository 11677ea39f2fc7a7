import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

from biasrep.gadgets import (Block, Circuit, Correction, Location, Qubit,
                             GadgetParams, ScheduleViolation, build_gadget,
                             build_logical_cnot, build_parity_measurement,
                             build_teleport_identity, check_schedule,
                             circuit_from_text, circuit_to_text)
from biasrep.montecarlo import classify_run, run_trial
from biasrep.noise_model import (FaultEvent, FaultKind, OpKind, Rates,
                                 Species, zero_rates)
from biasrep.pauli_frame import run_circuit

from conftest import REPREPARED_ANCILLA, table_with
from oracles import (Tableau, apply_corrections, decode_corrections,
                     kron_all, one_logical, plus_logical, reduced_state,
                     run_statevector, state_fidelity, zero_logical, KET0)


class TestParams:
    @pytest.mark.parametrize("n,k", [(2, 3), (3, 2), (0, 1), (3, -1)])
    def test_rejects_even_or_bad(self, n, k):
        with pytest.raises(ValueError):
            GadgetParams(n, k)

    def test_t_is_c_times_k(self):
        assert GadgetParams(3, 5, c=2.0).t == 10.0

    @pytest.mark.parametrize("c", [-3.0, 0.0, math.nan, math.inf])
    def test_rejects_c_not_finite_and_positive(self, c):
        with pytest.raises(ValueError, match="c must be"):
            GadgetParams(3, 3, c=c)


class TestSchedule:
    @pytest.mark.parametrize("builder,args", [
        (build_teleport_identity, (3, 3)),
        (build_teleport_identity, (5, 7)),
        (build_logical_cnot, (3, 3)),
        (build_logical_cnot, (5, 7)),
        (build_parity_measurement, ([3, 3], 3)),
    ])
    def test_constructors_satisfy_invariants(self, builder, args):
        assert check_schedule(builder(*args)) == []

    def test_data_data_cphase_flagged(self):
        bad = Circuit(
            qubits=(Qubit(0, Species.A, "data", "d"),
                    Qubit(1, Species.B, "data", "d")),
            locations=(Location(0, OpKind.CPHASE, (0, 1)),),
            blocks=(Block("d", (0, 1), "input"),))
        assert any("data" in msg for _, msg in check_schedule(bad))

    def test_same_species_cphase_flagged(self):
        bad = Circuit(
            qubits=(Qubit(0, Species.A, "data", "d"),
                    Qubit(1, Species.A, "ancilla", "")),
            locations=(Location(0, OpKind.CPHASE, (0, 1)),),
            blocks=(Block("d", (0,), "input"),))
        violations = check_schedule(bad)
        assert any("species" in msg for _, msg in violations)

    def test_output_after_input_coupling_flagged(self):
        # ancilla touches the input block before the output block
        bad = Circuit(
            qubits=(Qubit(0, Species.A, "data", "in"),
                    Qubit(1, Species.A, "data", "out"),
                    Qubit(2, Species.B, "ancilla", "")),
            locations=(Location(0, OpKind.PREP_PLUS, (1,)),
                       Location(1, OpKind.PREP_PLUS, (2,)),
                       Location(2, OpKind.CPHASE, (2, 0)),
                       Location(3, OpKind.CPHASE, (2, 1)),
                       Location(4, OpKind.MEASURE_X, (2,))),
            blocks=(Block("in", (0,), "input"), Block("out", (1,), "output")))
        violations = check_schedule(bad)
        assert any(loc == 3 for loc, _ in violations)

    def test_use_before_prep_flagged(self):
        bad = Circuit(
            qubits=(Qubit(0, Species.A, "data", "d"),
                    Qubit(1, Species.B, "ancilla", "")),
            locations=(Location(0, OpKind.CPHASE, (0, 1)),
                       Location(1, OpKind.PREP_PLUS, (1,)),
                       Location(2, OpKind.MEASURE_X, (1,))),
            blocks=(Block("d", (0,), "input"),))
        assert any("before its preparation" in msg
                   for _, msg in check_schedule(bad))

    def test_reprepared_ancilla_is_clean(self):
        circ = circuit_from_text(REPREPARED_ANCILLA)
        assert check_schedule(circ) == []
        # without the first preparation, the first round uses it too early
        bad = circuit_from_text(REPREPARED_ANCILLA.replace("PREP 1\n", "", 1))
        assert [loc for loc, _ in check_schedule(bad)] == [0, 1]

    @pytest.mark.parametrize("name,build", [
        ("teleport-1-1", lambda: build_teleport_identity(1, 1)),
        ("teleport-3-1", lambda: build_teleport_identity(3, 1)),
        ("teleport-3-3", lambda: build_teleport_identity(3, 3)),
        ("teleport-5-3", lambda: build_teleport_identity(5, 3)),
        ("teleport-5-7", lambda: build_teleport_identity(5, 7)),
        ("cnot-1-1", lambda: build_logical_cnot(1, 1)),
        ("cnot-3-1", lambda: build_logical_cnot(3, 1)),
        ("cnot-3-3", lambda: build_logical_cnot(3, 3)),
        ("cnot-5-7", lambda: build_logical_cnot(5, 7)),
        ("cnot-1-1-pre", lambda: build_logical_cnot(1, 1, pre_teleport=True)),
        ("cnot-3-3-pre", lambda: build_logical_cnot(3, 3, pre_teleport=True)),
        ("parity-1-k1", lambda: build_parity_measurement([1], 1)),
        ("parity-1-1-k1", lambda: build_parity_measurement([1, 1], 1)),
        ("parity-2-k5", lambda: build_parity_measurement([2], 5)),
        ("parity-2-2-k3", lambda: build_parity_measurement([2, 2], 3)),
    ])
    def test_built_gadgets_satisfy_group_and_correction_rules(self, name, build):
        assert check_schedule(build()) == []

    def test_even_majority_group_flagged(self):
        tele = build_teleport_identity(3, 1)
        bad = dataclasses.replace(tele, groups={**tele.groups,
                                                "xread_in": (11, 12)})
        assert any("'xread_in' has even size 2" in msg
                   for _, msg in check_schedule(bad))

    def test_group_naming_non_measurement_flagged(self):
        tele = build_teleport_identity(3, 1)
        assert tele.locations[4].kind is OpKind.CPHASE
        bad = dataclasses.replace(tele, groups={**tele.groups,
                                                "xread_in": (4, 12, 13)})
        assert (4, "majority group 'xread_in' names a location that is not "
                   "a measurement") in check_schedule(bad)

    def test_correction_source_without_group_flagged(self):
        tele = build_teleport_identity(3, 1)
        bad = dataclasses.replace(tele, corrections=(
            *tele.corrections, Correction("X", "out", ("missing",))))
        assert any("names no group 'missing'" in msg
                   for _, msg in check_schedule(bad))

    def test_block_qubit_out_of_range_flagged(self):
        text = circuit_to_text(build_teleport_identity(3, 1)).replace(
            "# block out output 3 4 5", "# block out output 3 4 99")
        bad = circuit_from_text(text)
        assert check_schedule(bad) == [(-1, "block 'out' names qubit 99, "
                                            "out of range")]
        with pytest.raises(ScheduleViolation, match="qubit 99"):
            run_trial(bad, zero_rates(), 0)

    def test_location_id_off_its_position_flagged(self):
        # location 5 given id 4: two CPHASEs would share location 4's fault
        # streams on ancilla 6 and its forced-fault address
        tele = build_teleport_identity(3, 1)
        assert [tele.locations[i].kind for i in (4, 5)] == [OpKind.CPHASE] * 2
        assert 6 in tele.locations[4].qubits and 6 in tele.locations[5].qubits
        locations = list(tele.locations)
        locations[5] = dataclasses.replace(locations[5], index=4)
        bad = dataclasses.replace(tele, locations=tuple(locations))
        assert check_schedule(bad) == [(4, "location id 4 at position 5")]

    def test_location_ids_shifted_flagged(self):
        # every id (and every group's) shifted by 100: the text format
        # numbers locations by position, so the round trip would differ
        tele = build_teleport_identity(3, 1)
        bad = dataclasses.replace(
            tele, locations=tuple(dataclasses.replace(loc, index=loc.index + 100)
                                  for loc in tele.locations),
            groups={name: tuple(i + 100 for i in ids)
                    for name, ids in tele.groups.items()})
        assert check_schedule(bad) == [
            (i + 100, f"location id {i + 100} at position {i}")
            for i in range(len(tele.locations))]
        assert circuit_from_text(circuit_to_text(bad)) != bad
        with pytest.raises(ScheduleViolation, match="at position 0"):
            run_trial(bad, zero_rates(), 0)

    def test_correction_on_input_block_flagged(self):
        tele = build_teleport_identity(3, 1)
        bad = dataclasses.replace(tele, corrections=(
            *tele.corrections, Correction("Z", "in", ("zz",))))
        assert any("block 'in', which is not an output block" in msg
                   for _, msg in check_schedule(bad))

    def test_ancillas_fresh_per_round(self):
        circ = build_parity_measurement([2], 5)
        ancillas = {loc.qubits[0] for loc in circ.locations
                    if loc.kind is OpKind.PREP_PLUS}
        assert len(ancillas) == 5


class TestParityMeasurement:
    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            build_parity_measurement([3], 2)

    def test_single_qubit_z_measurement(self):
        # |0> has Z eigenvalue +1, |1> eigenvalue -1
        circ = build_parity_measurement([1], 1)
        for bit, vec in ((0, KET0), (1, np.array([0, 1], dtype=complex))):
            branches = run_statevector(circ, vec)
            assert len(branches) == 1
            (meas_loc,) = circ.groups["parity"]
            assert branches[0].outcomes[meas_loc] == bit

    def test_two_block_parity(self):
        circ = build_parity_measurement([1, 1], 1)
        (meas_loc,) = circ.groups["parity"]
        for bits, expected in ((("0", "0"), 0), (("0", "1"), 1),
                               (("1", "0"), 1), (("1", "1"), 0)):
            vec = kron_all(*(np.eye(2, dtype=complex)[int(b)] for b in bits))
            branches = run_statevector(circ, vec)
            assert len(branches) == 1
            assert branches[0].outcomes[meas_loc] == expected

    def test_majority_failure_enumeration(self):
        # Ancilla-prep Z faults at rate p, k=3: enumerate all 2^3 patterns;
        # the parity majority is wrong iff >= 2 ancillas are hit, so the
        # failure probability is 3 p^2 (1-p) + p^3.
        circ = build_parity_measurement([3, 3], 3)
        anc_preps = [loc for loc in circ.locations
                     if loc.kind is OpKind.PREP_PLUS]
        meas_ids = circ.groups["parity"]
        p = 0.2
        failure = 0.0
        for pattern in itertools.product((0, 1), repeat=3):
            forced = [FaultEvent(loc.index, loc.qubits[0], FaultKind.Z)
                      for loc, hit in zip(anc_preps, pattern) if hit]
            result = run_circuit(circ, zero_rates(), 0, forced_faults=forced)
            bits = [result.outcomes.bits[i] for i in meas_ids]
            wrong = sum(bits) * 2 > len(bits)
            weight = math.prod(p if hit else 1 - p for hit in pattern)
            if wrong:
                failure += weight
        assert failure == pytest.approx(3 * p * p * (1 - p) + p ** 3, abs=1e-12)


class TestTeleportIdentity:
    def test_pre_teleport_rejected(self):
        with pytest.raises(ValueError, match="cnot gadget only"):
            build_gadget("teleport", 3, 1, pre_teleport=True)
        assert build_gadget("teleport", 3, 1) == build_teleport_identity(3, 1)

    def test_noiseless_plus_is_fixed_point_with_zero_correction(self):
        tele = build_teleport_identity(3, 3)
        result = run_circuit(tele, zero_rates(), 0)
        assert all(bit == 0 for bit in result.outcomes.bits.values())
        trial = classify_run(tele, result)
        assert not (trial.logical_z_error or trial.logical_x_error
                    or trial.leaked_output)

    @pytest.mark.parametrize("make_state", [plus_logical, zero_logical,
                                            one_logical])
    def test_noiseless_teleports_logical_states(self, make_state):
        n = 3
        tele = build_teleport_identity(n, 3)
        vec = make_state(n)
        out_ids = list(tele.block("out").qubits)
        for branch in run_statevector(tele, vec):
            corr = decode_corrections(tele, branch.outcomes)
            state = apply_corrections(tele, branch.state, corr)
            rho = reduced_state(state, tele.n_qubits, out_ids)
            assert state_fidelity(rho, vec) == pytest.approx(1.0, abs=1e-9)

    def test_noiseless_teleports_arbitrary_superposition(self):
        n = 3
        tele = build_teleport_identity(n, 1)
        vec = 0.6 * zero_logical(n) + 0.8j * one_logical(n)
        out_ids = list(tele.block("out").qubits)
        for branch in run_statevector(tele, vec):
            corr = decode_corrections(tele, branch.outcomes)
            state = apply_corrections(tele, branch.state, corr)
            rho = reduced_state(state, tele.n_qubits, out_ids)
            assert state_fidelity(rho, vec) == pytest.approx(1.0, abs=1e-9)

    def test_single_ancilla_phase_fault_corrected(self):
        tele = build_teleport_identity(3, 3)
        anc_preps = [loc for loc in tele.locations
                     if loc.kind is OpKind.PREP_PLUS
                     and tele.qubits[loc.qubits[0]].role == "ancilla"]
        for loc in anc_preps:
            forced = [FaultEvent(loc.index, loc.qubits[0], FaultKind.Z)]
            trial = run_trial(tele, zero_rates(), 0, forced_faults=forced)
            assert not trial.logical_z_error and not trial.logical_x_error


class TestLogicalCnot:
    def bell_map_holds(self, n, k, seed, pre_teleport=False):
        circ = build_logical_cnot(n, k, pre_teleport=pre_teleport)
        N = circ.n_qubits
        ref_c, ref_t = N, N + 1
        tab = Tableau(N + 2)
        rng = np.random.default_rng(seed)
        for ref, block in ((ref_c, circ.block("C")), (ref_t, circ.block("T"))):
            tab.h(ref)
            for q in block.qubits:
                tab.h(q)
                tab.cz(ref, q)
        outcomes = tab.run_gadget(circ, 0, rng=rng)
        corr = decode_corrections(circ, outcomes)
        for block in circ.output_blocks:
            xb = np.zeros(N + 2, dtype=bool)
            zb = np.zeros(N + 2, dtype=bool)
            if corr[block.name]["X"]:
                xb[block.qubits[0]] = True
            if corr[block.name]["Z"]:
                for q in block.qubits:
                    zb[q] = True
            tab.apply_pauli(xb, zb)
        cp = circ.block("Cp").qubits
        tp = circ.block("Tp").qubits
        correlators = [
            {ref_c: "X", **{q: "Z" for q in cp}},
            {ref_c: "Z", cp[0]: "X", tp[0]: "X"},
            {ref_t: "X", **{q: "Z" for q in cp}, **{q: "Z" for q in tp}},
            {ref_t: "Z", tp[0]: "X"},
        ]
        for op in correlators:
            if tab.expectation(op) != 1:
                return False
        for block in (cp, tp):
            for i in range(len(block) - 1):
                if tab.expectation({block[i]: "X", block[i + 1]: "X"}) != 1:
                    return False
        return True

    @pytest.mark.parametrize("n", [1, 3])
    def test_stabilizer_map_is_cnot(self, n):
        for seed in range(4):
            assert self.bell_map_holds(n, 3, seed)

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_stabilizer_map_holds_for_larger_blocks(self, n):
        assert self.bell_map_holds(n, 3, seed=0)
        assert self.bell_map_holds(n, 1, seed=1)

    @pytest.mark.parametrize("n", [1, 3])
    def test_stabilizer_map_with_pre_teleportation(self, n):
        for seed in range(4):
            assert self.bell_map_holds(n, 3, seed, pre_teleport=True)

    def test_truth_table_n1(self):
        circ = build_logical_cnot(1, 1)
        basis = [np.array([1, 0], dtype=complex),
                 np.array([0, 1], dtype=complex)]
        keep = list(circ.block("Cp").qubits) + list(circ.block("Tp").qubits)
        for a, b in itertools.product((0, 1), repeat=2):
            expected = kron_all(basis[a], basis[a ^ b])
            for branch in run_statevector(circ, kron_all(basis[a], basis[b])):
                corr = decode_corrections(circ, branch.outcomes)
                state = apply_corrections(circ, branch.state, corr)
                rho = reduced_state(state, circ.n_qubits, keep)
                assert state_fidelity(rho, expected) == pytest.approx(1.0, abs=1e-9)

    def test_truth_table_n1_with_pre_teleportation(self):
        circ = build_logical_cnot(1, 1, pre_teleport=True)
        basis = [np.array([1, 0], dtype=complex),
                 np.array([0, 1], dtype=complex)]
        keep = list(circ.block("Cp").qubits) + list(circ.block("Tp").qubits)
        for a, b in itertools.product((0, 1), repeat=2):
            expected = kron_all(basis[a], basis[a ^ b])
            for branch in run_statevector(circ, kron_all(basis[a], basis[b])):
                corr = decode_corrections(circ, branch.outcomes)
                state = apply_corrections(circ, branch.state, corr)
                rho = reduced_state(state, circ.n_qubits, keep)
                assert state_fidelity(rho, expected) == pytest.approx(
                    1.0, abs=1e-9)

    def test_pre_teleportation_confines_input_leakage(self):
        # leak every input qubit on arrival: with the extra teleportation
        # stage the output blocks stay unleaked and bias-clean
        circ = build_logical_cnot(3, 3, pre_teleport=True)
        assert check_schedule(circ) == []
        inputs = [q for b in circ.input_blocks for q in b.qubits]
        first_touch = {}
        for loc in circ.locations:
            for q in loc.qubits:
                if q in inputs and q not in first_touch:
                    first_touch[q] = loc.index
        forced = [FaultEvent(loc, q, FaultKind.LEAK)
                  for q, loc in first_touch.items()]
        out = [q for b in circ.output_blocks for q in b.qubits]
        for trial in range(30):
            result = run_circuit(circ, zero_rates(), 11, trial=trial,
                                 forced_faults=forced)
            for q in out:
                assert not result.frame.leaked[q]
                assert not result.frame.x[q]

    def test_bell_pair_from_plus_zero(self):
        # CNOT on |+>|0> leaves the outputs stabilized by XX and ZZ.
        circ = build_logical_cnot(1, 1)
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        bell = (kron_all(np.eye(2, dtype=complex)[0], np.eye(2, dtype=complex)[0])
                + kron_all(np.eye(2, dtype=complex)[1],
                           np.eye(2, dtype=complex)[1])) / math.sqrt(2)
        keep = list(circ.block("Cp").qubits) + list(circ.block("Tp").qubits)
        for branch in run_statevector(circ, kron_all(plus, KET0)):
            corr = decode_corrections(circ, branch.outcomes)
            state = apply_corrections(circ, branch.state, corr)
            rho = reduced_state(state, circ.n_qubits, keep)
            assert state_fidelity(rho, bell) == pytest.approx(1.0, abs=1e-9)


class TestDistanceAndRepetition:
    @pytest.mark.parametrize("n", [3, 5])
    def test_correctable_z_patterns(self, n):
        # any floor((n-1)/2) phase faults on distinct data qubits of one
        # block are corrected, exhaustively
        tele = build_teleport_identity(n, 3)
        zero = zero_rates()
        for block_name in ("in", "out"):
            qubits = tele.block(block_name).qubits
            first_touch = {}
            for loc in tele.locations:
                if loc.kind is OpKind.CPHASE:
                    for q in loc.qubits:
                        if q in qubits and q not in first_touch:
                            first_touch[q] = loc.index
            for subset in itertools.combinations(qubits, (n - 1) // 2):
                forced = [FaultEvent(first_touch[q], q, FaultKind.Z)
                          for q in subset]
                trial = run_trial(tele, zero, 0, forced_faults=forced)
                assert not trial.logical_z_error, (block_name, subset)

    def test_uncorrectable_z_pattern(self):
        n = 3
        tele = build_teleport_identity(n, 3)
        qubits = tele.block("in").qubits
        first_touch = {}
        for loc in tele.locations:
            if loc.kind is OpKind.CPHASE:
                for q in loc.qubits:
                    if q in qubits and q not in first_touch:
                        first_touch[q] = loc.index
        forced = [FaultEvent(first_touch[q], q, FaultKind.Z)
                  for q in qubits[:(n + 1) // 2]]
        trial = run_trial(tele, zero_rates(), 0, forced_faults=forced)
        assert trial.logical_z_error

    @pytest.mark.parametrize("k", [3, 5])
    def test_correctable_measurement_flips(self, k):
        # any floor((k-1)/2) ancilla readout flips within one parity
        # measurement are corrected, exhaustively
        tele = build_teleport_identity(3, k)
        meas_ids = tele.groups["zz"]
        for subset in itertools.combinations(meas_ids, (k - 1) // 2):
            forced = [FaultEvent(loc, tele.locations[loc].qubits[0],
                                 FaultKind.MEAS_FLIP) for loc in subset]
            trial = run_trial(tele, zero_rates(), 0, forced_faults=forced)
            assert not (trial.logical_z_error or trial.logical_x_error), subset


class TestBiasPreservation:
    def test_single_z_faults_never_create_xy_frame(self):
        cnot = build_logical_cnot(3, 3)
        zero = zero_rates()
        data = [q for b in cnot.blocks for q in b.qubits]
        sites = [(loc.index, q) for loc in cnot.locations
                 for q in loc.qubits if loc.kind is not OpKind.MEASURE_X]
        out = [q for b in cnot.output_blocks for q in b.qubits]
        for loc_id, q in sites:
            result = run_circuit(cnot, zero, 0,
                                 forced_faults=[FaultEvent(loc_id, q,
                                                           FaultKind.Z)])
            for oq in out:
                assert not result.frame.x[oq], (loc_id, q)


class TestSerialization:
    @pytest.mark.parametrize("circ", [build_teleport_identity(3, 3),
                                      build_logical_cnot(3, 1),
                                      build_parity_measurement([2, 2], 3)])
    def test_round_trip(self, circ):
        text = circuit_to_text(circ)
        back = circuit_from_text(text)
        assert back.qubits == circ.qubits
        assert back.blocks == circ.blocks
        assert back.groups == circ.groups
        assert back.corrections == circ.corrections
        assert [(l.kind, l.qubits, l.angle) for l in back.locations] == \
            [(l.kind, l.qubits, l.angle) for l in circ.locations]

    def test_round_trip_preserves_rng_streams(self):
        circ = build_teleport_identity(3, 3)
        back = circuit_from_text(circuit_to_text(circ))
        table = table_with(cz_A=Rates(eps=0.2), cz_B=Rates(eps=0.1))
        a = run_circuit(circ, table, 12, trial=3)
        b = run_circuit(back, table, 12, trial=3)
        assert a.outcomes.bits == b.outcomes.bits

    def test_derived_locations_cached_and_pickled(self):
        circ = build_logical_cnot(3, 3)
        assert circ.measure_locations is circ.measure_locations
        assert circ.output_blocks is circ.output_blocks
        back = pickle.loads(pickle.dumps(circ))
        assert back.measure_locations == circ.measure_locations
        assert back.output_blocks == circ.output_blocks

    def test_angle_survives_round_trip(self):
        circ = Circuit(
            qubits=(Qubit(0, Species.A, "data", "d"),),
            locations=(Location(0, OpKind.MEASURE_X, (0,),
                                angle=math.pi / 8),),
            blocks=(Block("d", (0,), "input"),))
        back = circuit_from_text(circuit_to_text(circ))
        assert back.locations[0].angle == math.pi / 8

    def test_text_format_lines(self):
        text = circuit_to_text(build_teleport_identity(3, 1))
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert all(l.split()[0] in ("PREP", "CZ", "MEASX") for l in lines)

    def test_unrecognized_line_rejected(self):
        with pytest.raises(ValueError):
            circuit_from_text("# qubit 0 A data d\nHADAMARD 0\n")

    @pytest.mark.parametrize("line", ["CZ 1", "MEASX", "PREP", "# qubit 0",
                                      "# block out", "# correction X",
                                      "# group", "# meta", "# rep"])
    def test_short_line_rejected_with_its_number(self, line):
        text = f"# qubit 0 A data d\n{line}\n"
        with pytest.raises(ValueError, match=f"line 2: .*{line!r}"):
            circuit_from_text(text)

    def test_correction_pauli_checked(self):
        with pytest.raises(ValueError, match="line 2: .*X or Z"):
            circuit_from_text("# qubit 0 A data d\n# correction Y d m\n")

    def test_free_comment_accepted(self):
        circ = circuit_from_text("# qubit 0 A data d\n# CZ\n#\nPREP 0\n")
        assert len(circ.locations) == 1
