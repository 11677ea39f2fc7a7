"""Differential checks on generated inputs: the batch engine against the
scalar engine trial by trial, with and without per-trial forced faults, and
a circuit against its text round trip.  The oracle's batched single-fault
effects are checked against one scalar run per fault.

Inputs are small gadgets and random schedule-valid circuits, leaky rate
tables with a correlated CPHASE term, every leak policy and short spans of
trials from up to 2^40, some crossing the end of a 64-trial word.  Examples are
derandomized, so a run is repeatable."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasrep.gadgets import (Block, Circuit, Correction, Location, Qubit,
                             build_logical_cnot, build_parity_measurement,
                             build_teleport_identity, check_schedule,
                             circuit_from_text, circuit_to_text)
from biasrep.montecarlo import _fault_effects, fault_sites
from biasrep import pauli_frame
from biasrep.noise_model import (EFFECTS, ErrorRateTable, FaultEvent, FaultKind,
                                 OpKind, Rates, Species, default_rates,
                                 trial_faults, zero_rates)
from biasrep.pauli_frame import LeakPolicy, run_circuit, run_circuit_batch
from biasrep.streams import fault_hits

from oracles import draw_faults, fault_effects_by_scalar_runs

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

odd = st.sampled_from([1, 3])


@st.composite
def random_circuits(draw) -> Circuit:
    """Circuits that pass ``check_schedule`` with what no built-in gadget
    has: ancillas measured (or not) and then used again, with or without
    a new preparation; CPHASEs written data qubit first; transversal
    readouts between rounds; majority groups over any odd set of
    measurements; and X/Z corrections from any groups onto output blocks.

    Data blocks take species A and ancillas species B.  Each ancilla
    couples to output qubits only until it first couples to an input
    qubit, over all of its rounds, as the leakage rule asks."""
    kinds = draw(st.lists(st.sampled_from(["input", "output"]), min_size=1,
                          max_size=3))
    qubits, blocks = [], []
    for i, kind in enumerate(kinds):
        ids = tuple(range(len(qubits), len(qubits) + draw(st.integers(1, 3))))
        qubits += [Qubit(q, Species.A, "data", f"b{i}") for q in ids]
        blocks.append(Block(f"b{i}", ids, kind))
    ancillas = list(range(len(qubits), len(qubits) + draw(st.integers(1, 3))))
    qubits += [Qubit(q, Species.B, "ancilla", "") for q in ancillas]
    ops = []            # (kind, qubits, note)
    for block in blocks:
        if block.kind == "output" and draw(st.booleans()):
            ops += [(OpKind.PREP_PLUS, (q,), "") for q in block.qubits]
    outputs = [q for b in blocks if b.kind == "output" for q in b.qubits]
    inputs = [q for b in blocks if b.kind == "input" for q in b.qubits]
    used, touched_input = set(), set()
    for r in range(draw(st.integers(1, 5))):
        note = f"rep {r}"
        if draw(st.integers(0, 3)) == 0 and inputs:
            # a transversal readout of an input block
            block = draw(st.sampled_from([b for b in blocks
                                          if b.kind == "input"]))
            ops += [(OpKind.MEASURE_X, (q,), "") for q in block.qubits]
            continue
        anc = draw(st.sampled_from(ancillas))
        if anc not in used or draw(st.booleans()):
            ops.append((OpKind.PREP_PLUS, (anc,), note))
        used.add(anc)
        partners = draw(st.lists(st.sampled_from(
            (outputs if anc not in touched_input else []) + inputs),
            max_size=4, unique=True))
        partners.sort(key=lambda q: q in inputs)    # outputs first
        for q in partners:
            if q in inputs:
                touched_input.add(anc)
            pair = (anc, q) if draw(st.booleans()) else (q, anc)
            ops.append((OpKind.CPHASE, pair, note))
        if draw(st.integers(0, 4)):
            ops.append((OpKind.MEASURE_X, (anc,), note))
    if not any(kind is OpKind.MEASURE_X for kind, _, _ in ops):
        ops.append((OpKind.MEASURE_X, (qubits[-1].index,), ""))
    locations = tuple(
        Location(i, kind, qs, draw(st.sampled_from([0.0, 0.25]))
                 if kind is OpKind.MEASURE_X else 0.0, note)
        for i, (kind, qs, note) in enumerate(ops))
    measured = [loc.index for loc in locations if loc.kind is OpKind.MEASURE_X]
    groups = {}
    for g in range(draw(st.integers(1, 3))):
        ids = draw(st.lists(st.sampled_from(measured), min_size=1,
                            max_size=5, unique=True))
        groups[f"g{g}"] = tuple(ids[:len(ids) - 1 + len(ids) % 2])
    corrections = tuple(
        Correction(pauli, block.name, tuple(draw(st.lists(
            st.sampled_from(sorted(groups)), min_size=1, max_size=2))))
        for block in blocks if block.kind == "output" for pauli in "XZ"
        if draw(st.booleans()))
    return Circuit(tuple(qubits), locations, tuple(blocks), groups,
                   corrections, {"gadget": "random"})


gadgets = st.one_of(
    st.builds(build_teleport_identity, odd, odd),
    st.builds(build_logical_cnot, odd, odd, pre_teleport=st.booleans()),
    st.builds(build_parity_measurement,
              st.lists(st.integers(1, 3), min_size=1, max_size=3), odd),
    random_circuits(),
)
rate = st.floats(0.0, 0.2)


@SETTINGS
@given(random_circuits())
def test_random_circuits_pass_the_schedule_check(circuit):
    assert check_schedule(circuit) == []


def zero_plan(circuit: Circuit):
    """The engines' plan of ``circuit`` with no fault draws, whose layers
    are the ASAP layers that the batch engine steps by."""
    return pauli_frame._hit_plan(circuit, zero_rates())


@SETTINGS
@given(gadgets)
def test_layers_are_the_asap_schedule(circuit):
    # the layers partition the locations; no qubit appears twice in one
    # layer; a location's layer is one past the latest of any earlier
    # location sharing a qubit with it, and is the layer the plan's
    # location table gives it
    plan = zero_plan(circuit)
    layers = plan.layers
    layer_of = {}
    for n, layer in enumerate(layers):
        locs = [circuit.locations[i] for i in layer.locations]
        qubits = [q for loc in locs for q in loc.qubits]
        assert len(qubits) == len(set(qubits))
        assert list(layer.locations) == sorted(layer.locations)
        layer_of.update((i, n) for i in layer.locations)
        of = {kind: [loc for loc in locs if loc.kind is kind] for kind in OpKind}
        assert layer.prep.tolist() == [loc.qubits[0] for loc in of[OpKind.PREP_PLUS]]
        assert layer.cz.T.tolist() == [list(loc.qubits) for loc in of[OpKind.CPHASE]]
        assert layer.cz_loc.tolist() == [loc.index for loc in of[OpKind.CPHASE]]
        meas = of[OpKind.MEASURE_X]
        assert layer.meas.tolist() == [loc.qubits[0] for loc in meas]
        assert layer.meas_loc.tolist() == [loc.index for loc in meas]
        assert [circuit.measure_locations[r] for r in layer.meas_row] == \
            layer.meas_loc.tolist()
    assert sum(len(layer.locations) for layer in layers) == len(layer_of)
    assert sorted(layer_of) == list(range(len(circuit.locations)))
    assert plan.at[:-1, 2].tolist() == [layer_of[i] for i in range(len(layer_of))]
    for i, loc in enumerate(circuit.locations):
        earlier = [layer_of[j] for j in range(i)
                   if set(circuit.locations[j].qubits) & set(loc.qubits)]
        assert layer_of[i] == max(earlier, default=-1) + 1


@st.composite
def leaky_tables(draw) -> ErrorRateTable:
    """Every (operation, species) row drawn separately; measurements take
    an outcome-flip rate alone."""
    entries = {}
    for species in Species:
        for kind in (OpKind.PREP_PLUS, OpKind.CPHASE):
            entries[kind, species] = Rates(draw(rate), draw(rate), draw(rate))
        entries[OpKind.MEASURE_X, species] = Rates(draw(rate))
    return ErrorRateTable(entries, cphase_zz=draw(rate))


# Spans of 1-8 trials; half of them start at one of a word's last 7 bits,
# so that the longer ones cross into the next word.
trial_spans = st.builds(
    lambda start, size: range(start, start + size),
    st.one_of(st.integers(0, 2**40),
              st.builds(lambda word, bit: 64 * word + bit,
                        st.integers(0, 2**34 - 1), st.integers(57, 63))),
    st.integers(1, 8))
seeds = st.integers(0, 2**32 - 1)
policies = st.sampled_from(list(LeakPolicy))


def batch_columns(batch) -> list[np.ndarray]:
    return [batch.outcome_bits, batch.leaked_random, batch.frame_x,
            batch.frame_z, batch.frame_leaked]


def assert_batch_matches_scalar(circuit, table, seed, trials, policy,
                                forced=None, validate=True):
    """Every result array of one batched run equals the scalar engine's,
    trial by trial, with trial j forced with ``forced[j]`` if given.
    Returns the batch."""
    forced = forced or [[] for _ in trials]
    batch = run_circuit_batch(circuit, table, seed, trials,
                              forced_faults=forced, leak_policy=policy,
                              validate=validate)
    for j, trial in enumerate(trials):
        run = run_circuit(circuit, table, seed, trial=trial,
                          forced_faults=forced[j], leak_policy=policy,
                          validate=validate)
        meas = batch.meas_locations
        scalar = [[run.outcomes.bits[loc] for loc in meas],
                  [run.outcomes.leaked_random[loc] for loc in meas],
                  run.frame.x, run.frame.z, run.frame.leaked]
        for got, want in zip(batch_columns(batch), scalar):
            assert got[:, j].tolist() == [bool(b) for b in want]
    return batch


@SETTINGS
@given(gadgets, leaky_tables(), seeds, trial_spans, policies)
def test_batch_engine_matches_scalar_engine(circuit, table, seed, trials,
                                            policy):
    assert_batch_matches_scalar(circuit, table, seed, trials, policy)


def event_lists(circuit, count: int):
    """``count`` lists of forced events, drawn from at most three locations
    so that several land on one (location, qubit) in either order.  Every
    class may be forced; FLIP only at measurements."""
    def events_at(loc):
        kinds = list(FaultKind) if loc.kind is OpKind.MEASURE_X \
            else [k for k in FaultKind if k is not FaultKind.MEAS_FLIP]
        return st.builds(FaultEvent, st.just(loc.index),
                         st.sampled_from(loc.qubits), st.sampled_from(kinds))

    locations = st.lists(st.sampled_from(circuit.locations), min_size=1,
                         max_size=3)
    return locations.flatmap(lambda locs: st.lists(
        st.lists(st.one_of([events_at(loc) for loc in locs]), max_size=5),
        min_size=count, max_size=count))


@SETTINGS
@given(gadgets, leaky_tables(), seeds, trial_spans, policies, st.data())
def test_forced_faults_match_scalar_engine(circuit, table, seed, trials,
                                           policy, data):
    forced = data.draw(event_lists(circuit, len(trials)))
    assert_batch_matches_scalar(circuit, table, seed, trials, policy, forced)


@pytest.mark.parametrize("policy", list(LeakPolicy))
def test_forced_events_on_one_qubit_apply_in_list_order(policy):
    # One location and qubit per trial, the events in different orders and
    # repeated (Z twice cancels; it must not apply once).
    circuit = build_teleport_identity(3, 3)
    meas = next(loc for loc in circuit.locations
                if loc.kind is OpKind.MEASURE_X)
    cz = next(loc for loc in circuit.locations if loc.kind is OpKind.CPHASE)
    q, m = cz.qubits[0], meas.qubits[0]
    Z, X, LEAK, FLIP = (FaultKind.Z, FaultKind.X, FaultKind.LEAK,
                        FaultKind.MEAS_FLIP)
    forced = [[FaultEvent(cz.index, q, k) for k in ks] for ks in (
        [LEAK, Z], [Z, LEAK], [Z, Z], [X, Z], [Z], [])]
    forced += [[FaultEvent(meas.index, m, k) for k in ks] for ks in (
        [FLIP, LEAK], [LEAK, FLIP], [FLIP, FLIP], [FLIP, Z])]
    trials = range(2**33 + 60, 2**33 + 60 + len(forced))
    table = ErrorRateTable(default_rates().entries, cphase_zz=0.01)
    assert_batch_matches_scalar(circuit, table, 5, trials, policy, forced)


# The last ancilla round of cnot(3,3): ancilla 17 meets nine data qubits in
# turn and is then measured.  A leak at its first CPHASE leaves eight
# CPHASEs with a leaked partner before that measurement.
CNOT33 = build_logical_cnot(3, 3)
ROUND = [loc for loc in CNOT33.locations
         if 17 in loc.qubits and loc.kind is not OpKind.PREP_PLUS]


@pytest.mark.parametrize("table", [zero_rates, lambda: ErrorRateTable({
    key: r if key[0] is OpKind.MEASURE_X else dataclasses.replace(r, eps_leak=0.01)
    for key, r in default_rates().entries.items()}, cphase_zz=0.01)],
    ids=["zero", "leaky"])
@pytest.mark.parametrize("leak_at", [0, -1], ids=["late-cphase", "measurement"])
@pytest.mark.parametrize("size", [63, 64, 65, 130])
@pytest.mark.parametrize("policy", list(LeakPolicy))
def test_shared_forced_groups_and_first_leak_match_scalar_engine(
        policy, size, leak_at, table):
    # Two trials in three share one forced LEAK of ancilla 17, at its first
    # CPHASE or at its measurement.  On the zero table it is the batch's
    # first leak; at a leak rate of 1%, sampled leaks set in earlier, in
    # many trials.  Some trials carry an X on a data partner of the round
    # as their first event and some as their second, and some a Z at the
    # round's first CPHASE.
    assert [loc.kind for loc in (ROUND[0], ROUND[-1])] == [
        OpKind.CPHASE, OpKind.MEASURE_X] and len(ROUND) == 10
    leak = FaultEvent(ROUND[leak_at].index, 17, FaultKind.LEAK)
    x = FaultEvent(ROUND[3].index, ROUND[3].qubits[1], FaultKind.X)
    z = FaultEvent(ROUND[0].index, ROUND[0].qubits[1], FaultKind.Z)
    forced = [[leak] * (j % 3 > 0) + [x] * (j % 4 == 1) + [z] * (j % 5 == 2)
              for j in range(size)]
    trials = range(2**35 + 11, 2**35 + 11 + size)
    assert_batch_matches_scalar(CNOT33, table(), 5, trials, policy, forced)


def leaky_zz_table() -> ErrorRateTable:
    """table1 with a leak rate of 1% off the measurements, and a correlated
    CPHASE term of 1%."""
    return ErrorRateTable({
        key: r if key[0] is OpKind.MEASURE_X else dataclasses.replace(r, eps_leak=0.01)
        for key, r in default_rates().entries.items()}, cphase_zz=0.01)


@pytest.mark.parametrize("table", [zero_rates, leaky_zz_table], ids=["zero", "leaky"])
@pytest.mark.parametrize("policy", list(LeakPolicy))
def test_forced_faults_within_one_layer_match_scalar_engine(
        monkeypatch, policy, table):
    # Layer 7 of cnot(3,3) holds measurements 13 and 63 and CPHASEs 20 and
    # 54.  Measurement 21 is in layer 8 but comes before 63 in time, so the
    # forced events are applied in an order other than time order.  Trial j
    # carries the events whose bits are set in j, and each forced hit is
    # applied by a scatter of its own.
    monkeypatch.setattr(pauli_frame, "_HITS", 1)
    layers = zero_plan(CNOT33).layers
    layer = [CNOT33.locations[i] for i in layers[7].locations]
    assert [(loc.index, loc.qubits) for loc in layer] == [
        (13, (12,)), (20, (13, 2)), (27, (14, 1)), (34, (15, 9)),
        (44, (16, 8)), (54, (17, 7)), (63, (0,))]
    assert layers[8].locations[0] == 21
    Z, X, LEAK, FLIP = (FaultKind.Z, FaultKind.X, FaultKind.LEAK,
                        FaultKind.MEAS_FLIP)
    events = [FaultEvent(13, 12, FLIP), FaultEvent(20, 13, LEAK),
              FaultEvent(20, 2, Z), FaultEvent(54, 7, X),
              FaultEvent(63, 0, LEAK), FaultEvent(63, 0, FLIP),
              FaultEvent(21, 13, FLIP)]
    forced = [[ev for b, ev in enumerate(events) if j >> b & 1]
              for j in range(2 ** len(events))]
    trials = range(2**36 + 3, 2**36 + 3 + len(forced))
    assert_batch_matches_scalar(CNOT33, table(), 5, trials, policy, forced)


def test_forced_flip_off_a_measurement_raises():
    circuit = build_teleport_identity(3, 1)
    cz = next(loc for loc in circuit.locations if loc.kind is OpKind.CPHASE)
    flip = FaultEvent(cz.index, cz.qubits[0], FaultKind.MEAS_FLIP)
    with pytest.raises(ValueError, match="outcome flip"):
        run_circuit_batch(circuit, zero_rates(), 0, np.arange(2),
                          forced_faults=[[], [flip]])
    with pytest.raises(ValueError, match="outcome flip"):
        run_circuit(circuit, zero_rates(), 0, forced_faults=[flip])


def misplaced_events(circuit):
    """A forced event at a location the circuit does not have, and one on a
    qubit its location does not act on, with the message each raises."""
    prep = next(loc for loc in circuit.locations if loc.kind is OpKind.PREP_PLUS)
    stranger = next(q for q in range(circuit.n_qubits) if q not in prep.qubits)
    missing = max(loc.index for loc in circuit.locations) + 1
    return [(FaultEvent(missing, 0, FaultKind.Z), "does not have"),
            (FaultEvent(prep.index, stranger, FaultKind.Z), "acts on")]


def test_scalar_engine_rejects_misplaced_forced_events():
    circuit = build_logical_cnot(3, 3)
    for event, message in misplaced_events(circuit):
        with pytest.raises(ValueError, match=message):
            run_circuit(circuit, zero_rates(), 0, forced_faults=[event])


def test_batch_engine_rejects_misplaced_forced_events():
    circuit = build_logical_cnot(3, 3)
    for event, message in misplaced_events(circuit):
        with pytest.raises(ValueError, match=message):
            run_circuit_batch(circuit, zero_rates(), 0, np.arange(3),
                              forced_faults=[[], [event], []])


def relabelled_teleport() -> tuple[Circuit, Circuit]:
    """teleport(3,1), and a copy whose location 5, a CPHASE on ancilla 6
    like location 4, has the id 4: a circuit only ``validate=False`` runs,
    as check_schedule requires each location's id to be its position."""
    circuit = build_teleport_identity(3, 1)
    locations = list(circuit.locations)
    assert [loc.qubits for loc in locations[4:6]] == [(6, 3), (6, 4)]
    locations[5] = dataclasses.replace(locations[5], index=4)
    return circuit, dataclasses.replace(circuit, locations=tuple(locations))


def test_batch_engine_finds_forced_events_by_position():
    # with location 5 given id 4, a forced X on qubit 3 at location 4 is
    # read at position 4, which acts on (6, 3), by both engines (applied at
    # position 5 too, it would cancel)
    circuit, relabelled = relabelled_teleport()
    forced = [[], [FaultEvent(4, 3, FaultKind.X)]]
    got = run_circuit_batch(relabelled, zero_rates(), 0, range(2),
                            forced_faults=forced, validate=False)
    want = run_circuit_batch(circuit, zero_rates(), 0, range(2),
                             forced_faults=forced)
    assert got.frame_x[3].tolist() == [False, True]
    for a, b in zip(got.words, want.words):
        assert np.array_equal(a, b)
    for j, events in enumerate(forced):
        got = run_circuit(relabelled, zero_rates(), 0, trial=j,
                          forced_faults=events, validate=False)
        want = run_circuit(circuit, zero_rates(), 0, trial=j,
                           forced_faults=events)
        assert got.frame.x[3] == j
        assert got.outcomes == want.outcomes
        assert (got.frame.x, got.frame.z) == (want.frame.x, want.frame.z)


def test_engines_apply_sampled_faults_at_their_draws_position():
    # the draws of positions 4 and 5 share the address (4, 6) and so their
    # hits on ancilla 6, but each engine applies a draw's hits at the
    # position of its draw: 5's at 5, after the CPHASE on (6, 4), not at 4
    _, relabelled = relabelled_teleport()
    table = ErrorRateTable({
        key: Rates(0.1, 0.1) if key[0] is OpKind.CPHASE
        else Rates(0.3) if key[0] is OpKind.MEASURE_X else Rates()
        for key in zero_rates().entries})
    assert_batch_matches_scalar(relabelled, table, 7, range(200),
                                LeakPolicy.RANDOM_Z, validate=False)


def test_forced_faults_need_one_list_per_trial():
    with pytest.raises(ValueError, match="2 forced-fault lists for 3 trials"):
        run_circuit_batch(build_teleport_identity(3, 1), zero_rates(), 0,
                          np.arange(3), forced_faults=[[], []])


LEAK_FREE_TABLE1 = ErrorRateTable({
    key: dataclasses.replace(r, eps_leak=0.0)
    for key, r in default_rates().entries.items()})


@pytest.mark.parametrize("circuit,table", [
    (build_teleport_identity(3, 1), LEAK_FREE_TABLE1),
    (build_logical_cnot(3, 3), LEAK_FREE_TABLE1),
    (build_logical_cnot(3, 3, pre_teleport=True), LEAK_FREE_TABLE1),
    (build_logical_cnot(5, 7), LEAK_FREE_TABLE1),
    (build_logical_cnot(3, 3), zero_rates())],
    ids=["teleport31", "cnot33", "cnot33-pre-teleport", "cnot57", "zero"])
def test_fault_effects_equal_one_scalar_run_per_fault(circuit, table):
    faults = [FaultEvent(s.location_id, s.qubit, kind)
              for s in fault_sites(circuit, table) for kind, _ in s.choices]
    got = _fault_effects(circuit, faults, zero_rates())
    want = fault_effects_by_scalar_runs(circuit, faults)
    assert got.dtype == want.dtype == bool
    assert got.shape == want.shape == (
        len(circuit.measure_locations) + 2 * circuit.n_qubits, len(faults))
    assert (got == want).all()


@SETTINGS
@given(gadgets)
def test_fault_effects_equal_scalar_runs_on_generated_circuits(circuit):
    test_fault_effects_equal_one_scalar_run_per_fault(circuit,
                                                      LEAK_FREE_TABLE1)


@SETTINGS
@given(gadgets, leaky_tables(), seeds, trial_spans, policies)
def test_text_round_trip_runs_identically(circuit, table, seed, trials,
                                          policy):
    parsed = circuit_from_text(circuit_to_text(circuit))
    trials = np.array(trials, dtype=np.uint64)
    a = run_circuit_batch(circuit, table, seed, trials, leak_policy=policy)
    b = run_circuit_batch(parsed, table, seed, trials, leak_policy=policy)
    assert a.meas_locations == b.meas_locations
    for got, want in zip(batch_columns(b), batch_columns(a)):
        assert np.array_equal(got, want)


# Rates of 0.3 and more: two draws of one location often hit the same
# trial, after different numbers of rounds of its word
DENSE_TABLE = ErrorRateTable({
    key: Rates(0.3) if key[0] is OpKind.MEASURE_X else Rates(0.3, 0.3, 0.1)
    for key in default_rates().entries}, cphase_zz=0.3)


@SETTINGS
@given(gadgets, st.sampled_from([default_rates(), leaky_zz_table(), DENSE_TABLE]),
       seeds, trial_spans)
def test_trial_faults_are_the_draws_of_their_trial(circuit, table, seed,
                                                   trials):
    # the scalar engine's draws, one trial at a time, are the hits of that
    # trial in the per-draw view of a walk over the whole span, one event
    # per target (both qubits of a pair draw), in the order of the sites:
    # as the table lists them, and as the engines' plan draws them
    plan = pauli_frame._hit_plan(circuit, table)
    flat = [s for sites in table.sites(circuit) for s in sites]
    for sites in (flat, plan.sites):
        per_draw = draw_faults(seed, trials, [
            (s.location_id, s.qubit, s.row.thresholds) for s in sites])
        for j, trial in enumerate(trials):
            want = [FaultEvent(s.location_id, q, s.row.classes[c])
                    for s, (pos, which) in zip(sites, per_draw)
                    for c in which[pos == j].tolist() for q in s.targets]
            assert trial_faults(sites, seed, trial) == want


def hit_rows(n: int, kind: FaultKind, q: int, out_row: int) -> tuple[int, int]:
    """The two rows of the batch engine's stacked state (leak flags, x and
    z bits of the ``n`` qubits, then outcomes) that a hit of ``kind`` on
    qubit ``q`` acts on, -1 for none, from the fault's effect alone."""
    effect = EFFECTS[kind]
    if effect.leak:
        return q, -1
    if effect.flip:
        return 3 * n + out_row, -1
    if effect.x:
        return n + q, 2 * n + q if effect.z else -1
    return 2 * n + q, -1


def assert_layer_hits_match_draw_faults(circuit, table, seed, trials):
    """For each layer, the walk's hits are those that draw_faults draws
    per draw for the layer's draws, and the batch engine applies each by
    one entry: on its first target, with the rows of its class there and,
    for a pair draw, the z row of its second target as its second row.
    Returns the number of hits of pair draws."""
    plan = pauli_frame._hit_plan(circuit, table)
    draws, layer_end = plan.draws, plan.layer_end
    site = {(s.location_id, s.qubit): s
            for sites in table.sites(circuit) for s in sites}
    out_row = {loc: r for r, loc in enumerate(circuit.measure_locations)}
    per_draw = draw_faults(seed, trials, draws)
    pieces = list(fault_hits(seed, trials, draws, layer_end))
    assert len(pieces) == len(layer_end) == len(plan.layers)
    n, pair_hits = circuit.n_qubits, 0
    for (d, pos, cls), lo, hi in zip(pieces, [0, *layer_end], layer_end):
        assert sorted(zip(d.tolist(), pos.tolist(), cls.tolist())) == sorted(
            (i, p, c) for i in range(lo, hi)
            for p, c in zip(per_draw[i][0].tolist(), per_draw[i][1].tolist()))
        want = []
        for i, p, c in zip(d.tolist(), pos.tolist(), cls.tolist()):
            s = site[draws[i][:2]]
            pair_hits += len(s.targets) > 1
            rows = [hit_rows(n, s.row.classes[c], q, out_row.get(s.location_id, -1))
                    for q in s.targets]
            second = rows[1][0] if len(rows) > 1 else rows[0][1]
            want.append((s.targets[0], p, rows[0][0], second))
        e = d.astype(np.intp) * plan.width + cls
        assert sorted(zip(plan.q[e].tolist(), pos.tolist(), plan.row1[e].tolist(),
                          plan.row2[e].tolist())) == sorted(want)
    return pair_hits


@pytest.mark.parametrize("trials", [range(64 * 3, 64 * 40), range(37, 5_038)],
                         ids=["words", "inside"])
@pytest.mark.parametrize("table", [default_rates, leaky_zz_table],
                         ids=["table1", "leaky-zz"])
@pytest.mark.parametrize("circuit", [CNOT33, build_logical_cnot(3, 3, pre_teleport=True)],
                         ids=["cnot33", "cnot33-pre"])
def test_layer_cuts_hand_on_each_layers_hits(circuit, table, trials):
    rates = table()
    pair_hits = assert_layer_hits_match_draw_faults(circuit, rates, 5, trials)
    assert (pair_hits > 0) == (rates.cphase_zz > 0)


@SETTINGS
@given(gadgets, leaky_tables(), seeds,
       st.builds(lambda start, size: range(start, start + size),
                 st.integers(0, 2**40), st.integers(1, 300)))
def test_layer_cuts_on_generated_circuits(circuit, table, seed, trials):
    assert_layer_hits_match_draw_faults(circuit, table, seed, trials)


def test_a_pair_hit_is_masked_by_each_qubits_own_leak():
    # every CPHASE's pair draw hits in every trial and nothing else does;
    # qubit 0, leaked at its preparation in the even trials, is the second
    # qubit of one CPHASE and the first of the other, so each of its
    # partners takes its pair Z though 0 drops its own, whichever target
    # of the pair draw it is (never-z adds no Z of its own)
    circuit = Circuit(
        (Qubit(0, Species.A, "data", "out"), Qubit(1, Species.B, "ancilla", ""),
         Qubit(2, Species.B, "ancilla", "")),
        (Location(0, OpKind.PREP_PLUS, (0,)), Location(1, OpKind.PREP_PLUS, (1,)),
         Location(2, OpKind.PREP_PLUS, (2,)), Location(3, OpKind.CPHASE, (1, 0)),
         Location(4, OpKind.CPHASE, (0, 2))),
        (Block("out", (0,), "output"),))
    assert check_schedule(circuit) == []
    table = ErrorRateTable(zero_rates().entries, cphase_zz=1.0)
    trials = range(2**37 + 50, 2**37 + 50 + 20)
    forced = [[FaultEvent(0, 0, FaultKind.LEAK)] * (j % 2 == 0)
              for j in range(len(trials))]
    batch = assert_batch_matches_scalar(circuit, table, 5, trials,
                                        LeakPolicy.NEVER_Z, forced)
    leaked = [j % 2 == 0 for j in range(len(trials))]
    assert batch.frame_leaked.tolist() == [leaked, [False] * 20, [False] * 20]
    # unleaked, qubit 0 takes both pair Zs, which cancel
    assert not batch.frame_z[0].any()
    assert batch.frame_z[1:].all()
    assert not batch.frame_x.any() and not batch.outcome_bits.size
