"""Differential checks on generated inputs: the batch engine against the
scalar engine trial by trial, and a circuit against its text round trip.

Inputs are small gadgets, leaky rate tables with a correlated CPHASE term,
every leak policy and scattered trial indices.  Examples are derandomized,
so a run is repeatable."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biasrep.gadgets import (build_logical_cnot, build_parity_measurement,
                             build_teleport_identity, circuit_from_text,
                             circuit_to_text)
from biasrep.noise_model import ErrorRateTable, OpKind, Rates, Species
from biasrep.pauli_frame import LeakPolicy, run_circuit, run_circuit_batch

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

odd = st.sampled_from([1, 3])
gadgets = st.one_of(
    st.builds(build_teleport_identity, odd, odd),
    st.builds(build_logical_cnot, odd, odd, pre_teleport=st.booleans()),
    st.builds(build_parity_measurement,
              st.lists(st.integers(1, 3), min_size=1, max_size=3), odd),
)
rate = st.floats(0.0, 0.2)


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


trial_lists = st.lists(st.integers(0, 2**40), min_size=1, max_size=6,
                       unique=True)
seeds = st.integers(0, 2**32 - 1)
policies = st.sampled_from(list(LeakPolicy))


def batch_columns(batch) -> list[np.ndarray]:
    return [batch.outcome_bits, batch.leaked_random, batch.frame_x,
            batch.frame_z, batch.frame_leaked]


@SETTINGS
@given(gadgets, leaky_tables(), seeds, trial_lists, policies)
def test_batch_engine_matches_scalar_engine(circuit, table, seed, trials,
                                            policy):
    batch = run_circuit_batch(circuit, table, seed,
                              np.array(trials, dtype=np.uint64),
                              leak_policy=policy)
    for j, trial in enumerate(trials):
        run = run_circuit(circuit, table, seed, trial=trial, leak_policy=policy)
        meas = batch.meas_locations
        scalar = [[run.outcomes.bits[loc] for loc in meas],
                  [run.outcomes.leaked_random[loc] for loc in meas],
                  run.frame.x, run.frame.z, run.frame.leaked]
        for got, want in zip(batch_columns(batch), scalar):
            assert got[:, j].tolist() == [bool(b) for b in want]


@SETTINGS
@given(gadgets, leaky_tables(), seeds, trial_lists, policies)
def test_text_round_trip_runs_identically(circuit, table, seed, trials,
                                          policy):
    parsed = circuit_from_text(circuit_to_text(circuit))
    trials = np.array(trials, dtype=np.uint64)
    a = run_circuit_batch(circuit, table, seed, trials, leak_policy=policy)
    b = run_circuit_batch(parsed, table, seed, trials, leak_policy=policy)
    assert a.meas_locations == b.meas_locations
    for got, want in zip(batch_columns(b), batch_columns(a)):
        assert np.array_equal(got, want)
