import dataclasses
import math
import os
import signal
import time
from functools import partial
from itertools import combinations, product

import numpy as np
import pytest

from biasrep import montecarlo
from biasrep.cli import main
from biasrep.gadgets import (build_logical_cnot, build_teleport_identity,
                             circuit_from_text)
from biasrep.montecarlo import (RateEstimate, brute_force_oracle,
                                classify_batch, classify_run, count_trials,
                                estimate_logical_rates, fault_sites,
                                majority, prob_more_faults, run_trial)
from biasrep.noise_model import (ErrorRateTable, FaultEvent, FaultKind,
                                 OpKind, Rates, default_rates, zero_rates)
from biasrep.pauli_frame import (BatchRunResult, LeakPolicy, OutcomeRecord,
                                 PackedRun, PauliFrame, RunResult,
                                 run_circuit, run_circuit_batch)

from conftest import REPREPARED_ANCILLA, pack, table_with, uniform_table
from oracles import replay_oracle


class TestMajority:
    @pytest.mark.parametrize("bits,expected", [([1, 1, 0], 1), ([0], 0),
                                               ([1, 0, 0, 0, 1], 0),
                                               ([1], 1), ([0, 1, 1], 1)])
    def test_values(self, bits, expected):
        assert majority(bits) == expected

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            majority([0, 1])

    def test_elementwise_on_arrays(self):
        rows = [np.array([1, 1, 0, 0], dtype=bool),
                np.array([1, 0, 1, 0], dtype=bool),
                np.array([0, 1, 1, 1], dtype=bool)]
        assert majority(rows).tolist() == [True, True, True, False]
        with pytest.raises(ValueError):
            majority(rows[:2])


def random_batch(circuit, trials: int, seed: int) -> BatchRunResult:
    """Uniformly random outcome bits and output frames: every combination
    the decoder can meet, not only those a noise model makes likely."""
    rng = np.random.default_rng(seed)
    meas = circuit.measure_locations
    rows = lambda m: pack(rng.random((m, trials)) < 0.5)
    return BatchRunResult(np.arange(trials, dtype=np.uint64), meas, PackedRun(
        rows(len(meas)), pack(np.zeros((len(meas), trials), bool)),
        rows(circuit.n_qubits), rows(circuit.n_qubits),
        pack(rng.random((circuit.n_qubits, trials)) < 0.05)))


def column_run(batch: BatchRunResult, t: int) -> RunResult:
    """The scalar run result of trial column t."""
    frame = PauliFrame(batch.frame_x.shape[0])
    frame.x[:] = batch.frame_x[:, t].tobytes()
    frame.z[:] = batch.frame_z[:, t].tobytes()
    frame.leaked[:] = batch.frame_leaked[:, t].tobytes()
    bits = {loc: int(row[t]) for loc, row in
            zip(batch.meas_locations, batch.outcome_bits)}
    return RunResult(OutcomeRecord(bits), frame)


class TestDecoder:
    """One rule decodes a single trial and a batch: every column of
    ``classify_batch`` equals ``classify_run`` on that column."""

    @pytest.mark.parametrize("circuit", [
        build_teleport_identity(3, 3), build_logical_cnot(3, 3),
        build_logical_cnot(3, 3, pre_teleport=True)],
        ids=["teleport33", "cnot33", "cnot33-pre-teleport"])
    def test_batch_columns_equal_scalar(self, circuit):
        trials = 600
        batch = random_batch(circuit, trials, seed=5)
        flags = classify_batch(circuit, batch)
        assert all(f.dtype == bool and f.shape == (trials,) for f in flags)
        for t in range(trials):
            trial = classify_run(circuit, column_run(batch, t))
            assert (trial.logical_z_error, trial.logical_x_error,
                    trial.leaked_output) == tuple(bool(f[t]) for f in flags)
        # the random inputs reach every outcome of each flag
        assert all(0 < f.sum() < trials for f in flags)

    def test_even_majority_group_rejected(self):
        circuit = build_teleport_identity(3, 3)
        name, ids = next(iter(circuit.groups.items()))
        even = dataclasses.replace(circuit,
                                   groups={**circuit.groups, name: ids[:2]})
        batch = random_batch(even, 8, seed=1)
        with pytest.raises(ValueError, match="odd"):
            classify_batch(even, batch)
        with pytest.raises(ValueError, match="odd"):
            classify_run(even, column_run(batch, 0))


class TestRateEstimate:
    def test_stderr_formula(self):
        est = RateEstimate.from_counts(25, 10000, seed=1)
        assert est.mean == 0.0025
        assert est.stderr == pytest.approx(
            math.sqrt(0.0025 * 0.9975 / 10000))


class TestRunTrial:
    def test_noiseless(self):
        tele = build_teleport_identity(3, 3)
        trial = run_trial(tele, zero_rates(), 0)
        assert trial == (False, False, False) or (
            not trial.logical_z_error and not trial.logical_x_error
            and not trial.leaked_output)

    def test_majority_weight_z_on_block(self):
        tele = build_teleport_identity(3, 3)
        qubits = tele.block("in").qubits
        first_cz = {}
        for loc in tele.locations:
            if loc.kind is OpKind.CPHASE:
                for q in loc.qubits:
                    if q in qubits and q not in first_cz:
                        first_cz[q] = loc.index
        forced = [FaultEvent(first_cz[q], q, FaultKind.Z) for q in qubits[:2]]
        assert run_trial(tele, zero_rates(), 0,
                         forced_faults=forced).logical_z_error

    def test_single_x_is_logical(self):
        # a single non-phase error on a data qubit cannot be corrected
        tele = build_teleport_identity(3, 3)
        out0 = tele.block("out").qubits[0]
        last_cz = max(loc.index for loc in tele.locations
                      if loc.kind is OpKind.CPHASE and out0 in loc.qubits)
        forced = [FaultEvent(last_cz, out0, FaultKind.X)]
        assert run_trial(tele, zero_rates(), 0,
                         forced_faults=forced).logical_x_error

    def test_leaked_output_flag(self):
        tele = build_teleport_identity(3, 3)
        out0 = tele.block("out").qubits[0]
        last_cz = max(loc.index for loc in tele.locations
                      if loc.kind is OpKind.CPHASE and out0 in loc.qubits)
        trial = run_trial(tele, zero_rates(), 0,
                          forced_faults=[FaultEvent(last_cz, out0,
                                                    FaultKind.LEAK)])
        assert trial.leaked_output


def _raise_boom(*args, **kwargs):
    raise ValueError("boom")


def _exit_without_result(*args, **kwargs):
    os._exit(1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestEstimateLogicalRates:
    def test_zero_rates_exactly_zero(self):
        tele = build_teleport_identity(3, 3)
        eps, epsp = estimate_logical_rates(tele, zero_rates(), 10_000, seed=2)
        assert eps.mean == 0.0 and epsp.mean == 0.0
        assert eps.trials == 10_000

    def test_readout_majority_closed_form(self):
        # only transversal-readout flips (species A measurements) at p=0.01:
        # the input X-readout majority fails with probability 3p^2 - 2p^3,
        # landing as a wrong logical-Z correction
        p = 0.01
        tele = build_teleport_identity(3, 1)
        table = table_with(measx_A=Rates(eps=p))
        eps, epsp = estimate_logical_rates(tele, table, 1_000_000, seed=4)
        expected = 3 * p * p - 2 * p ** 3
        assert abs(eps.mean - expected) <= 3 * eps.stderr
        assert epsp.mean == 0.0

    def test_ancilla_majority_closed_form(self):
        p = 0.05
        tele = build_teleport_identity(3, 3)
        table = table_with(prep_B=Rates(eps=p))
        eps, epsp = estimate_logical_rates(tele, table, 400_000, seed=5)
        expected = 3 * p * p * (1 - p) + p ** 3
        assert abs(epsp.mean - expected) <= 3 * epsp.stderr
        assert eps.mean == 0.0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            estimate_logical_rates(build_teleport_identity(3, 1),
                                   zero_rates(), 0, seed=0)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_validated(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            estimate_logical_rates(build_teleport_identity(3, 1),
                                   zero_rates(), 10, seed=0, workers=workers)

    @pytest.mark.parametrize("trials", [2, 5000])
    def test_worker_invariance(self, trials):
        # 2 trials over 3 workers leaves one span empty
        tele = build_teleport_identity(3, 3)
        table = uniform_table(0.02, 0.005)
        assert estimate_logical_rates(tele, table, trials, seed=8, workers=3) \
            == estimate_logical_rates(tele, table, trials, seed=8)

    @pytest.mark.parametrize("workers,cpus,processes", [
        (1000, 2, 2), (3, 8, 3), (5, None, 1)])
    def test_pool_capped_at_cpu_count(self, monkeypatch, workers, cpus,
                                      processes):
        # An inline stand-in for the fork helper records how many children
        # it was asked for and runs each task in this process, so no process
        # starts; count_trials records the spans.  A count of 1 means no fork.
        sizes, spans = [], []
        counter = montecarlo.count_trials

        def recording_count(gadget, rates, seed, lo, hi, **kwargs):
            spans.append((lo, hi))
            return counter(gadget, rates, seed, lo, hi, **kwargs)

        def inline(tasks):
            sizes.append(len(tasks))
            return [task() for task in tasks]

        monkeypatch.setattr(montecarlo, "count_trials", recording_count)
        monkeypatch.setattr(montecarlo, "_forked", inline)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        tele = build_teleport_identity(3, 3)
        table = uniform_table(0.02, 0.005)
        split = estimate_logical_rates(tele, table, 40, seed=8,
                                       workers=workers)
        assert sizes == ([processes] if processes > 1 else [])
        # one span per process, contiguous over [0, 40)
        assert len(spans) == processes
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == 40
        assert split == estimate_logical_rates(tele, table, 40, seed=8)

    def test_huge_worker_count_starts_cpu_count_processes(self, monkeypatch):
        # the split is sized by the process count alone, never by workers
        sizes = []
        forked = montecarlo._forked

        def recording_fork(tasks):
            sizes.append(len(tasks))
            return forked(tasks)

        monkeypatch.setattr(montecarlo, "_forked", recording_fork)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        tele = build_teleport_identity(3, 3)
        table = uniform_table(0.02, 0.005)
        assert estimate_logical_rates(tele, table, 40, seed=8,
                                      workers=10**9) \
            == estimate_logical_rates(tele, table, 40, seed=8)
        assert sizes == [2]
        assert_no_child_left()

    @pytest.mark.parametrize("count,error,match,code", [
        (_raise_boom, ValueError, "boom", 2),
        (_exit_without_result, RuntimeError, None, 3)])
    def test_worker_failure_reaches_the_caller(self, monkeypatch, count,
                                                error, match, code):
        # with two CPUs and two workers every span is counted in a child, so
        # the patched count_trials never runs in this process
        monkeypatch.setattr(montecarlo, "count_trials", count)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        with pytest.raises(error, match=match):
            estimate_logical_rates(build_teleport_identity(3, 1),
                                   zero_rates(), 100, seed=0, workers=2)
        assert_no_child_left()
        assert main(["simulate", "--gadget", "cnot", "--n", "3", "--k", "3",
                     "--trials", "100", "--workers", "2"]) == code
        assert_no_child_left()

    def test_leaked_output_folds_into_other_rate(self):
        table = table_with(prep_A=Rates(eps_leak=1.0))
        tele = build_teleport_identity(3, 1)
        _, epsp = estimate_logical_rates(tele, table, 2000, seed=6)
        counts = count_trials(tele, table, 6, 0, 2000)
        assert epsp.mean == 1.0
        assert counts.logical_x < counts.logical_other

    def test_partition_invariance(self):
        tele = build_teleport_identity(3, 3)
        table = uniform_table(0.02, 0.005)
        whole = count_trials(tele, table, 9, 0, 30_000)
        split = count_trials(tele, table, 9, 0, 11_000) \
            + count_trials(tele, table, 9, 11_000, 30_000)
        assert whole == split

    def test_batch_size_invariance(self, monkeypatch):
        tele = build_teleport_identity(3, 1)
        table = uniform_table(0.02, 0.005)
        monkeypatch.setattr(montecarlo, "_BATCH_SIZE", 512)
        a = count_trials(tele, table, 9, 0, 5000)
        monkeypatch.setattr(montecarlo, "_BATCH_SIZE", 4096)
        b = count_trials(tele, table, 9, 0, 5000)
        assert a == b

    def test_scalar_trials_match_batch(self):
        cnot = build_logical_cnot(3, 3)
        table = uniform_table(0.05, 0.02)
        trials = np.arange(200, dtype=np.uint64)
        batch = run_circuit_batch(cnot, table, 33, trials)
        lz, lx, lk = classify_batch(cnot, batch)
        for t in (0, 17, 111, 199):
            trial = run_trial(cnot, table, 33, t)
            assert trial.logical_z_error == bool(lz[t])
            assert trial.logical_x_error == bool(lx[t])
            assert trial.leaked_output == bool(lk[t])


class TestForked:
    """``montecarlo._forked`` runs each task in a forked child; no child
    outlives the call, however it ends."""

    def test_results_in_task_order(self):
        assert montecarlo._forked([partial(pow, 2, i) for i in range(5)]) \
            == [1, 2, 4, 8, 16]
        assert_no_child_left()

    @pytest.mark.parametrize("task,code", [
        (partial(os._exit, 1), "1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9")])
    def test_child_without_result_is_named(self, task, code):
        with pytest.raises(RuntimeError, match=rf"worker process \d+ ended "
                           rf"without a result \(exit code {code}\)"):
            montecarlo._forked([task])
        assert_no_child_left()

    def test_failure_kills_running_siblings(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match="boom"):
            montecarlo._forked([_raise_boom, partial(time.sleep, 60)])
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_fork_failure_closes_its_pipe(self, monkeypatch):
        fork, forks = os.fork, []

        def second_fork_fails():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(montecarlo.os, "fork", second_fork_fails)
        open_fds = len(os.listdir("/proc/self/fd"))
        start = time.monotonic()
        with pytest.raises(BlockingIOError):
            montecarlo._forked([partial(time.sleep, 60)] * 2)
        assert time.monotonic() - start < 30
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert_no_child_left()

    def test_interrupt_kills_every_child(self):
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.3)
            with pytest.raises(KeyboardInterrupt):
                montecarlo._forked([partial(time.sleep, 60)] * 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30
        assert_no_child_left()


class TestBruteForceOracle:
    def test_weight_zero_is_zero(self):
        tele = build_teleport_identity(3, 1)
        result = brute_force_oracle(tele, uniform_table(1e-3), 0)
        assert result.prob_z == 0.0 and result.prob_x == 0.0
        assert result.patterns_run == 0

    def test_budget_enforced(self):
        tele = build_teleport_identity(3, 3)
        with pytest.raises(ValueError, match="budget"):
            brute_force_oracle(tele, uniform_table(1e-3), 3, max_patterns=10)

    @pytest.mark.parametrize("weight", [0, 3])
    def test_negative_limit_rejected(self, weight):
        # rejected before the budget check, even where nothing is enumerated
        tele = build_teleport_identity(3, 3)
        with pytest.raises(ValueError, match=r"max_patterns must be >= 0, got -5"):
            brute_force_oracle(tele, uniform_table(1e-3), weight, max_patterns=-5)

    def test_budget_is_exact_pattern_count(self):
        # prep, CPHASE and measurement sites carry 2, 3 and 1 fault classes
        tele = build_teleport_identity(3, 3)
        table = uniform_table(1e-3, 1e-4)
        assert {len(s.choices) for s in fault_sites(tele, table)} == {1, 2, 3}
        run = brute_force_oracle(tele, table, 2).patterns_run
        assert brute_force_oracle(tele, table, 2,
                                  max_patterns=run).patterns_run == run
        with pytest.raises(ValueError, match=f"budget exceeded: {run} patterns"):
            brute_force_oracle(tele, table, 2, max_patterns=run - 1)

    def test_leak_rates_rejected(self):
        tele = build_teleport_identity(3, 1)
        table = table_with(prep_A=Rates(eps_leak=1e-4))
        with pytest.raises(ValueError, match="leak"):
            brute_force_oracle(tele, table, 1)

    def test_ancilla_quadratic_term(self):
        # only ancilla faults, k=3: the quadratic coefficient matches the
        # 3 p^2 leading term of the majority failure
        p = 1e-3
        tele = build_teleport_identity(3, 3)
        table = table_with(prep_B=Rates(eps=p))
        result = brute_force_oracle(tele, table, 2)
        assert result.by_weight_x[1] == 0.0
        assert result.count_x[2] == 3
        assert result.prob_x == pytest.approx(3 * p * p * (1 - p), rel=1e-9)

    def test_linear_coefficient_counts_single_faults(self):
        p = 1e-3
        tele = build_teleport_identity(3, 1)
        table = table_with(prep_A=Rates(eps=p))
        result = brute_force_oracle(tele, table, 1)
        # output-block prep phase faults alone never exceed the code
        # distance, so no weight-1 logical phase error exists
        assert result.count_z[1] == 0
        assert result.prob_z == 0.0

    def test_oracle_matches_monte_carlo(self):
        tele = build_teleport_identity(3, 1)
        table = uniform_table(1e-3, 1e-4)
        oracle = brute_force_oracle(tele, table, 2)
        eps, epsp = estimate_logical_rates(tele, table, 1_000_000, seed=21)
        assert abs(eps.mean - oracle.prob_z) <= \
            3 * eps.stderr + oracle.remainder_bound
        assert abs(epsp.mean - oracle.prob_x) <= \
            3 * epsp.stderr + oracle.remainder_bound

    def test_monotonicity_in_each_rate(self):
        # the logical phase rate is non-decreasing in every individual rate;
        # checked on a one-step grid per rate, with Monte Carlo resolution
        tele = build_teleport_identity(3, 1)
        trials = 400_000
        base = dict(cz_A=Rates(eps=2e-3), prep_A=Rates(eps=2e-3),
                    measx_A=Rates(eps=2e-3), measx_B=Rates(eps=2e-3))
        ref, _ = estimate_logical_rates(tele, table_with(**base), trials,
                                        seed=51)
        for key in base:
            bumped = dict(base)
            bumped[key] = Rates(eps=1.2e-2)
            out, _ = estimate_logical_rates(tele, table_with(**bumped),
                                            trials, seed=52)
            slack = 3 * (ref.stderr + out.stderr)
            assert out.mean >= ref.mean - slack, key
        # rates that feed the block majorities must strictly increase it
        for key in ("cz_A", "prep_A", "measx_A"):
            bumped = dict(base)
            bumped[key] = Rates(eps=1.2e-2)
            out, _ = estimate_logical_rates(tele, table_with(**bumped),
                                            trials, seed=53)
            assert out.mean > ref.mean + 3 * (ref.stderr + out.stderr), key

    @pytest.mark.parametrize("build", [
        lambda: build_teleport_identity(3, 3),
        lambda: build_logical_cnot(3, 3, pre_teleport=True),
    ], ids=["teleport33", "cnot33-pre-teleport"])
    def test_fault_sites_are_the_flattened_table(self, build):
        circuit, table = build(), table1_without(*LEAK_FREE)
        assert fault_sites(circuit, table) == \
            [s for loc_sites in table.sites(circuit) for s in loc_sites]

    def test_fault_sites_cover_all_locations(self):
        tele = build_teleport_identity(3, 1)
        sites = fault_sites(tele, uniform_table(1e-3, 1e-4))
        qubit_sites = {(s.location_id, s.qubit) for s in sites}
        expected = {(loc.index, q) for loc in tele.locations
                    for q in loc.qubits}
        assert qubit_sites == expected


def table1_without(*fields: str) -> ErrorRateTable:
    """The built-in rates with the named ``Rates`` fields set to zero."""
    return ErrorRateTable(entries={
        key: dataclasses.replace(r, **dict.fromkeys(fields, 0.0))
        for key, r in default_rates().entries.items()})


PHASE_ONLY = ("eps_other", "eps_leak")
LEAK_FREE = ("eps_leak",)


class TestLinearOracle:
    """``brute_force_oracle`` XORs single-fault effects and decodes patterns
    in batches; these tests hold it to one scalar run per pattern."""

    @pytest.mark.parametrize("build,rates,weight", [
        (lambda: build_teleport_identity(3, 1), PHASE_ONLY, 3),
        (lambda: build_teleport_identity(3, 1), LEAK_FREE, 3),
        (lambda: build_teleport_identity(3, 3), PHASE_ONLY, 3),
        (lambda: build_teleport_identity(3, 3), LEAK_FREE, 2),
        (lambda: build_logical_cnot(3, 3), PHASE_ONLY, 2),
        (lambda: build_logical_cnot(3, 3), LEAK_FREE, 1),
    ], ids=["teleport31-phase", "teleport31-leakfree", "teleport33-phase",
            "teleport33-leakfree", "cnot33-phase", "cnot33-leakfree"])
    def test_equals_replay_per_pattern(self, build, rates, weight):
        circuit, table = build(), table1_without(*rates)
        for w in range(1, weight + 1):
            assert brute_force_oracle(circuit, table, w) == \
                replay_oracle(circuit, table, w)

    @pytest.mark.parametrize("chunk", [1, 5, 1 << 15])
    def test_patterns_in_enumeration_order(self, monkeypatch, chunk):
        # combinations of sites, then the product of their classes with the
        # last site fastest; rows number the classes site by site.  A chunk
        # holds whole combinations, as many as fit the pattern budget, a
        # row counting later[its last site] patterns.
        monkeypatch.setattr(montecarlo, "_ORACLE_PASS", chunk)
        n_classes = [2, 1, 3, 2, 1]
        later = np.array([7, 6, 3, 1, 0])
        first = np.cumsum(n_classes) - n_classes
        site_of = np.repeat(np.arange(5), n_classes)
        for w in (1, 2, 3):
            expected = [rows for combo in combinations(range(5), w)
                        for rows in product(*(range(first[i], first[i] + n_classes[i])
                                              for i in combo))]
            chunks = list(montecarlo._pattern_chunks(np.array(n_classes), w,
                                                     later))
            assert [tuple(r) for c in chunks for r in c.tolist()] == expected
            combos = [[tuple(site_of[r]) for r in c.tolist()] for c in chunks]
            size = [int(later[site_of[c[:, -1]]].sum()) for c in chunks]
            for i, c in enumerate(combos):
                assert size[i] <= chunk or len(set(c)) == 1
                if i + 1 < len(chunks):
                    assert c[-1] != combos[i + 1][0]
                    head = combos[i + 1].count(combos[i + 1][0])
                    assert size[i] + head * later[combos[i + 1][0][-1]] > chunk

    @pytest.mark.parametrize("build,table,weight,chunk,faults", [
        (lambda: build_teleport_identity(3, 1),
         lambda: table1_without(*LEAK_FREE), 3, 5, 48),
        (lambda: build_teleport_identity(3, 1),
         lambda: table1_without(*LEAK_FREE), 3, 30, 48),
        (lambda: build_logical_cnot(3, 1),
         lambda: table_with(cz_B=Rates(4.6e-3, 3.5e-6), measx_B=Rates(1.83e-3),
                            prep_A=Rates(2.75e-3, 3.5e-7),
                            prep_B=Rates(2.75e-3, 3.5e-7)), 2, 1 << 10, 63),
        (lambda: build_logical_cnot(3, 1),
         lambda: table_with(cz_A=Rates(1.96e-3), cz_B=Rates(4.6e-3, 3.5e-6),
                            prep_B=Rates(2.75e-3, 3.5e-7)), 2, 7, 64),
        (lambda: build_logical_cnot(3, 1),
         lambda: table_with(cz_B=Rates(4.6e-3, 3.5e-6), measx_A=Rates(1.83e-3),
                            prep_A=Rates(2.75e-3, 3.5e-7),
                            prep_B=Rates(2.75e-3)), 2, 1 << 10, 65),
        (lambda: circuit_from_text(REPREPARED_ANCILLA),
         lambda: table1_without(*LEAK_FREE), 3, 5, 18),
        (lambda: build_teleport_identity(3, 1),
         lambda: table1_without(*LEAK_FREE), 3, 1 << 10, 48),
    ], ids=["teleport31-chunk5", "teleport31-chunk30", "cnot31-63faults",
            "cnot31-64faults-chunk7", "cnot31-65faults", "no-output-rows-chunk5",
            "teleport31-chunk1024"])
    def test_chunk_boundaries_change_nothing(self, monkeypatch, build, table,
                                            weight, chunk, faults):
        # A pass decodes the patterns of whole site combinations of the
        # first w - 1 faults, as many as fit a budget of patterns.  A
        # budget of 5 puts one combination in most passes, so carried
        # sums, counts and the replay choice all cross passes; budgets of
        # 30 and 7 put up to nine combinations, of class products 1 to 9,
        # in the passes near the end of the numbering, where few faults
        # follow a prefix, and a budget of 1,024 splits each weight into
        # passes of many combinations (weight 2: two, weight 3: 17).  A
        # pass of the circuit without output rows holds only a prefix at
        # the last site, which no fault follows.  The last fault's classes
        # are packed 64 to a word, and a
        # weight-2 combination's class product lies in one row per prefix:
        # 63, 64 and 65 faults end the weight-1 patterns one bit short of,
        # on and one bit past a word boundary, and at weight 2 the
        # suffixes of all lengths below put 1- to 3-class sites across one.
        # A circuit with no output block and no majority group gives the
        # decoder no row to read.
        circuit, rates = build(), table()
        assert sum(len(s.choices) for s in fault_sites(circuit, rates)) == faults
        monkeypatch.setattr(montecarlo, "_ORACLE_PASS", chunk)
        assert brute_force_oracle(circuit, rates, weight) == \
            replay_oracle(circuit, rates, weight)

    @pytest.mark.parametrize("build", [
        lambda: build_logical_cnot(3, 3),
        lambda: build_teleport_identity(3, 3),
        lambda: build_logical_cnot(3, 3, pre_teleport=True),
    ], ids=["cnot33", "teleport33", "cnot33-pre-teleport"])
    def test_pattern_effect_is_xor_of_single_effects(self, build):
        circuit = build()
        sites = fault_sites(circuit, table1_without(*LEAK_FREE))
        faults = [FaultEvent(s.location_id, s.qubit, kind)
                  for s in sites for kind, _ in s.choices]
        effects = montecarlo._fault_effects(circuit, faults, zero_rates())
        n_classes = [len(s.choices) for s in sites]
        first = np.cumsum(n_classes) - n_classes
        rng = np.random.default_rng(7)
        for w in (2, 2, 3, 3) * 25:
            chosen = rng.choice(len(sites), size=w, replace=False)
            rows = [first[i] + rng.integers(n_classes[i]) for i in chosen]
            run = run_circuit(circuit, zero_rates(), 0,
                              forced_faults=[faults[r] for r in rows],
                              leak_policy=LeakPolicy.NEVER_Z)
            whole = [run.outcomes.bits[loc] for loc in circuit.measure_locations]
            whole += [*run.frame.x, *run.frame.z]
            assert not any(run.frame.leaked)
            assert np.bitwise_xor.reduce(effects[:, rows], axis=1).tolist() \
                == [bool(b) for b in whole]

    def test_replays_a_few_patterns_per_weight(self, monkeypatch):
        calls = []
        real = montecarlo.run_trial

        def counted(*args, **kwargs):
            calls.append(kwargs["forced_faults"])
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "run_trial", counted)
        tele = build_teleport_identity(3, 3)
        result = brute_force_oracle(tele, table1_without(*PHASE_ONLY), 2)
        # weight 1 has no logical error to replay; weight 2 has both kinds
        assert result.count_z[1] == result.count_x[1] == 0
        assert [len(events) for events in calls] == [1, 2, 2]

    def test_replay_disagreement_raises(self, monkeypatch, capsys, tmp_path):
        real = montecarlo.run_trial

        def flipped(*args, **kwargs):
            trial = real(*args, **kwargs)
            return dataclasses.replace(
                trial, logical_z_error=not trial.logical_z_error)

        monkeypatch.setattr(montecarlo, "run_trial", flipped)
        tele, table = build_teleport_identity(3, 1), table1_without(*PHASE_ONLY)
        with pytest.raises(RuntimeError, match="linear fault enumeration"):
            brute_force_oracle(tele, table, 2)
        path = tmp_path / "phase.json"
        path.write_text(table.to_json())
        code = main(["oracle", "--gadget", "teleport", "--n", "3", "--k", "1",
                     "--weight", "2", "--rates", str(path)])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert "invariant violation" in err


class TestProbMoreFaults:
    """``prob_more_faults`` against a direct sum over every subset of the
    fault draws."""

    @pytest.mark.parametrize("table", [
        lambda: table1_without(*LEAK_FREE), lambda: uniform_table(0.05, 0.02),
    ], ids=["table1-leakfree", "uniform-5e-2"])
    def test_equals_subset_enumeration(self, table):
        tele, rates = build_teleport_identity(3, 1), table()
        p = [sum(s.row.probs) for s in fault_sites(tele, rates)]
        subsets = np.arange(1 << len(p))
        prob = np.ones(len(subsets))
        size = np.zeros(len(subsets), dtype=int)
        for i, p_i in enumerate(p):
            member = (subsets >> i) & 1 == 1
            prob *= np.where(member, p_i, 1.0 - p_i)
            size += member
        assert len(p) == 20
        for w in range(len(p) + 1):
            assert math.isclose(prob_more_faults(tele, rates, w),
                                prob[size > w].sum(), rel_tol=1e-12), w

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            prob_more_faults(build_teleport_identity(3, 1), uniform_table(1e-3), -1)
