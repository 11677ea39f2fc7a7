"""One benchmark job, run in its own process by ``run.py``.

    python3 perfbench/job.py '<spec as JSON>'

The spec's ``mode`` selects what the process does; it prints one JSON
object on stdout.

* ``setup``: import biasrep and make the workload's inputs ready (rate
  table, gadget, schedule check, Kraus data); reports the time taken and
  figures computed from the circuit and table.
* ``job``: run a list of command lines through ``biasrep.cli.main``, the
  path users take, and report each exit code, output and wall time, plus
  the peak resident set of the process and its pool workers.  With
  ``setup`` in the spec, the set-up above runs first in the same fresh
  process and its time is reported too.
* ``probe``: time zero-rate batch propagation and single-trial scalar runs
  on the workload's circuit (traced runs only).

With ``trace_out`` set, spans of the public biasrep calls are recorded
(see ``tracing.py``) and written to that path when the job ends.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import tracing

BATCH_SIZE = 1 << 17      # count_trials' default batch size


def _tracer(spec: dict) -> tracing.Tracer | None:
    if not spec.get("trace_out"):
        return None
    tracer = tracing.Tracer(spec["job_id"], spec["trace_out"])
    tracer.install()
    return tracer


def stream_figures(circuit, rates, trials_per_worker: int) -> dict:
    """Keyed draws and expected faults per trial under the stream contract
    of ``run_circuit_batch`` (random-z leak policy), and the bytes of one
    batch's state.  All computed from the circuit and table, not measured.

    Draws per trial count one fault draw per (location, qubit) cell with a
    nonzero rate, two leak-partner draws per CPHASE (drawn for every trial
    under random-z), and the correlated Z(x)Z draw when enabled.  Draws for
    measuring a leaked qubit depend on the run and are left out.
    """
    from biasrep.noise_model import OpKind

    draws = faults = 0.0
    cells = 0
    for loc in circuit.locations:
        for q in loc.qubits:
            r = rates.get(loc.kind, circuit.species_of(q))
            cells += 1
            rate = r.eps if loc.kind is OpKind.MEASURE_X else r.total
            if rate:
                draws += 1
                faults += rate
        if loc.kind is OpKind.CPHASE:
            draws += 2
            if rates.cphase_zz:
                draws += 1
                faults += rates.cphase_zz
    batch = min(BATCH_SIZE, trials_per_worker)
    meas = len(circuit.measure_locations)
    return {
        "qubits": circuit.n_qubits,
        "locations": len(circuit.locations),
        "fault_cells": cells,
        "draws_per_trial": draws,
        "faults_per_trial": faults,
        "fault_frac": faults / draws,
        "batch_trials": batch,
        # bool x, z, leak [N, B] and outcome, leak-random [M, B]; uint64
        # trial indices; one draw's uint64 hash and float64 uniforms.
        "batch_state_bytes": (3 * circuit.n_qubits + 2 * meas) * batch
        + 8 * batch + 16 * batch,
    }


def run_setup(spec: dict) -> dict:
    start = time.perf_counter()
    # Module attributes, not imported names, so traced set-ups call wrappers.
    from biasrep import channels, gadgets, noise_model

    tracer = _tracer(spec)
    if spec["rates"] == "table1":
        rates = noise_model.default_rates()
    else:
        with open(spec["rates"]) as fh:
            rates = noise_model.ErrorRateTable.from_json(fh.read())
    circuit = None
    if spec.get("gadget"):
        name, n, k = spec["gadget"]
        circuit = gadgets.build_gadget(name, n, k)
        violations = gadgets.check_schedule(circuit)
        if violations:
            raise SystemExit(f"schedule violation: {violations[0]}")
    if spec.get("kraus"):
        kraus = channels.builtin_cphase_kraus()
        for qubit in (None, "A", "B"):
            channels.split_channel(kraus, resolve=qubit)
    setup_s = time.perf_counter() - start
    if tracer:
        tracer.dump()
    out = {"setup_s": setup_s}
    if circuit is not None and spec.get("trials_per_worker"):
        out["computed"] = stream_figures(circuit, rates,
                                         spec["trials_per_worker"])
    return out


def _own_peak_kib() -> int:
    """Peak resident set of this process since it started, in KiB.

    ``ru_maxrss`` of a process started by vfork and exec also counts the
    peak of the parent it was started from (the benchmark's runner, which
    holds the reference computation's arrays); the kernel's ``VmHWM`` is
    this process's own.  Pool workers are forked from this process, which
    the pool has joined by the time ``cli.main`` returns, so their peaks
    are in ``RUSAGE_CHILDREN``; both are in KiB on Linux.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_job(spec: dict) -> dict:
    setup = run_setup(spec["setup"]) if spec.get("setup") else None
    import biasrep.cli

    tracer = _tracer(spec)
    ops = []
    for argv in spec["ops"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = biasrep.cli.main(argv)
            except SystemExit as exc:        # argparse rejects the command
                rc = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
        ops.append({"rc": rc, "wall_s": wall, "stdout": out.getvalue(),
                    "stderr": err.getvalue()[-2000:]})
    if tracer:
        tracer.dump()
    peak_kib = max(_own_peak_kib(),
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {"ops": ops, "wall_s": sum(op["wall_s"] for op in ops),
           "peak_rss_mb": peak_kib / 1024}
    if setup is not None:
        out["setup"] = setup
    return out


def run_probe(spec: dict) -> dict:
    import numpy as np

    tracer = _tracer(spec)      # before the imports below bind the wrappers
    from biasrep.gadgets import build_gadget
    from biasrep.noise_model import FaultEvent, FaultKind, zero_rates
    from biasrep.pauli_frame import run_circuit, run_circuit_batch
    from biasrep.streams import uniform

    name, n, k = spec["gadget"]
    circuit = build_gadget(name, n, k)
    zero = zero_rates()
    trials = np.arange(spec["batch_trials"], dtype=np.uint64)
    for _ in range(3):
        run_circuit_batch(circuit, zero, 0, trials, leak_policy="never-z",
                          validate=False)
    cells = [(loc.index, q) for loc in circuit.locations for q in loc.qubits]
    for i in range(spec["scalar_runs"]):
        loc, q = cells[int(uniform(spec["seed"], i, 0, 0) * len(cells))]
        run_circuit(circuit, zero, 0, trial=i, validate=False,
                    forced_faults=[FaultEvent(loc, q, FaultKind.Z)])
    tracer.dump()
    return {}


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = {"setup": run_setup, "job": run_job, "probe": run_probe}[spec["mode"]]
    print(json.dumps(mode(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
