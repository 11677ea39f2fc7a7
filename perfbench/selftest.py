"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py        (from the root of a biasrep checkout)

Checks that

* BENCHMARK.json names exactly the workloads and metrics (with units) that
  run.py emits, and every run emits each of them with its unit;
* the seed reaches the generated inputs: equal seeds give equal inputs,
  different seeds different ones;
* every correctness check passes on real outputs and fails once its
  reference is deliberately corrupted.

Exits 0 when all checks pass, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES: list[str] = []
SEED = 5                   # seed of the jobs whose checks are corrupted


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def check_contract(root: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", run.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        expect(declared == units, f"BENCHMARK.json {key} names and units "
                                  f"match run.py")


def check_runs(root: str) -> None:
    for workload in wl.WORKLOADS:
        for trace, units in ((False, run.END_TO_END_UNITS),
                             (True, run.PER_LAYER_UNITS)):
            record = run.run_workload(root, workload, 3, 0.0, trace, "tiny")
            metrics = record["metrics"]
            emitted = all(name in metrics and metrics[name]["unit"] == unit
                          and math.isfinite(metrics[name]["value"])
                          for name, unit in units.items())
            expect(emitted and set(metrics) == set(units),
                   f"{workload} trace={int(trace)} emits every metric with "
                   f"its unit")
            expect(record["correct"] and record["attempted"] > 0,
                   f"{workload} trace={int(trace)} outputs pass their checks "
                   f"({record['failed']} of {record['attempted']} failed: "
                   f"{record['failures'][:2]})")


def check_seeds(workdir: str) -> None:
    for workload in wl.WORKLOADS:
        def inputs(seed: int) -> tuple:
            job = wl.make_job(workload, seed, 0, workdir)
            return job.ops, job.files
        expect(inputs(1) == inputs(1) and inputs(1) != inputs(2),
               f"{workload} inputs are a function of the seed")


def outputs_of(root: str, workload: str) -> tuple[wl.Job, list[str]]:
    r = run.Run(root, workload, SEED, "tiny")
    try:
        job = wl.make_job(workload, SEED, 0, r.workdir, "tiny")
        out, _ = r.execute(job)
    finally:
        r.close()
    return job, [op["stdout"] for op in out["ops"]]


def fails(job: wl.Job, outputs: list[str]) -> bool:
    return bool(job.check(outputs).failures)


def corrupt_mc(root: str) -> None:
    for workload, key in (("mc-cnot57", "cnot57-table1"),
                          ("mc-cnot33-dense", "cnot33-x5")):
        job, outputs = outputs_of(root, workload)
        expect(not fails(job, outputs), f"{workload} check passes")
        for name in ("eps_L", "epsp_L"):
            saved = wl.MC_REFERENCE[key][name]
            wl.MC_REFERENCE[key][name] = (2 * saved[0] + 0.01, saved[1])
            expect(fails(job, outputs), f"{workload} check fails with a "
                                        f"corrupted {name} reference")
            wl.MC_REFERENCE[key][name] = saved


def corrupt_oracle(root: str) -> None:
    job, outputs = outputs_of(root, "oracle-cnot33")
    expect(not fails(job, outputs), "oracle check passes")
    reference = wl.ORACLE_REFERENCE[wl.ORACLE_SCALES[SEED % len(wl.ORACLE_SCALES)]]
    saved = copy.deepcopy(reference)
    corruptions = {"patterns_run": saved["patterns_run"] + 1,
                   "count_z": saved["count_z"][:2] + [saved["count_z"][2] + 1],
                   "count_x": saved["count_x"][:2] + [saved["count_x"][2] + 1],
                   "prob_z": saved["prob_z"] * (1 + 1e-6),
                   "prob_x": saved["prob_x"] * (1 + 1e-6)}
    for key, value in corruptions.items():
        reference[key] = value
        expect(fails(job, outputs), f"oracle check fails with a corrupted "
                                    f"{key} reference")
        reference[key] = saved[key]


def corrupt_analysis(root: str) -> None:
    job, outputs = outputs_of(root, "analysis")
    expect(not fails(job, outputs), "analysis checks pass")
    for qubit in (None, "A", "B"):
        for key, factor in (("upper", 0.5), ("paper", 1.3)):
            saved = wl.CHANNEL_REFERENCE[qubit][key]
            wl.CHANNEL_REFERENCE[qubit][key] = saved * factor
            expect(fails(job, outputs), f"channel check ({qubit or 'full'}) "
                                        f"fails with a corrupted {key} value")
            wl.CHANNEL_REFERENCE[qubit][key] = saved
    damping = next(i for i, argv in enumerate(job.ops)
                   if "--amplitude-damping" in argv)
    gamma = float(job.ops[damping][job.ops[damping].index(
        "--amplitude-damping") + 1])
    expect(not wl.check_damping(outputs[damping], gamma)
           and wl.check_damping(outputs[damping], gamma * (1 + 1e-9)),
           "amplitude-damping check fails with a corrupted gamma")
    saved = wl.OPTIMUM_REFERENCE
    for corrupted in ((5, 5) + saved[2:], saved[:2] + (saved[2] * 1.001,
                                                       saved[3])):
        wl.OPTIMUM_REFERENCE = corrupted
        expect(fails(job, outputs), f"optimize check fails with reference "
                                    f"{corrupted}")
    wl.OPTIMUM_REFERENCE = saved
    saved = wl.EPS_GRID
    wl.EPS_GRID = "1e-4:1e-2:24"
    expect(fails(job, outputs), "bounds sweep check fails with a corrupted "
                                "grid size")
    wl.EPS_GRID = saved


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "biasrep", "cli.py")):
        print("error: run from the root of a biasrep checkout", file=sys.stderr)
        return 2
    check_contract(root)
    check_seeds(os.path.join(root, ".bench_out", "unused"))   # writes nothing
    corrupt_mc(root)
    corrupt_oracle(root)
    corrupt_analysis(root)
    check_runs(root)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
