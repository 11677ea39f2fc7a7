"""Benchmark workloads: the inputs each job generates from the seed, the
biasrep command lines it runs, and the correctness check of their outputs.

Why these four (details in README.md):

* ``mc-cnot57``: the paper's (5, 7) optimum on table1 with two workers;
  sparse faults (~0.17% of keyed draws), so keyed hashing, batch frame
  propagation and the worker fan-out dominate.
* ``mc-cnot33-dense``: table1 x5 on cnot(3,3) in one process; ~5x the fault
  share, live leak branches, half the batch working set, no pool.
* ``oracle-cnot33``: exhaustive weight-2 enumeration through the scalar
  engine on a phase-only table; no keyed draws at all.
* ``analysis``: channel norms (dense linear algebra) and closed-form bounds,
  which no other workload touches.

Reference values were recorded with biasrep 0.1.0 on the commit that added
this benchmark.  Monte Carlo checks are statistical (a later change may
change the stream contract); oracle checks are exact up to float rounding.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("mc-cnot57", "mc-cnot33-dense", "oracle-cnot33", "analysis")

# The parts of the reference computation (reference.py) that a workload's
# runs time and divide its job time by: those that slow as its own work
# does.  The oracle is interpreted Python throughout, and the host's slow
# phases slow that more than numpy or BLAS code; the other jobs mix all
# three kinds of work.
ALL_PARTS = ("interpreted", "elementwise", "dense")
REFERENCE_PARTS = {"mc-cnot57": ALL_PARTS, "mc-cnot33-dense": ALL_PARTS,
                   "oracle-cnot33": ("interpreted",), "analysis": ALL_PARTS}

# Built-in table1 rows (operation, species, eps, eps_other, eps_leak), the
# base of every generated rate table.
TABLE1 = (
    ("cz", "A", 1.96e-3, 3.5e-6, 3.5e-6),
    ("cz", "B", 4.6e-3, 3.5e-6, 3.5e-6),
    ("prep", "A", 2.75e-3, 3.5e-7, 3.77e-7),
    ("prep", "B", 2.75e-3, 3.5e-7, 1.5e-5),
    ("measx", "A", 1.83e-3, 0.0, 0.0),
    ("measx", "B", 1.83e-3, 0.0, 0.0),
)

# Monte Carlo references: (mean, stderr) at the stated trials and seed.
MC_REFERENCE = {
    "cnot57-table1": {"trials": 4_000_000, "seed": 777,
                      "eps_L": (1.08875e-3, 1.648912235e-05),
                      "epsp_L": (1.58875e-3, 1.991372563e-05)},
    "cnot33-x5": {"trials": 4_000_000, "seed": 777,
                  "eps_L": (0.027436, 8.167506643e-05),
                  "epsp_L": (0.14211425, 1.745836404e-04)},
}
MC_SIGMAS = 5.0   # allowed distance, in combined standard errors

# Oracle references, cnot(3,3) at weight 2, per scale of the phase-only
# table: 6,555 patterns (114 sites, one fault class each).
ORACLE_REFERENCE = {
    1: {"patterns_run": 6555, "count_z": [0, 0, 291], "count_x": [0, 0, 555],
        "prob_z": 0.0008567601905427193, "prob_x": 0.006711683453326557},
    2: {"patterns_run": 6555, "count_z": [0, 0, 291], "count_x": [0, 0, 555],
        "prob_z": 0.002420092006033365, "prob_x": 0.019045759992480215},
    3: {"patterns_run": 6555, "count_z": [0, 0, 291], "count_x": [0, 0, 555],
        "prob_z": 0.0038404010732273103, "prob_x": 0.030363439796979665},
    5: {"patterns_run": 6555, "count_z": [0, 0, 291], "count_x": [0, 0, 555],
        "prob_z": 0.005286023802814611, "prob_x": 0.04218530153829869},
}
ORACLE_SCALES = (1, 2, 3, 5)

# CPHASE phase-channel references per resolved qubit (None = unresolved):
# the paper's Bell-input values with criterion 7's 15% window, and the
# certified diamond-norm upper bound ||Tr_out |J|||_inf (Watrous,
# arXiv:1207.5726) of the same channel, computed from its Choi matrix.
CHANNEL_REFERENCE = {
    None: {"paper": 4.73e-3, "upper": 5.726009365158415e-3},
    "A": {"paper": 1.96e-3, "upper": 2.121627419161446e-3},
    "B": {"paper": 4.6e-3, "upper": 5.2656993260039075e-3},
}
CRITERION7_WINDOW = 0.15
# optimize --rates table1 --c 3: (n, k, eps_L, epsp_L) as printed.
OPTIMUM_REFERENCE = (5, 7, 0.004722177827, 0.004210531691)
BIAS_LEVELS = ("1e3", "1e4")
EPS_GRID = "1e-4:1e-2:25"

# Job sizes.  "full" is what the benchmark measures; "tiny" is for the
# self-test.  Jobs are short (1-2.5 s) so that a run holds 8-20 of them and
# the reference timings on either side of a job are close to it in time:
# the shared host's speed changes by up to 2x within seconds.
SIZES = {
    "full": {"mc-cnot57": 1 << 18, "mc-cnot33-dense": 1 << 19,
             "restarts": 2, "gammas": 3},
    "tiny": {"mc-cnot57": 1 << 14, "mc-cnot33-dense": 1 << 14,
             "restarts": 0, "gammas": 1},
}


@dataclass
class Job:
    """One closed-loop job: command lines run in order in one process."""

    ops: list[list[str]]
    work: int                       # items of work the job completes
    unit: str                       # what an item is
    files: dict[str, str]           # generated inputs: file name -> content
    check: Callable[[list[str]], "CheckResult"]   # op outputs -> verdict
    setup: dict                     # what job.py's set-up mode prepares


@dataclass
class CheckResult:
    failures: dict[int, list[str]] = field(default_factory=dict)  # op -> why
    # Known defects seen in the outputs: description -> measured size.
    notes: dict[str, float] = field(default_factory=dict)

    def fail(self, op: int, message: str) -> None:
        self.failures.setdefault(op, []).append(message)


def rate_table(scale: float, phase_only: bool = False) -> str:
    """table1 with every rate multiplied by ``scale`` (non-phase and leakage
    rates optionally zeroed), in the JSON rate-table format biasrep reads."""
    keep = 0.0 if phase_only else scale
    rows = [{"operation": op, "species": sp, "eps": scale * eps,
             "eps_other": keep * other, "eps_leak": keep * lk}
            for op, sp, eps, other, lk in TABLE1]
    return json.dumps({"rates": rows, "cphase_zz": 0.0}, indent=2)


def make_job(workload: str, seed: int, index: int, workdir: str,
             size: str = "full") -> Job:
    """The ``index``-th job of a run with this seed.  Every input (command
    arguments and generated files) is a function of (seed, index)."""
    sizes = SIZES[size]
    if workload == "mc-cnot57":
        return _mc_job("cnot57-table1", (5, 7), "table1", None, 2,
                       sizes[workload], seed, index, workdir)
    if workload == "mc-cnot33-dense":
        return _mc_job("cnot33-x5", (3, 3), "dense.json", rate_table(5.0), 1,
                       sizes[workload], seed, index, workdir)
    if workload == "oracle-cnot33":
        return _oracle_job(seed, workdir)
    if workload == "analysis":
        return _analysis_job(seed, index, sizes["restarts"], sizes["gammas"])
    raise ValueError(f"unknown workload {workload!r}")


def job_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _mc_job(ref_key, nk, rates_name, rates_json, workers, trials, seed, index,
            workdir) -> Job:
    n, k = nk
    files = {}
    rates_arg = rates_name
    if rates_json is not None:
        files[rates_name] = rates_json
        rates_arg = os.path.join(workdir, rates_name)
    sim_seed = job_seed(seed, index)
    argv = ["simulate", "--gadget", "cnot", "--n", str(n), "--k", str(k),
            "--rates", rates_arg, "--trials", str(trials),
            "--seed", str(sim_seed), "--workers", str(workers)]

    def check(outputs: list[str]) -> CheckResult:
        result = CheckResult()
        for message in check_mc(outputs[0], MC_REFERENCE[ref_key], trials,
                                sim_seed):
            result.fail(0, message)
        return result

    return Job([argv], trials, "trials", files, check,
               {"rates": rates_arg, "gadget": ["cnot", n, k],
                "trials_per_worker": -(-trials // workers)})


def check_mc(stdout: str, reference: dict, trials: int, seed: int) -> list[str]:
    """Both estimates within MC_SIGMAS combined standard errors of the
    reference; the run's own error uses the reference rate, so a run with
    no observed errors is not mistaken for a precise one."""
    try:
        row = _csv_rows(stdout)[0]
        got_trials, got_seed = int(row["trials"]), int(row["seed"])
        estimates = {name: float(row[name]) for name in ("eps_L", "epsp_L")}
    except (IndexError, KeyError, ValueError) as exc:
        return [f"unreadable simulate output: {exc!r}"]
    failures = []
    if (got_trials, got_seed) != (trials, seed):
        failures.append(f"echoed trials/seed {got_trials}/{got_seed}, "
                        f"expected {trials}/{seed}")
    for name, value in estimates.items():
        ref, ref_err = reference[name]
        sigma = math.sqrt(ref * (1 - ref) / trials + ref_err ** 2)
        if abs(value - ref) > MC_SIGMAS * sigma:
            failures.append(f"{name}={value:.6g} is {abs(value - ref) / sigma:.1f} "
                            f"sigma from reference {ref:.6g}")
    return failures


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def _oracle_job(seed: int, workdir: str) -> Job:
    # The oracle rejects leaky tables.  The input is table1's phase rates
    # alone (one fault class per site: 6,555 patterns, not 46,689, so a job
    # takes about a second), scaled by a factor the seed picks: the same
    # patterns, different probabilities.
    scale = ORACLE_SCALES[seed % len(ORACLE_SCALES)]
    reference = ORACLE_REFERENCE[scale]
    path = os.path.join(workdir, "phase.json")
    argv = ["oracle", "--gadget", "cnot", "--n", "3", "--k", "3",
            "--weight", "2", "--rates", path]

    def check(outputs: list[str]) -> CheckResult:
        result = CheckResult()
        for message in check_oracle(outputs[0], reference):
            result.fail(0, message)
        return result

    return Job([argv], reference["patterns_run"], "patterns",
               {"phase.json": rate_table(scale, phase_only=True)}, check,
               {"rates": path, "gadget": ["cnot", 3, 3]})


def check_oracle(stdout: str, reference: dict) -> list[str]:
    """Exact pattern and error counts; probabilities to float rounding."""
    try:
        got = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable oracle output: {exc!r}"]
    failures = []
    for key in ("patterns_run", "count_z", "count_x"):
        if got.get(key) != reference[key]:
            failures.append(f"{key}={got.get(key)} != {reference[key]}")
    for key in ("prob_z", "prob_x"):
        if not math.isclose(got.get(key, math.nan), reference[key],
                            rel_tol=1e-9):
            failures.append(f"{key}={got.get(key)!r} != {reference[key]!r}")
    return failures


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _analysis_job(seed: int, index: int, restarts: int, n_gammas: int) -> Job:
    rng = random.Random(job_seed(seed, index))
    gammas = [f"{10 ** rng.uniform(-6, -1):.6g}" for _ in range(n_gammas)]
    chan_seed = str(job_seed(seed, index))
    qubits = (None, "A", "B")
    ops = []
    for qubit in qubits:
        extra = ["--qubit", qubit] if qubit else []
        ops.append(["channel", "--builtin", "cphase", "--input", "bell"] + extra)
        ops.append(["channel", "--builtin", "cphase", "--input", "search",
                    "--restarts", str(restarts), "--seed", chan_seed] + extra)
    ad_first = len(ops)
    for gamma in gammas:
        ops.append(["channel", "--amplitude-damping", gamma,
                    "--restarts", "8", "--seed", chan_seed])
    ops.append(["optimize", "--rates", "table1"])
    sweep = ["bounds", "--optimize", "free", "--eps-grid", EPS_GRID]
    for bias in BIAS_LEVELS:
        sweep += ["--bias", bias]
    ops.append(sweep)

    def check(outputs: list[str]) -> CheckResult:
        result = CheckResult()
        for i, qubit in enumerate(qubits):
            check_channel(outputs[2 * i], outputs[2 * i + 1], qubit,
                          2 * i, result)
        for j, gamma in enumerate(gammas):
            for message in check_damping(outputs[ad_first + j], float(gamma)):
                result.fail(ad_first + j, message)
        for message in check_optimum(outputs[-2]):
            result.fail(len(ops) - 2, message)
        for message in check_sweep(outputs[-1]):
            result.fail(len(ops) - 1, message)
        return result

    return Job(ops, len(ops), "reports", {}, check,
               {"rates": "table1", "kraus": True})


def _channel_result(stdout: str) -> dict:
    return json.loads(stdout)["result"]


def check_channel(bell_out: str, search_out: str, qubit: str | None,
                  op: int, result: CheckResult) -> None:
    """Bell-input rate within criterion 7's window of the paper's value;
    both rates valid lower bounds (positive, at most the certified upper
    bound); no non-phase or leakage part in the published Kraus data.

    ``--input search`` never evaluates the Bell state, and its canonical and
    random probes stay 3-17% below the Bell value.  The search rate should
    reach the Bell value; at biasrep 0.1.0 it never does, so the gap is
    reported as a note on every run instead of failing every run.
    """
    ref = CHANNEL_REFERENCE[qubit]
    label = qubit or "full"
    rates = {}
    for offset, (kind, stdout) in enumerate((("bell", bell_out),
                                            ("search", search_out))):
        try:
            got = _channel_result(stdout)
            rate = float(got["phase_rate"])
            others = (float(got["other_rate"]), float(got["leak_rate"]),
                      float(got["decomposition_error"]))
        except (ValueError, KeyError, TypeError) as exc:
            result.fail(op + offset, f"unreadable channel output: {exc!r}")
            continue
        rates[kind] = rate
        if not 0.0 < rate <= ref["upper"] * (1 + 1e-9):
            result.fail(op + offset, f"{label} {kind} phase_rate {rate:.6g} "
                                     f"outside (0, {ref['upper']:.6g}]")
        if max(others) > 1e-12:
            result.fail(op + offset, f"{label} {kind} non-phase/leak/"
                                     f"decomposition {others} above 1e-12")
    if "bell" in rates and abs(rates["bell"] - ref["paper"]) \
            > CRITERION7_WINDOW * ref["paper"]:
        result.fail(op, f"{label} bell phase_rate {rates['bell']:.6g} not "
                        f"within 15% of {ref['paper']:.6g}")
    if len(rates) == 2 and rates["search"] < rates["bell"]:
        result.notes[f"known defect: {label} channel --input search "
                     f"phase_rate below the Bell input's, by up to"] = \
            1 - rates["search"] / rates["bell"]


def check_damping(stdout: str, gamma: float) -> list[str]:
    """other_rate equals gamma to float rounding; phase_rate within 20% of
    gamma/2 (criterion 8); Kraus completeness to 1e-12."""
    try:
        got = _channel_result(stdout)
    except (ValueError, KeyError) as exc:
        return [f"unreadable channel output: {exc!r}"]
    failures = []
    if not math.isclose(got["other_rate"], gamma, rel_tol=1e-12):
        failures.append(f"other_rate {got['other_rate']!r} != gamma {gamma!r}")
    if abs(got["phase_rate"] - gamma / 2) > 0.2 * gamma / 2:
        failures.append(f"phase_rate {got['phase_rate']!r} not within 20% "
                        f"of gamma/2")
    if got["completeness_error"] > 1e-12:
        failures.append(f"completeness_error {got['completeness_error']!r}")
    return failures


def _csv_rows(stdout: str) -> list[dict]:
    body = [line for line in stdout.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def check_optimum(stdout: str) -> list[str]:
    try:
        (row,) = _csv_rows(stdout)
        got = (int(row["n"]), int(row["k"]), float(row["eps_L"]),
               float(row["epsp_L"]))
    except (ValueError, KeyError) as exc:
        return [f"unreadable optimize output: {exc!r}"]
    n, k, eps_l, epsp_l = OPTIMUM_REFERENCE
    if got[:2] != (n, k):
        return [f"optimum {got[:2]} != {(n, k)}"]
    if not (math.isclose(got[2], eps_l, rel_tol=1e-9)
            and math.isclose(got[3], epsp_l, rel_tol=1e-9)):
        return [f"optimum bounds {got[2:]} != {(eps_l, epsp_l)}"]
    return []


def check_sweep(stdout: str) -> list[str]:
    """One row per (bias, eps) point, odd (n, k), total = eps_L + epsp_L,
    and an optimum that never improves as the physical rate grows."""
    try:
        rows = _csv_rows(stdout)
        points = [(float(r["bias"]), float(r["eps"]), int(r["n"]), int(r["k"]),
                   float(r["eps_L"]), float(r["epsp_L"]), float(r["total"]))
                  for r in rows]
    except (ValueError, KeyError) as exc:
        return [f"unreadable bounds output: {exc!r}"]
    grid_points = int(EPS_GRID.rsplit(":", 1)[1])
    if len(points) != grid_points * len(BIAS_LEVELS):
        return [f"{len(points)} rows, expected {grid_points * len(BIAS_LEVELS)}"]
    failures = []
    last: dict[float, float] = {}
    for bias, eps, n, k, eps_l, epsp_l, total in points:
        if n % 2 == 0 or k % 2 == 0:
            failures.append(f"even (n, k) = ({n}, {k}) at eps={eps:g}")
        if not math.isclose(total, eps_l + epsp_l, rel_tol=1e-8):
            failures.append(f"total {total!r} != eps_L + epsp_L at eps={eps:g}")
        worst = max(eps_l, epsp_l)
        if worst < last.get(bias, 0.0) * (1 - 1e-8):
            failures.append(f"optimum improves with eps at bias={bias:g}, "
                            f"eps={eps:g}")
        last[bias] = worst
    return failures
