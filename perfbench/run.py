"""Benchmark for biasrep: closed-loop jobs through ``biasrep.cli.main``.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a biasrep checkout; the program is imported from
``src/``.  Workloads: mc-cnot57, mc-cnot33-dense, oracle-cnot33, analysis
(see README.md for why each is there and what it predicts).

``--trace 0`` measures the end-to-end metrics: set-up time, the wall time
of one job as a multiple of a fixed reference computation timed beside it
(see reference.py), and the peak resident set, each a median over the
run's jobs.  ``--trace 1`` measures the per-layer metrics: it alternates
untraced and traced jobs, records spans around every public biasrep call of
the traced ones, and reports layer figures, self time per layer and the
tracing overhead.  Jobs run one at a time, each in a fresh process; every
output is checked.  The last line of stdout is the JSON result; lines
before it name each metric with its unit and record the machine and the
inputs.  Each run's full record (every sample; for traced runs a summary of
the spans) is also written under ``.bench_out/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import REFERENCE_PARTS, WORKLOADS, make_job  # noqa: E402

JOB_SCRIPT = os.path.join(HERE, "job.py")
SCALAR_PROBE_RUNS = 300
RUN_LIMIT_S = 170.0        # a run must end within 180 s; jobs past this fail

END_TO_END_UNITS = {"setup_s": "s", "job_wall_rel": "ratio",
                    "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    **{f"{layer}.self_frac": "ratio" for layer in tracing.LAYERS},
    "streams.draws_per_s": "draws/s",
    "streams.draws_per_trial": "count",
    "streams.fault_frac": "ratio",
    "noise_model.validate_us": "us",
    "gadgets.build_ms": "ms",
    "gadgets.check_schedule_ms": "ms",
    "pauli_frame.batch_ns_per_cell_trial": "ns",
    "pauli_frame.propagate_ns_per_cell_trial": "ns",
    "pauli_frame.scalar_us_per_run": "us",
    "montecarlo.first_batch_s": "s",
    "montecarlo.batch_s.p50": "s",
    "montecarlo.batch_s.max": "s",
    "montecarlo.classify_ns_per_trial": "ns",
    "montecarlo.run_trial_us": "us",
    "montecarlo.oracle_us_per_pattern": "us",
    "montecarlo.oracle_enum_us_per_pattern": "us",
    "montecarlo.oracle_useful_frac": "ratio",
    "cli.pool_start_s": "s",
    "cli.worker_busy_s.max": "s",
    "cli.worker_busy_s.min": "s",
    "cli.parallel_eff": "ratio",
    "bounds.cnot_bound_us": "us",
    "bounds.optimize_ms": "ms",
    "channels.split_ms": "ms",
    "channels.probe_ms": "ms",
    "channels.trace_norm_ms": "ms",
    "channels.diamond_search_s": "s",
    "trace.overhead_frac": "ratio",
}
# Workload-named views of the job time, printed for readers.
RATE_NAMES = {"mc-cnot57": ("mc.trials_per_s", "trials/s"),
              "mc-cnot33-dense": ("mc.trials_per_s", "trials/s"),
              "oracle-cnot33": ("oracle.patterns_per_s", "patterns/s"),
              "analysis": ("analysis.wall_s", "s")}


class JobError(RuntimeError):
    pass


class Run:
    """One benchmark run of one workload: its working directory, the jobs
    it has executed and the correctness tally."""

    def __init__(self, root: str, workload: str, seed: int, size: str):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.size = size
        self.workdir = os.path.join(root, ".bench_out",
                                    f"run-{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: dict[str, float] = {}
        self.traces = 0
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def spawn(self, spec: dict) -> dict:
        """Run job.py with the spec in a fresh process (and process group,
        so a timed-out job's pool workers are stopped with it)."""
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen([sys.executable, JOB_SCRIPT, json.dumps(spec)],
                                cwd=self.root, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise JobError(f"{spec['mode']} job timed out")
        finally:
            try:                      # any worker left behind by the job
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0 or not out.strip():
            raise JobError(f"{spec['mode']} job exited {proc.returncode}: "
                           f"{err.strip()[-500:]}")
        return json.loads(out.strip().splitlines()[-1])

    def trace_path(self) -> str:
        self.traces += 1
        return os.path.join(self.workdir, f"spans-{self.traces}.json")

    def setup(self, job, traced: bool = False) -> tuple[dict, list[dict]]:
        self.write_files(job)
        spec = {"mode": "setup", **job.setup}
        path = None
        if traced:
            path = self.trace_path()
            spec.update(trace_out=path, job_id=self.traces)
        out = self.spawn(spec)
        return out, tracing.load_spans(path) if path else []

    def write_files(self, job) -> None:
        for name, content in job.files.items():
            with open(os.path.join(self.workdir, name), "w") as fh:
                fh.write(content)

    def execute(self, job, traced: bool = False,
                setup: bool = False) -> tuple[dict | None, list[dict]]:
        """Run one job (after the workload's set-up, if asked) and check
        every operation's output."""
        self.write_files(job)
        spec = {"mode": "job", "ops": job.ops}
        if setup:
            spec["setup"] = job.setup
        path = None
        if traced:
            path = self.trace_path()
            spec.update(trace_out=path, job_id=self.traces)
        self.attempted += len(job.ops)
        try:
            out = self.spawn(spec)
        except JobError as exc:
            self.failed += len(job.ops)
            self.failures.append(str(exc))
            return None, []
        check = job.check([op["stdout"] for op in out["ops"]])
        for note, size in check.notes.items():
            self.notes[note] = max(size, self.notes.get(note, size))
        for i, op in enumerate(out["ops"]):
            reasons = list(check.failures.get(i, []))
            if op["rc"] != 0:
                reasons.insert(0, f"exit {op['rc']}: {op['stderr'].strip()}")
            if reasons:
                self.failed += 1
                self.failures.append(f"{' '.join(job.ops[i])}: "
                                     + "; ".join(reasons))
        return out, tracing.load_spans(path) if path else []

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: jobs until the time is up, each in a fresh
    process that first times the workload's set-up, with the reference
    computation timed before the first job and after every job."""
    used = REFERENCE_PARTS[run.workload]
    parts, refs = [], []

    def time_reference() -> None:
        parts.append(reference.time_parts(used))
        refs.append(sum(parts[-1].values()))

    reference.time_parts(used)                   # warm-up, not recorded
    time_reference()
    setups, walls, rels, peaks, index = [], [], [], [], 0
    deadline = time.perf_counter() + seconds
    while index == 0 or time.perf_counter() < deadline:
        job = make_job(run.workload, run.seed, index, run.workdir, run.size)
        out, _ = run.execute(job, setup=True)
        time_reference()
        index += 1
        if out is not None:
            setups.append(out["setup"])
            walls.append(out["wall_s"])
            # The job against the host's speed on both sides of it.
            rels.append(out["wall_s"] / statistics.mean(refs[-2:]))
            peaks.append(out["peak_rss_mb"])
    if not walls:
        raise JobError("no job completed")
    first = make_job(run.workload, run.seed, 0, run.workdir, run.size)
    metrics = {"setup_s": statistics.median(s["setup_s"] for s in setups),
               "job_wall_rel": statistics.median(rels),
               "peak_rss_mb": statistics.median(peaks)}
    info = {"inputs": {"ops": first.ops, "work": first.work,
                       "unit": first.unit, "files": sorted(first.files),
                       "computed": setups[0].get("computed")},
            "samples": {"setup_s": [s["setup_s"] for s in setups],
                        "job_wall_s": walls, "job_wall_rel": rels,
                        "reference_s": refs, "reference_parts": parts,
                        "peak_rss_mb": peaks}}
    return metrics, info


def _combine(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Median over jobs of each metric the jobs produced."""
    names = {name for metrics in per_job for name in metrics}
    return {name: statistics.median(m[name] for m in per_job if name in m)
            for name in names}


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from traced jobs; layers the workload does not
    exercise are measured on a reference job of the workload that does.
    Each job's spans are analysed as soon as it ends and then dropped."""
    groups = {"mc-cnot57": tracing.mc_metrics,
              "oracle-cnot33": tracing.oracle_metrics,
              "analysis": tracing.analysis_metrics}
    first = make_job(run.workload, run.seed, 0, run.workdir, run.size)
    setup_found, computed = [], None
    for _ in range(3):
        out, spans = run.setup(first, traced=True)
        setup_found.append(tracing.setup_metrics(spans))
        computed = out.get("computed", computed)

    ratios, found, summary, produced, index = [], [], {}, set(), 0
    deadline = time.perf_counter() + seconds
    while index == 0 or time.perf_counter() < deadline:
        job = make_job(run.workload, run.seed, index, run.workdir, run.size)
        plain, _ = run.execute(job)
        traced, spans = run.execute(job, traced=True)
        index += 1
        if plain is None or traced is None:
            continue
        ratios.append(traced["wall_s"] / plain["wall_s"] - 1.0)
        job_found = {}
        for owner, derive in groups.items():
            got = derive(spans)
            if got:
                produced.add(owner)
                job_found.update(got)
        found.append(job_found)
        for name, (calls, total, own) in tracing.summarize(spans).items():
            entry = summary.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        del spans

    selfs = tracing.layer_self_times(summary)
    total_self = sum(selfs.values()) or 1.0
    metrics = {f"{layer}.self_frac": value / total_self
               for layer, value in selfs.items()}
    metrics["trace.overhead_frac"] = statistics.median(ratios) if ratios else 0.0
    metrics.update(_combine(found))
    sources: dict[str, str] = {}     # metrics not from the workload's jobs
    for owner, derive in groups.items():
        if owner in produced:
            continue
        _, spans = run.execute(
            make_job(owner, run.seed, 0, run.workdir, run.size), traced=True)
        for name, value in derive(spans).items():
            if name not in metrics:
                metrics[name] = value
                sources[name] = owner

    setup = _combine(setup_found)
    if not setup or computed is None:
        ref = make_job("mc-cnot57", run.seed, 0, run.workdir, run.size)
        out, spans = run.setup(ref, traced=True)
        if not setup:
            setup = tracing.setup_metrics(spans)
            sources.update(dict.fromkeys(setup, "mc-cnot57 set-up"))
        if computed is None:
            computed = out["computed"]
            sources.update(dict.fromkeys(
                ("streams.draws_per_trial", "streams.fault_frac"),
                "mc-cnot57 set-up"))
    metrics.update(setup)
    metrics["streams.draws_per_trial"] = computed["draws_per_trial"]
    metrics["streams.fault_frac"] = computed["fault_frac"]

    probe_gadget = first.setup.get("gadget")
    if probe_gadget is None:
        probe_gadget = ["cnot", 5, 7]
        sources.update(dict.fromkeys(("pauli_frame.propagate_ns_per_cell_trial",
                                      "pauli_frame.scalar_us_per_run"),
                                     "mc-cnot57 circuit"))
    path = run.trace_path()
    run.spawn({"mode": "probe", "gadget": probe_gadget,
               "batch_trials": computed["batch_trials"],
               "scalar_runs": SCALAR_PROBE_RUNS, "seed": run.seed,
               "trace_out": path, "job_id": run.traces})
    metrics.update(tracing.probe_metrics(tracing.load_spans(path)))

    info = {"inputs": {"ops": first.ops, "computed": computed,
                       "probe_gadget": probe_gadget},
            "sources": {name: sources.get(name, run.workload)
                        for name in PER_LAYER_UNITS},
            "self_s": selfs,
            "span_summary": summary,
            "samples": {"trace.overhead_frac": ratios}}
    return metrics, info


def machine_info() -> dict:
    """Hardware and software the numbers were measured on."""
    import numpy as np

    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform()}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        info["blas"] = None
    info["blas_threads"] = _blas_threads(np)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(base, entry, name)) as fh:
                    fields[name] = fh.read().strip()
            if fields["type"] != "Instruction":
                caches[f"L{fields['level']}"] = fields["size"]
    except OSError:
        pass
    info["cache"] = caches
    return info


def _blas_threads(np) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_workload(root: str, workload: str, seed: int, seconds: float,
                 trace: bool, size: str = "full") -> dict:
    """One run; returns the result record (the printed JSON is a subset)."""
    run = Run(root, workload, seed, size)
    try:
        metrics, info = (measure_traced if trace else measure)(run, seconds)
    finally:
        run.close()
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "size": size,
            "correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "failures": run.failures,
            "notes": [f"{note} {gap:.1%}"
                      for note, gap in sorted(run.notes.items())],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
            **info}


def report_lines(record: dict) -> list[str]:
    lines = [f"# workload: {record['workload']} seed={record['seed']} "
             f"trace={int(record['trace'])}",
             "# inputs: " + json.dumps(record["inputs"], sort_keys=True)]
    for name, metric in record["metrics"].items():
        lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not record["trace"]:
        samples = record["samples"]
        jobs = len(samples["job_wall_s"])
        wall = statistics.median(samples["job_wall_s"])
        work = record["inputs"]["work"]
        lines.append(f"job_wall_s = {wall:.6g} s  (median of {jobs} jobs of "
                     f"{work} {record['inputs']['unit']})")
        name, unit = RATE_NAMES[record["workload"]]
        value = wall if unit == "s" else work / wall
        lines.append(f"{name} = {value:.6g} {unit}  (from job_wall_s)")
        lines.append(f"reference_s = "
                     f"{statistics.median(samples['reference_s']):.6g} s  "
                     f"(median of {len(samples['reference_s'])}; the host's "
                     f"speed)")
    lines.append(f"failed_frac = {record['failed'] / record['attempted']:.6g} "
                 f"ratio  ({record['failed']} of {record['attempted']} "
                 f"operations)")
    lines += [f"# note: {note}" for note in record["notes"]]
    lines += [f"# failure: {failure}" for failure in record["failures"]]
    return lines


def save(root: str, record: dict) -> None:
    directory = os.path.join(root, ".bench_out", "results")
    os.makedirs(directory, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{int(record['trace'])}.json")
    with open(os.path.join(directory, name), "w") as fh:
        json.dump(record, fh, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "biasrep", "cli.py")):
        print("error: run from the root of a biasrep checkout "
              "(src/biasrep not found)", file=sys.stderr)
        return 2

    machine = machine_info()
    print("# machine: " + json.dumps(machine, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_workload(root, name, args.seed, args.seconds,
                                  bool(args.trace))
        except JobError as exc:          # nothing measured: no result line
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        record["machine"] = machine
        save(root, record)
        records.append(record)
        print("\n".join(report_lines(record)), flush=True)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in records for name, metric in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
