"""Span recording for the traced benchmark run.

The traced run wraps the public functions of each biasrep module from the
outside (the package itself is not changed) and records one span per call:
name, start, end, parent span, process id and a few size attributes.  Spans
stay in memory and are written out as JSON when the job ends; a pool worker
writes its own spans when its ``count_trials`` call returns, because the
worker outlives neither its task nor the pool.

Worker spans keep their parent: pool workers are forked from the job
process, so they inherit the open-span stack of the ``cmd_simulate`` call
that started them, and ``time.perf_counter`` reads the system-wide
monotonic clock, so start and end times are comparable across processes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from statistics import median

LAYERS = ("streams", "noise_model", "gadgets", "pauli_frame", "montecarlo",
          "bounds", "channels", "cli")


def _len_arg(index: int, name: str):
    def attrs(args, kwargs, result):
        value = kwargs[name] if name in kwargs else args[index]
        return {"n": int(len(value))}
    return attrs


def _batch_attrs(args, kwargs, result):
    circuit = args[0]
    return {"n": int(len(result.trials)),
            "cells": sum(len(loc.qubits) for loc in circuit.locations)}


def _classify_batch_attrs(args, kwargs, result):
    return {"n": int(result[0].shape[0])}


def _count_trials_attrs(args, kwargs, result):
    return {"n": int(result.trials)}


_USEFUL = ({"useful": False}, {"useful": True})   # shared: one per oracle pattern


def _run_trial_attrs(args, kwargs, result):
    return _USEFUL[bool(result.logical_z_error or result.logical_x_error)]


def _oracle_attrs(args, kwargs, result):
    return {"n": int(result.patterns_run)}


def _input_distance_attrs(args, kwargs, result):
    ref_dim = kwargs.get("ref_dim", args[2] if len(args) > 2 else 1)
    return {"dim": int(args[0].dim * ref_dim)}


def _trace_norm_attrs(args, kwargs, result):
    return {"dim": int(args[0].shape[0])}


def _diamond_attrs(args, kwargs, result):
    inputs = kwargs.get("inputs", args[1] if len(args) > 1 else None)
    return {"dim": int(args[0].dim), "search": inputs is None}


# Public calls wrapped in the traced run, per layer: attribute name (a
# ``Class.method`` path for methods) and the function that records the
# span's size attributes.  Calls the oracle would make for every location
# or pattern without crossing a layer (``conjugate_through_cz``,
# ``measure_x``, ``PauliFrame`` methods, ``classify_run``) are left out:
# they would multiply the spans and the overhead and change no layer's
# self time.
TRACED = {
    "streams": {"uniform_vector": _len_arg(1, "trials")},
    "noise_model": {"ErrorRateTable.validate": None,
                    "ErrorRateTable.from_json": None,
                    "default_rates": None,
                    "sample_faults": None},
    "gadgets": {"build_gadget": None, "check_schedule": None},
    "pauli_frame": {"run_circuit": None, "run_circuit_batch": _batch_attrs},
    "montecarlo": {"count_trials": _count_trials_attrs,
                   "run_trial": _run_trial_attrs,
                   "classify_batch": _classify_batch_attrs,
                   "brute_force_oracle": _oracle_attrs},
    "bounds": {"cnot_bound": None, "optimize_nk": None},
    "channels": {"builtin_cphase_kraus": None, "split_channel": None,
                 "diamond_lower_bound": _diamond_attrs,
                 "input_distance": _input_distance_attrs,
                 "trace_norm": _trace_norm_attrs,
                 "amplitude_damping": None},
    "cli": {"main": None, "cmd_simulate": None, "cmd_oracle": None,
            "cmd_channel": None, "cmd_optimize": None, "cmd_bounds": None},
}


class Tracer:
    """Records spans of one benchmark job in memory."""

    def __init__(self, job_id: int, out_path: str):
        self.job_id = job_id
        self.out_path = out_path
        self.root_pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.seq = 0

    def wrap(self, layer: str, name: str, fn, attrs=None):
        tracer = self
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            tracer.seq += 1
            sid = pid * 10**9 + tracer.seq
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.stack.pop()
                tracer.spans.append((sid, parent, span_name, start,
                                     time.perf_counter(), pid, {"error": True}))
                raise
            end = time.perf_counter()
            tracer.stack.pop()
            extra = attrs(args, kwargs, result) if attrs else None
            tracer.spans.append((sid, parent, span_name, start, end, pid, extra))
            if name == "count_trials" and pid != tracer.root_pid:
                tracer.flush_worker(pid)
            return result
        return traced

    def install(self) -> None:
        """Replace every traced function in every loaded biasrep module (and
        methods on their classes) by its wrapper."""
        for layer, names in TRACED.items():
            module = importlib.import_module(f"biasrep.{layer}")
            for name, attrs in names.items():
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    if isinstance(original, classmethod):
                        wrapped = classmethod(self.wrap(layer, name,
                                                        original.__func__, attrs))
                    else:
                        wrapped = self.wrap(layer, name, original, attrs)
                    setattr(cls, meth, wrapped)
                    continue
                original = getattr(module, name)
                wrapped = self.wrap(layer, name, original, attrs)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "biasrep" or mod_name.startswith("biasrep."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapped)

    def _write(self, path: str, pid: int) -> None:
        """One JSON object per line, so a large trace is never held twice."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, span_pid, extra in self.spans:
                if span_pid == pid:
                    record = {"id": sid, "parent": parent, "name": name,
                              "start": start, "end": end, "pid": span_pid,
                              "job": self.job_id, **(extra or {})}
                    fh.write(json.dumps(record) + "\n")

    def flush_worker(self, pid: int) -> None:
        self._write(f"{self.out_path}.{pid}.{self.seq}", pid)
        self.spans = [s for s in self.spans if s[5] != pid]

    def dump(self) -> None:
        self._write(self.out_path, self.root_pid)


class Span:
    """One loaded span; slots keep a 140k-span oracle trace small."""

    __slots__ = ("id", "parent", "name", "start", "end", "pid", "job",
                 "n", "cells", "dim", "search", "useful", "error")

    def __init__(self, id, parent, name, start, end, pid, job, n=None,
                 cells=None, dim=None, search=None, useful=None, error=None):
        self.id, self.parent, self.name = id, parent, sys.intern(name)
        self.start, self.end, self.pid, self.job = start, end, pid, job
        self.n, self.cells, self.dim = n, cells, dim
        self.search, self.useful, self.error = search, useful, error


def load_spans(out_path: str) -> list[Span]:
    """All spans of one job: the job process file plus any worker files."""
    directory, base = os.path.split(out_path)
    spans: list[Span] = []
    for entry in sorted(os.listdir(directory)):
        if entry == base or entry.startswith(base + "."):
            with open(os.path.join(directory, entry)) as fh:
                spans.extend(Span(**json.loads(line)) for line in fh)
    return spans


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

def _dur(span: Span) -> float:
    return span.end - span.start


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of the span's interval that its children cover;
    children in other processes may overlap each other."""
    lo, hi = span.start, span.end
    intervals = sorted((max(lo, c.start), min(hi, c.end))
                       for c in children)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in intervals:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[Span]) -> dict[str, list[float]]:
    """Per span name: [calls, total seconds, self seconds].  Self time is a
    span's duration minus the part of its interval its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, list[float]] = {}
    for s in spans:
        entry = out.setdefault(s.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += _dur(s)
        entry[2] += _dur(s) - _covered(s, children.get(s.id, []))
    return out


def layer_self_times(summary: dict[str, list[float]]) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in summary.items():
        out[name.split(".", 1)[0]] += self_s
    return out


def named(spans: list[Span], name: str, **match) -> list[Span]:
    return [s for s in spans if s.name == name
            and all(getattr(s, k) == v for k, v in match.items())]


def mean_duration(spans: list[Span], name: str, **match) -> float | None:
    found = named(spans, name, **match)
    if not found:
        return None
    return sum(_dur(s) for s in found) / len(found)


def mc_metrics(spans: list[Span]) -> dict[str, float]:
    """Layer metrics of Monte Carlo jobs (keyed draws, batch engine,
    classification, fan-out), or {} when the spans hold no simulate call."""
    sims = named(spans, "cli.cmd_simulate")
    counts = named(spans, "montecarlo.count_trials")
    if not sims or not counts:
        return {}
    by_parent: dict[str, list[Span]] = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    draws = named(spans, "streams.uniform_vector")
    batches = named(spans, "pauli_frame.run_circuit_batch")
    classes = named(spans, "montecarlo.classify_batch")
    first, rest, every = [], [], []
    for ct in counts:
        kids = sorted(by_parent.get(ct.id, []), key=lambda s: s.start)
        runs = [s for s in kids if s.name == "pauli_frame.run_circuit_batch"]
        cls = [s for s in kids if s.name == "montecarlo.classify_batch"]
        times = [_dur(r) + _dur(c) for r, c in zip(runs, cls)]
        if times:
            first.append(times[0])
            rest.extend(times[1:])
            every.extend(times)
    pool_start, busy_max, busy_min, eff = [], [], [], []
    for sim in sims:
        workers = [s for s in by_parent.get(sim.id, [])
                   if s.name == "montecarlo.count_trials"]
        if not workers:
            continue
        busy = [_dur(w) for w in workers]
        pool_start.append(min(w.start for w in workers) - sim.start)
        busy_max.append(max(busy))
        busy_min.append(min(busy))
        eff.append(sum(busy) / (len(busy) * _dur(sim)))
    return {
        "streams.draws_per_s": sum(s.n for s in draws)
        / sum(_dur(s) for s in draws),
        "noise_model.validate_us": 1e6 * mean_duration(
            spans, "noise_model.ErrorRateTable.validate"),
        "pauli_frame.batch_ns_per_cell_trial": 1e9 * sum(_dur(s) for s in batches)
        / sum(s.n * s.cells for s in batches),
        "montecarlo.first_batch_s": median(first),
        "montecarlo.batch_s.p50": median(rest or every),
        "montecarlo.batch_s.max": max(every),
        "montecarlo.classify_ns_per_trial": 1e9 * sum(_dur(s) for s in classes)
        / sum(s.n for s in classes),
        "cli.pool_start_s": median(pool_start),
        "cli.worker_busy_s.max": median(busy_max),
        "cli.worker_busy_s.min": median(busy_min),
        "cli.parallel_eff": median(eff),
    }


def oracle_metrics(spans: list[Span]) -> dict[str, float]:
    """Layer metrics of the fault-enumeration oracle, or {}."""
    oracles = named(spans, "montecarlo.brute_force_oracle")
    if not oracles:
        return {}
    trials = named(spans, "montecarlo.run_trial")
    patterns = sum(s.n for s in oracles)
    oracle_s = sum(_dur(s) for s in oracles)
    trial_s = sum(_dur(s) for s in trials)
    return {
        "noise_model.validate_us": 1e6 * mean_duration(
            spans, "noise_model.ErrorRateTable.validate"),
        "montecarlo.run_trial_us": 1e6 * trial_s / len(trials),
        "montecarlo.oracle_us_per_pattern": 1e6 * oracle_s / patterns,
        "montecarlo.oracle_enum_us_per_pattern":
            1e6 * (oracle_s - trial_s) / patterns,
        "montecarlo.oracle_useful_frac":
            sum(1 for s in trials if s.useful) / patterns,
    }


def analysis_metrics(spans: list[Span]) -> dict[str, float]:
    """Layer metrics of the bounds and channel reports, or {}."""
    searches = named(spans, "channels.diamond_lower_bound", dim=16, search=True)
    optimizes = named(spans, "bounds.optimize_nk")
    if not searches or not optimizes:
        return {}
    return {
        "bounds.cnot_bound_us": 1e6 * mean_duration(spans, "bounds.cnot_bound"),
        "bounds.optimize_ms": 1e3 * mean_duration(spans, "bounds.optimize_nk"),
        "channels.split_ms": 1e3 * mean_duration(spans, "channels.split_channel"),
        "channels.probe_ms": 1e3 * mean_duration(
            spans, "channels.input_distance", dim=256),
        "channels.trace_norm_ms": 1e3 * mean_duration(
            spans, "channels.trace_norm", dim=256),
        "channels.diamond_search_s": sum(_dur(s) for s in searches) / len(searches),
    }


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Gadget construction and schedule check times, or {}."""
    if not named(spans, "gadgets.build_gadget"):
        return {}
    return {
        "gadgets.build_ms": 1e3 * mean_duration(spans, "gadgets.build_gadget"),
        "gadgets.check_schedule_ms": 1e3 * mean_duration(
            spans, "gadgets.check_schedule"),
    }


def probe_metrics(spans: list[Span]) -> dict[str, float]:
    """Zero-rate propagation and scalar-run costs from the probe job."""
    batches = named(spans, "pauli_frame.run_circuit_batch")
    runs = named(spans, "pauli_frame.run_circuit")
    return {
        "pauli_frame.propagate_ns_per_cell_trial": 1e9 * median(
            [_dur(s) / (s.n * s.cells) for s in batches]),
        "pauli_frame.scalar_us_per_run": 1e6 * sum(_dur(s) for s in runs) / len(runs),
    }
