"""Command-line front end.

Subcommands: simulate, bounds, optimize, channel, oracle, validate.
Sweep-style results are CSV with the resolved configuration echoed in
``#`` header lines; channel reports are JSON.  Identical configuration and
seed give byte-identical output bodies regardless of worker count.

Exit codes: 0 success, 2 configuration error, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bounds import BiasPoint, ParameterError, cnot_bound, optimize_nk, sweep
from .channels import (KET_BELL, amplitude_damping, builtin_cphase_kraus,
                       diamond_lower_bound, kraus_from_json, split_channel)
from .gadgets import build_gadget, check_schedule, circuit_from_text
from .montecarlo import (brute_force_oracle, estimate_logical_rates,
                         prob_more_faults)
from .noise_model import ErrorRateTable, default_rates, zero_rates
from .pauli_frame import LeakPolicy
from .streams import STREAM_VERSION

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


class ConfigError(Exception):
    pass


def _read(path: str, what: str, parse):
    """``parse`` applied to the text of the file at ``path``.  A file that
    cannot be read, or whose text ``parse`` rejects, is a configuration
    error naming ``what``."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} {path!r}: {exc}") from exc


def _load_rates(source: str) -> ErrorRateTable:
    if source == "table1":
        return default_rates()
    if source == "zero":
        return zero_rates()
    return _read(source, "rate table", ErrorRateTable.from_json)


def _parse_trials(text: str) -> int:
    """A whole number of trials >= 1, also in float notation such as 1e6."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value.is_integer()):
        raise ConfigError(f"--trials must be a whole number, got {text!r}")
    if value < 1:
        raise ConfigError(f"--trials must be >= 1, got {text}")
    return int(value)


def _parse_seed(text: str) -> int:
    """A seed of the keyed streams or of the probe search: an integer in
    [0, 2^64).  The streams key on a seed's low 64 bits, so a wider or
    negative seed would repeat the draws of one in range."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^64), got {text}")
    return value


def _parse_grid(text: str) -> list[float]:
    """``lo:hi[:points]`` log-spaced, or a comma-separated list."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(v) for v in text.split(",")]
        if len(parts) > 3:
            raise ValueError
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2]) if len(parts) == 3 else 13
    except ValueError:
        raise ConfigError("--eps-grid: expected lo:hi[:points] or a comma-"
                          f"separated list of numbers, got {text!r}") from None
    if lo <= 0 or hi <= lo or points < 2:
        raise ConfigError(f"--eps-grid: bad grid {text!r}, needs "
                          "0 < lo < hi and at least 2 points")
    return list(np.geomspace(lo, hi, points))


def _single_bias(values: list[float], default: float | None) -> float | None:
    """The value of a --bias that the command takes at most once."""
    if len(values) > 1:
        raise ConfigError(f"--bias given {len(values)} times; only an "
                          "optimizing bounds sweep takes several")
    return values[0] if values else default


def _drop(reason: str, *given: tuple[str, object]) -> None:
    """Refuse the flags of ``given`` (flag, value) that are set (not None
    or []), which the command would ignore for ``reason``."""
    ignored = [flag for flag, value in given if value not in (None, [])]
    if ignored:
        raise ConfigError(f"{reason}; drop " + " and ".join(ignored))


def _rates_alone(args: argparse.Namespace) -> ErrorRateTable | None:
    """The ``--rates`` table, if given.  It fixes every rate, so a rate
    point given beside it (--eps, --bias, --eps-grid) would be ignored."""
    if not args.rates:
        return None
    _drop("--rates fixes every rate", ("--eps", args.eps), ("--bias", args.bias),
          ("--eps-grid", getattr(args, "eps_grid", None)))
    return _load_rates(args.rates)


def _header(config: dict) -> list[str]:
    return [f"# biasrep {__version__}",
            "# config: " + json.dumps(config, sort_keys=True, default=str)]


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(
                f"--output: cannot write {output!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _check_output(output: str) -> None:
    """Refuse an ``--output`` that cannot be written before any work is
    done, without creating or truncating it."""
    folder = os.path.dirname(os.path.abspath(output))
    target = output if os.path.exists(output) else folder
    reason = ("Is a directory" if os.path.isdir(output) else
              "No such directory" if not os.path.isdir(folder) else
              None if os.access(target, os.W_OK) else "Permission denied")
    if reason:
        raise ConfigError(f"--output: cannot write {output!r}: {reason}")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    rates = _load_rates(args.rates)
    trials = _parse_trials(args.trials)
    gadget = build_gadget(args.gadget, args.n, args.k,
                          pre_teleport=args.pre_teleport)
    eps, epsp = estimate_logical_rates(gadget, rates, trials, args.seed,
                                       leak_policy=args.leak_policy,
                                       workers=args.workers)

    config = {"command": "simulate", "gadget": args.gadget, "n": args.n,
              "k": args.k, "rates": args.rates, "trials": trials,
              "seed": args.seed, "leak_policy": args.leak_policy,
              "pre_teleport": args.pre_teleport, "workers": args.workers,
              "stream": STREAM_VERSION}
    lines = _header(config)
    lines.append("gadget,n,k,trials,seed,eps_L,eps_L_stderr,epsp_L,epsp_L_stderr")
    lines.append(",".join([args.gadget, str(args.n), str(args.k), str(trials),
                           str(args.seed), _fmt(eps.mean), _fmt(eps.stderr),
                           _fmt(epsp.mean), _fmt(epsp.stderr)]))
    _emit(lines, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds / optimize
# ---------------------------------------------------------------------------

_BOUNDS_COLUMNS = "eps,bias,c,n,k,eps_L,epsp_L,total"


def _bound_row(eps: float | None, bias: float | None, c: float, n: int,
               k: int, eps_L: float, epsp_L: float) -> str:
    """One bounds row; eps and bias print as nan when a rate table alone
    fixes the rates."""
    eps, bias = (math.nan if v is None else v for v in (eps, bias))
    return ",".join([_fmt(eps), _fmt(bias), _fmt(c), str(n), str(k),
                     _fmt(eps_L), _fmt(epsp_L), _fmt(eps_L + epsp_L)])


def _optimum_row(eps: float | None, bias: float | None,
                 table: ErrorRateTable | None, c: float, n_max: int,
                 constraint: str) -> str:
    """The optimal (n, k) as a bounds row."""
    result = optimize_nk(eps=eps, bias=bias, table=table, c=c, n_max=n_max,
                         constraint=constraint)
    return _bound_row(eps, bias, c, result.n, result.k, result.eps_L,
                      result.epsp_L)


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.optimize:
        _drop("--optimize chooses n and k (t = c k) and takes eps from "
              "--eps-grid or --rates", ("--n", args.n), ("--k", args.k),
              ("--t", args.t), ("--eps", args.eps))
    else:
        _drop("direct evaluation takes one point, not a grid or a search "
              "bound", ("--eps-grid", args.eps_grid), ("--n-max", args.n_max))
    table = _rates_alone(args)
    n_max = 15 if args.n_max is None else args.n_max
    config = {"command": "bounds", "c": args.c, "n_max": n_max}
    lines: list[str] = []

    if args.optimize:
        constraint = args.optimize
        if table is not None:
            config.update({"rates": args.rates, "optimize": constraint})
            lines.append(_optimum_row(None, None, table, args.c, n_max,
                                      constraint))
        else:
            if not args.bias or not args.eps_grid:
                raise ConfigError("optimizing sweeps need --bias and --eps-grid")
            grid = _parse_grid(args.eps_grid)
            config.update({"bias": args.bias, "eps_grid": args.eps_grid,
                           "optimize": constraint})
            for eps, bias, r in sweep(grid, args.bias, c=args.c,
                                      n_max=n_max, constraint=constraint):
                lines.append(_bound_row(eps, bias, args.c, r.n, r.k,
                                        r.eps_L, r.epsp_L))
    else:
        if args.n is None or (table is None and args.eps is None):
            raise ConfigError("direct evaluation needs --n and --eps or "
                              "--rates (plus --t or --k), or use --optimize")
        n = args.n
        k = args.k if args.k is not None else 1
        if table is None:
            eps, bias = args.eps, _single_bias(args.bias, float("inf"))
            point = BiasPoint(eps, bias, n, k, args.c, t=args.t)
        else:   # the table fixes the rates; the point gives n, k, c and t
            eps = bias = None
            point = BiasPoint(0.0, 1.0, n, k, args.c, t=args.t)
        report = cnot_bound(point, table)
        config.update({"n": n, "k": k, "t": args.t, "eps": eps,
                       "bias": bias, "rates": args.rates})
        lines.append(_bound_row(eps, bias, args.c, n, k,
                                report.eps_L, report.epsp_L))
    out = _header(config) + [_BOUNDS_COLUMNS] + lines
    _emit(out, args.output)
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    table = _rates_alone(args)
    if table is None and args.eps is None:
        raise ConfigError("optimize needs --rates or (--eps and --bias)")
    bias = _single_bias(args.bias, None)
    if table is None and bias is None:
        raise ConfigError("optimize without a rate table needs --bias")
    row = _optimum_row(args.eps, bias, table, args.c, args.n_max,
                       args.constraint)
    config = {"command": "optimize", "rates": args.rates, "eps": args.eps,
              "bias": bias, "c": args.c, "n_max": args.n_max,
              "constraint": args.constraint}
    _emit(_header(config) + [_BOUNDS_COLUMNS, row], args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def cmd_channel(args: argparse.Namespace) -> int:
    config = {"command": "channel", "builtin": args.builtin,
              "kraus_json": args.kraus_json,
              "amplitude_damping": args.amplitude_damping,
              "input": args.input, "qubit": args.qubit,
              "restarts": args.restarts, "seed": args.seed}
    report: dict = {"version": __version__, "config": config}
    if args.restarts < 0:
        raise ConfigError(f"--restarts must be >= 0, got {args.restarts}")
    sources = [flag for flag, value in (("--builtin", args.builtin),
                                        ("--kraus-json", args.kraus_json),
                                        ("--amplitude-damping",
                                         args.amplitude_damping))
               if value is not None]
    if len(sources) > 1:
        raise ConfigError("channel takes one channel source, got "
                          + " and ".join(sources))

    if args.amplitude_damping is not None:
        if args.qubit:
            raise ConfigError("--qubit resolves a Kraus channel's qubit; "
                              "--amplitude-damping takes none")
        ad = amplitude_damping(args.amplitude_damping,
                               random_restarts=args.restarts, seed=args.seed)
        report["result"] = {
            "gamma": ad.gamma,
            "other_rate": ad.other_rate,
            "phase_rate": ad.phase_rate,
            "identity_coefficient": ad.ihat_coeff,
            "completeness_error": ad.kraus.completeness_defect(),
        }
    elif args.builtin == "cphase" or args.kraus_json:
        classified = (_read(args.kraus_json, "Kraus file", kraus_from_json)
                      if args.kraus_json else builtin_cphase_kraus())
        parts = split_channel(classified, resolve=args.qubit)
        if args.input == "bell" and parts.full.dim != 16:
            raise ConfigError("--input bell needs the 16-dimensional two-qubit "
                              "space; these Kraus operators act on dimension "
                              f"{parts.full.dim} (use --input search)")
        if args.input == "bell" and args.restarts:
            raise ConfigError(f"--restarts {args.restarts} needs --input search;"
                              " --input bell evaluates the Bell input alone")
        probes = [(KET_BELL, 1)] if args.input == "bell" else None
        result = {name: diamond_lower_bound(part, probes,
                                            random_restarts=args.restarts,
                                            seed=args.seed)
                  for name, part in (("phase_rate", parts.e_phase),
                                     ("other_rate", parts.e_other),
                                     ("leak_rate", parts.e_leak))}
        result["decomposition_error"] = parts.decomposition_error()
        if parts.ihat_coeff is not None:
            result["identity_coefficient"] = parts.ihat_coeff
        if args.qubit:
            result["resolved_qubit"] = args.qubit
        report["result"] = result
    else:
        raise ConfigError("channel needs --builtin cphase, --kraus-json, "
                          "or --amplitude-damping")
    text = json.dumps(report, indent=2, sort_keys=True)
    _emit([text], args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle / validate
# ---------------------------------------------------------------------------

def cmd_oracle(args: argparse.Namespace) -> int:
    if args.max_patterns < 0:
        raise ConfigError(f"--max-patterns must be >= 0, got {args.max_patterns}")
    if args.weight < 0:
        raise ConfigError(f"--weight must be >= 0, got {args.weight}")
    rates = _load_rates(args.rates)
    gadget = build_gadget(args.gadget, args.n, args.k)
    result = brute_force_oracle(gadget, rates, args.weight,
                                max_patterns=args.max_patterns)
    config = {"command": "oracle", "gadget": args.gadget, "n": args.n,
              "k": args.k, "rates": args.rates, "weight": args.weight}
    report = {
        "version": __version__, "config": config,
        "result": {
            "sites": result.sites,
            "patterns_run": result.patterns_run,
            "prob_z": result.prob_z,
            "prob_x": result.prob_x,
            "prob_either": result.prob_either,
            "by_weight_z": list(result.by_weight_z),
            "by_weight_x": list(result.by_weight_x),
            "count_z": list(result.count_z),
            "count_x": list(result.count_x),
            "remainder_bound": result.remainder_bound,
        },
        "tail": {"prob_more_faults": prob_more_faults(gadget, rates,
                                                      args.weight)},
    }
    _emit([json.dumps(report, indent=2, sort_keys=True)], args.output)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.circuit:
        _drop("--circuit gives the whole circuit", ("--gadget", args.gadget),
              ("--n", args.n), ("--k", args.k),
              ("--pre-teleport", args.pre_teleport or None))
        circuit = _read(args.circuit, "circuit", circuit_from_text)
    elif args.gadget is None:
        raise ConfigError("validate needs --gadget or --circuit")
    else:
        circuit = build_gadget(args.gadget, 3 if args.n is None else args.n,
                               3 if args.k is None else args.k,
                               pre_teleport=args.pre_teleport)
    violations = check_schedule(circuit)
    if violations:
        for loc, message in violations:
            print(f"violation at location {loc}: {message}", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"ok: {len(circuit.locations)} locations, "
          f"{circuit.n_qubits} qubits")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    parsing keeps its state in the returned ``Namespace``, and no handler
    changes the ``[]`` that ``--bias`` defaults to.  Built on first use, not
    at import, so each subcommand is bound to the ``cmd_*`` handler the
    module holds then."""
    parser = argparse.ArgumentParser(
        prog="biasrep",
        description="Repetition-code fault-tolerance toolkit for "
                    "phase-biased qubits")
    parser.add_argument("--version", action="version",
                        version=f"biasrep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo logical error rates")
    sim.add_argument("--gadget", choices=("teleport", "cnot"), required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--k", type=int, required=True)
    sim.add_argument("--rates", default="table1",
                     help="rate table: path, 'table1', or 'zero'")
    sim.add_argument("--trials", default="100000")
    sim.add_argument("--seed", type=_parse_seed, default=0)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--leak-policy", default=LeakPolicy.RANDOM_Z.value,
                     choices=[p.value for p in LeakPolicy])
    sim.add_argument("--pre-teleport", action="store_true",
                     help="teleport each input block onto a fresh block "
                          "first (leakage containment)")
    sim.add_argument("--output", default=None)
    sim.set_defaults(func=cmd_simulate)

    bnd = sub.add_parser("bounds", help="closed-form logical-error bounds")
    bnd.add_argument("--n", type=int, default=None)
    bnd.add_argument("--k", type=int, default=None)
    bnd.add_argument("--t", type=float, default=None)
    bnd.add_argument("--eps", type=float, default=None)
    bnd.add_argument("--bias", type=float, action="append", default=[])
    bnd.add_argument("--eps-grid", default=None)
    bnd.add_argument("--c", type=float, default=3.0)
    bnd.add_argument("--n-max", type=int, default=None)
    bnd.add_argument("--rates", default=None)
    bnd.add_argument("--optimize", choices=("n=k", "free"), default=None)
    bnd.add_argument("--output", default=None)
    bnd.set_defaults(func=cmd_bounds)

    opt = sub.add_parser("optimize", help="search the best odd (n, k)")
    opt.add_argument("--eps", type=float, default=None)
    opt.add_argument("--bias", type=float, action="append", default=[])
    opt.add_argument("--rates", default=None)
    opt.add_argument("--c", type=float, default=3.0)
    opt.add_argument("--n-max", type=int, default=15)
    opt.add_argument("--constraint", choices=("n=k", "free"), default="free")
    opt.add_argument("--output", default=None)
    opt.set_defaults(func=cmd_optimize)

    chan = sub.add_parser("channel", help="superoperator norms and rates")
    chan.add_argument("--builtin", choices=("cphase",), default=None)
    chan.add_argument("--kraus-json", default=None)
    chan.add_argument("--amplitude-damping", type=float, default=None)
    chan.add_argument("--input", choices=("bell", "search"), default="bell",
                      help="'search' maximizes over canonical and random "
                           "probes, and the Bell input on two qubits")
    chan.add_argument("--qubit", choices=("A", "B"), default=None)
    chan.add_argument("--restarts", type=int, default=0,
                      help="random pure probes on the doubled space, >= 0; "
                           "with --input search or --amplitude-damping")
    chan.add_argument("--seed", type=_parse_seed, default=0)
    chan.add_argument("--output", default=None)
    chan.set_defaults(func=cmd_channel)

    orc = sub.add_parser("oracle", help="exhaustive low-weight fault enumeration")
    orc.add_argument("--gadget", choices=("teleport", "cnot"), required=True)
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--k", type=int, required=True)
    orc.add_argument("--rates", required=True,
                     help="leak-free rate table: path or 'zero'")
    orc.add_argument("--weight", type=int, default=2)
    orc.add_argument("--max-patterns", type=int, default=2_000_000)
    orc.add_argument("--output", default=None)
    orc.set_defaults(func=cmd_oracle)

    val = sub.add_parser("validate", help="schedule and species checks")
    val.add_argument("--gadget", choices=("teleport", "cnot"), default=None)
    val.add_argument("--n", type=int, default=None, help="default 3")
    val.add_argument("--k", type=int, default=None, help="default 3")
    val.add_argument("--pre-teleport", action="store_true")
    val.add_argument("--circuit", default=None,
                     help="circuit text file instead of a built gadget")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "output", None):
            _check_output(args.output)
        return args.func(args)
    except ParameterError as exc:   # a bound parameter: name its flag
        flag = ("--eps-grid" if exc.name == "eps" and getattr(args, "optimize", None)
                else "--" + exc.name.replace("_", "-"))
        print(f"error: {flag}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # invariant violations and internal failures
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
