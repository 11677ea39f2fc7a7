"""Closed-form logical-error bounds for repetition-coded gadgets and the
(n, k) optimizer.

For an n-qubit phase-flip repetition code in which each qubit sees t fault
opportunities of phase rate eps, a logical phase error needs more than half
the block to dephase:

    phase bound:  comb(n, (n+1)/2) * (t * eps)**((n+1)//2)

while a single non-phase error anywhere is already logical:

    other bound:  n * t * eps_other

The teleported-CNOT bound applies these with t = c*k (k measurement
repetitions, c a per-round step constant of about 2 or 3), either from a
single (eps, bias) point or from a per-operation, per-species rate table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .gadgets import GadgetParams
from .noise_model import ErrorRateTable, OpKind, Species


# The largest odd n for which comb(n, (n+1)/2) converts to a float: a larger
# block size (or repetition count, with a rate table) overflows the bound.
MAX_SIZE = 1029


class ParameterError(ValueError):
    """A bound parameter out of its range; ``name`` is the parameter."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def logical_phase_bound(n: int, t: float, eps: float) -> float:
    """Probability bound for a logical phase error: more than half of an
    odd block of n qubits must dephase within t steps at rate eps."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 1, got {n}")
    m = (n + 1) // 2
    return math.comb(n, m) * (t * eps) ** m


def logical_other_bound(n: int, t: float, eps_other: float) -> float:
    """Probability bound for a logical non-phase error: any single X/Y-type
    fault on any of the n qubits at any of the t steps is uncorrectable."""
    return n * t * eps_other


def _check_rates(eps: float, bias: float) -> None:
    """The phase rate of an operating point is a probability and its bias
    positive (inf: no non-phase errors)."""
    if not 0.0 <= eps <= 1.0:
        raise ParameterError("eps", f"eps must be in [0, 1], got {eps}")
    if not bias > 0:
        raise ParameterError("bias", f"bias must be positive, got {bias}")


def _check_size(name: str, value: int) -> None:
    if value > MAX_SIZE:
        raise ParameterError(name, f"{name} must be <= {MAX_SIZE}, the largest "
                             "odd size whose comb(size, (size+1)/2) is a "
                             f"float, got {value}")


@dataclass(frozen=True)
class BiasPoint:
    """One operating point: phase rate eps, noise bias eps/eps_other, and
    the step constant c and odd code parameters (n, k) of a GadgetParams.
    The per-qubit step count ``steps`` is c*k unless ``t`` pins it."""

    eps: float
    bias: float
    n: int
    k: int
    c: float = 3.0
    t: float | None = None
    steps: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_rates(self.eps, self.bias)
        if self.t is not None and not (math.isfinite(self.t) and self.t >= 0):
            raise ParameterError("t", f"t must be finite and >= 0, got {self.t}")
        params = GadgetParams(self.n, self.k, self.c)
        _check_size("n", self.n)
        object.__setattr__(self, "steps", params.t if self.t is None else self.t)

    @property
    def eps_other(self) -> float:
        return self.eps / self.bias


@dataclass(frozen=True)
class BoundReport:
    n: int
    k: int
    c: float
    t: float
    eps_L: float
    epsp_L: float
    parts: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def total(self) -> float:
        return self.eps_L + self.epsp_L


def _bound(n: int, k: int, t: float, eps: float, eps_other: float,
           table: ErrorRateTable | None) -> tuple[float, float, dict]:
    """(eps_L, epsp_L, parts) of :func:`cnot_bound` at odd (n, k) and t steps
    per qubit: the closed forms at (eps, eps_other), or the accounting of
    ``table`` when one is given."""
    if table is None:
        eps_L = logical_phase_bound(n, t, eps)
        epsp_L = logical_other_bound(n, t, eps_other)
        return eps_L, epsp_L, {"blocks": eps_L, "data_other": epsp_L}

    m_block = (n + 1) // 2
    m_rep = (k + 1) // 2
    cz_a = table.get(OpKind.CPHASE, Species.A)
    cz_b = table.get(OpKind.CPHASE, Species.B)
    prep_a = table.get(OpKind.PREP_PLUS, Species.A)
    prep_b = table.get(OpKind.PREP_PLUS, Species.B)
    meas_a = table.get(OpKind.MEASURE_X, Species.A)
    meas_b = table.get(OpKind.MEASURE_X, Species.B)

    exposure_in = t * cz_a.eps + meas_a.eps          # C and T qubits
    exposure_out = t * cz_a.eps + prep_a.eps         # C' and T' qubits
    blocks = 2 * math.comb(n, m_block) * (exposure_in ** m_block) \
        + 2 * math.comb(n, m_block) * (exposure_out ** m_block)

    anc_nonphase = [prep_b.eps_other + prep_b.eps_leak
                    + g * (cz_b.eps_other + cz_b.eps_leak)
                    for g in (2 * n, 3 * n)]
    anc_spread = k * sum(anc_nonphase)

    data_other_per_qubit_in = t * (cz_a.eps_other + cz_a.eps_leak)
    data_other_per_qubit_out = data_other_per_qubit_in \
        + prep_a.eps_other + prep_a.eps_leak
    data_other = 2 * n * data_other_per_qubit_in + 2 * n * data_other_per_qubit_out

    anc_majority = 0.0
    round_rates = []
    for g in (2 * n, 3 * n):
        q_round = prep_b.total + g * cz_b.total + meas_b.eps
        round_rates.append(q_round)
        anc_majority += math.comb(k, m_rep) * q_round ** m_rep

    return blocks + anc_spread, data_other + anc_majority, {
        "blocks": blocks,
        "ancilla_spread": anc_spread,
        "data_other": data_other,
        "ancilla_majority": anc_majority,
        "round_rate_2n": round_rates[0],
        "round_rate_3n": round_rates[1],
    }


def _overflow(n: int, k: int, t: float, table: ErrorRateTable | None,
              steps: str, reps: str) -> ParameterError:
    """The error of a bound that overflows a float at (n, k, t).  Sizes are
    at most MAX_SIZE, so a power overflowed: the data qubits' exposure to the
    t steps (blamed on ``steps``), or else the k-round ancilla majority of a
    rate table (blamed on ``reps``).  The probe's eps = 1 and k = 1 keep
    the exposure terms at their largest and a single ancilla round."""
    try:
        _bound(n, 1, t, 1.0, 0.0, table)
        name = reps
    except OverflowError:
        name = steps
    return ParameterError(name, f"the bound overflows a float at (n, k) = "
                          f"({n}, {k}) with t = {t}")


def cnot_bound(point: BiasPoint, table: ErrorRateTable | None = None) -> BoundReport:
    """Logical-error bound for the teleported CNOT gadget.

    Without a table, evaluates the two closed forms at t = c*k (leakage has
    no separate rate at a bias point).  With a table, accounts per species
    and per location type:

    * each of the four data blocks contributes a phase-bound term with its
      own per-qubit exposure (t CPHASE steps at the species-A phase rate,
      plus one preparation for output blocks or one readout for input
      blocks);
    * an ancilla X/Y/leak fault mid-chain dephases the data qubits it has
      yet to touch, adding a term linear in the per-round ancilla non-phase
      rates to the phase bound;
    * non-phase and leakage faults on data-qubit locations add linearly to
      the other bound (leakage is uncorrectable by the code, so it is
      charged there);
    * each of the two repeated parity measurements fails when a majority of
      its k rounds report wrongly; a round is wrong at most at the summed
      ancilla fault rate (preparation + one CPHASE per coupled data qubit +
      readout), giving comb(k, (k+1)/2) * q**((k+1)/2) per measurement.
    """
    n, k, c, t = point.n, point.k, point.c, point.steps
    if table is not None:
        _check_size("k", k)
    try:
        eps_L, epsp_L, parts = _bound(n, k, t, point.eps, point.eps_other, table)
    except OverflowError:
        raise _overflow(n, k, t, table, "c" if point.t is None else "t",
                        "k") from None
    return BoundReport(n, k, c, t, eps_L, epsp_L, parts)


@dataclass(frozen=True)
class OptimizeResult:
    n: int
    k: int
    eps_L: float
    epsp_L: float
    total: float
    report: BoundReport = field(compare=False, default=None)


def optimize_nk(eps: float | None = None, bias: float | None = None,
                c: float = 3.0, n_max: int = 15, constraint: str = "n=k",
                table: ErrorRateTable | None = None) -> OptimizeResult:
    """Exhaustive search over odd (n, k) minimizing max(eps_L, epsp_L), with
    ties broken by the total and then by the smaller (n, k).

    ``constraint`` is either ``"n=k"`` (single-parameter family) or
    ``"free"``.  Either give (eps, bias) for the closed forms or a rate
    table for the per-species accounting.  The inputs are checked once, as
    :class:`BiasPoint` checks them; every candidate is scored by the bound
    arithmetic alone, and only the optimum gets a :class:`BoundReport`.
    """
    if n_max < 1 or n_max % 2 == 0:
        raise ParameterError("n_max", f"n_max must be odd and >= 1, got {n_max}")
    _check_size("n_max", n_max)
    if constraint not in ("n=k", "free"):
        raise ValueError(f"constraint must be 'n=k' or 'free', got {constraint!r}")
    if table is None and (eps is None or bias is None):
        raise ValueError("need either (eps, bias) or a rate table")
    eps = 0.0 if eps is None else eps
    bias = 1.0 if bias is None else bias
    _check_rates(eps, bias)
    GadgetParams(n_max, n_max, c)       # the step-constant check
    # Candidates are scored in Python floats, so one whose bound overflows
    # raises OverflowError whatever the input type (numpy scalars give inf
    # and a warning); the optimum's report keeps the caller's values.
    eps_f, c_f = float(eps), float(c)
    eps_other = eps_f / float(bias)

    ns = range(1, n_max + 1, 2)
    best: tuple | None = None
    try:
        for n in ns:
            for k in ((n,) if constraint == "n=k" else ns):
                eps_L, epsp_L, _ = _bound(n, k, c_f * k, eps_f, eps_other, table)
                key = (max(eps_L, epsp_L), eps_L + epsp_L, n, k)
                if best is None or key < best:
                    best = key
    except OverflowError:
        raise _overflow(n, k, c_f * k, table, "c", "n_max") from None
    report = cnot_bound(BiasPoint(eps, bias, best[2], best[3], c), table)
    return OptimizeResult(report.n, report.k, report.eps_L, report.epsp_L,
                          report.total, report)


def sweep(eps_values: Iterable[float], bias_values: Iterable[float],
          c: float = 3.0, n_max: int = 15,
          constraint: str = "n=k") -> list[tuple[float, float, OptimizeResult]]:
    """Optimizer curve over a grid of (eps, bias) points, for plotting the
    total logical bound against the physical phase rate."""
    rows = []
    for bias in bias_values:
        for eps in eps_values:
            rows.append((eps, bias, optimize_nk(eps, bias, c, n_max, constraint)))
    return rows
