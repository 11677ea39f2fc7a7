"""Biased stochastic noise model for the {|+> prep, CPHASE, X-measure} gate set.

Noise is parameterized per (operation, qubit species) by three numbers:

* ``eps``       phase (Z-type) error rate, the dominant channel,
* ``eps_other`` all non-phase errors (realized as X/Y flips),
* ``eps_leak``  leakage out of the computational space.

The built-in default table carries the device estimates for the two qubit
species; species A is used for data qubits and species B for ancillas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .streams import FaultStream, fault_hits

if TYPE_CHECKING:
    from .gadgets import Circuit


class Species(str, Enum):
    """Qubit family, distinguished by resonator frequency. Couplings exist
    only across species."""

    A = "A"
    B = "B"


class OpKind(str, Enum):
    PREP_PLUS = "prep"
    CPHASE = "cz"
    MEASURE_X = "measx"


class FaultKind(str, Enum):
    Z = "Z"
    X = "X"
    Y = "Y"
    LEAK = "LEAK"
    MEAS_FLIP = "FLIP"


@dataclass(frozen=True)
class Rates:
    """Error rates for one (operation, species) table entry."""

    eps: float = 0.0
    eps_other: float = 0.0
    eps_leak: float = 0.0

    def validate(self) -> None:
        for name, value in (("eps", self.eps), ("eps_other", self.eps_other),
                            ("eps_leak", self.eps_leak)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        if self.eps + self.eps_other + self.eps_leak > 1.0 + 1e-12:
            raise ValueError("eps + eps_other + eps_leak exceeds 1")

    @property
    def total(self) -> float:
        return self.eps + self.eps_other + self.eps_leak


@dataclass(frozen=True)
class FaultEvent:
    location_id: int
    qubit: int
    error: FaultKind


# ---------------------------------------------------------------------------
# Fault semantics
# ---------------------------------------------------------------------------

class Effect(NamedTuple):
    """What a fault does: Pauli (x, z) bits multiplied into the frame entry,
    the entry leaking, or the measurement outcome flipping."""

    x: bool = False
    z: bool = False
    leak: bool = False
    flip: bool = False


EFFECTS = {
    FaultKind.Z: Effect(z=True),
    FaultKind.X: Effect(x=True),
    FaultKind.Y: Effect(x=True, z=True),
    FaultKind.LEAK: Effect(leak=True),
    FaultKind.MEAS_FLIP: Effect(flip=True),
}

# Fault classes of each operation in draw order, with their probabilities
# from the operation's rates.  X acts trivially on |+>, so a preparation's
# non-phase error is realized as Y; a CPHASE splits it evenly between X and Y.
FAULT_CLASSES = {
    OpKind.PREP_PLUS: lambda r: ((FaultKind.Z, r.eps), (FaultKind.Y, r.eps_other),
                                 (FaultKind.LEAK, r.eps_leak)),
    OpKind.CPHASE: lambda r: ((FaultKind.Z, r.eps), (FaultKind.X, r.eps_other / 2),
                              (FaultKind.Y, r.eps_other / 2),
                              (FaultKind.LEAK, r.eps_leak)),
    OpKind.MEASURE_X: lambda r: ((FaultKind.MEAS_FLIP, r.eps),),
}


class FaultRow(NamedTuple):
    """The nonzero fault classes of one keyed draw in draw order, their
    probabilities, and the running sums of those: the draw faults with
    probability ``thresholds[-1]``, and a fault is of class i with
    probability ``probs[i] / thresholds[-1]`` (see
    :func:`~biasrep.streams.fault_bounds`)."""

    classes: tuple[FaultKind, ...]
    probs: tuple[float, ...]
    thresholds: tuple[float, ...]

    @classmethod
    def build(cls, classes: Iterable[tuple[FaultKind, float]]) -> FaultRow | None:
        kept = [(kind, p) for kind, p in classes if p]
        if not kept:
            return None
        kinds, probs = zip(*kept)
        return cls(kinds, probs, tuple(accumulate(probs)))


class FaultSite(NamedTuple):
    """One keyed fault draw, at (location_id, qubit) with qubit -1 for the
    pair draw; the class drawn from ``row`` hits each of ``targets``."""

    location_id: int
    qubit: int
    targets: tuple[int, ...]
    row: FaultRow

    @property
    def choices(self) -> tuple[tuple[FaultKind, float], ...]:
        return tuple(zip(self.row.classes, self.row.probs))

    @property
    def total(self) -> float:
        return sum(self.row.probs)

    def events(self, cls: int) -> list[FaultEvent]:
        """The events of a hit of class index ``cls``: one per target."""
        return [FaultEvent(self.location_id, q, self.row.classes[cls])
                for q in self.targets]


class OpFaults(NamedTuple):
    """The fault draws of one operation kind: one per qubit whose species
    has a row, and the correlated ``pair`` draw, if any (the CPHASE Z(x)Z
    term at rate ``cphase_zz``)."""

    rows: dict[Species, FaultRow]
    pair: FaultRow | None = None

    def sites(self, location_id: int, qubits: Sequence[int],
              species_of: Callable[[int], Species]) -> list[FaultSite]:
        """One location's draws: per qubit in qubit order, then the pair draw."""
        out = [FaultSite(location_id, q, (q,), self.rows[sp]) for q in qubits
               if (sp := species_of(q)) in self.rows]
        if self.pair is not None:
            out.append(FaultSite(location_id, -1, tuple(qubits), self.pair))
        return out


@dataclass
class ErrorRateTable:
    """Per-(operation, species) rates, plus an optional correlated Z(x)Z rate
    for CPHASE locations (``cphase_zz``, default 0: the stochastic table does
    not assign the two-qubit dephasing term its own rate).  A valid table
    has a row for every (operation, species) pair, and its measurement rows
    set ``eps`` alone."""

    entries: dict[tuple[OpKind, Species], Rates] = field(default_factory=dict)
    cphase_zz: float = 0.0
    _ROW_KEYS = {"operation", "species", "eps", "eps_other", "eps_leak"}

    def get(self, kind: OpKind, species: Species) -> Rates:
        try:
            return self.entries[(kind, species)]
        except KeyError:
            raise KeyError(f"no rates for ({kind.value}, {species.value})") from None

    def validate(self) -> None:
        for (kind, species), rates in self.entries.items():
            rates.validate()
            if kind is OpKind.MEASURE_X and (rates.eps_other or rates.eps_leak):
                raise ValueError(
                    f"({kind.value}, {species.value}): a measurement takes eps "
                    f"(the outcome-flip rate) only, got eps_other="
                    f"{rates.eps_other}, eps_leak={rates.eps_leak}")
        if not 0.0 <= self.cphase_zz <= 1.0:
            raise ValueError(f"cphase_zz={self.cphase_zz} outside [0, 1]")
        missing = [f"({kind.value}, {species.value})" for kind in OpKind
                   for species in Species if (kind, species) not in self.entries]
        if missing:
            raise ValueError("missing rate rows: " + ", ".join(missing))

    def faults(self) -> dict[OpKind, OpFaults]:
        """The fault semantics of these rates, built after one validation:
        the :class:`OpFaults` of each operation kind with a nonzero row,
        where rows and classes of zero probability are left out."""
        self.validate()
        rows: dict[OpKind, dict[Species, FaultRow]] = {}
        for (kind, species), r in self.entries.items():
            row = FaultRow.build(FAULT_CLASSES[kind](r))
            if row is not None:
                rows.setdefault(kind, {})[species] = row
        table = {kind: OpFaults(by_species) for kind, by_species in rows.items()}
        pair = FaultRow.build([(FaultKind.Z, self.cphase_zz)])
        if pair is not None:
            table[OpKind.CPHASE] = OpFaults(rows.get(OpKind.CPHASE, {}), pair)
        return table

    def sites(self, circuit: Circuit) -> list[list[FaultSite]]:
        """The :class:`FaultSite` draws of each location of ``circuit`` in time
        order, built afresh from :meth:`faults`: a circuit's draws, resolved
        for both engines' plan and the oracle."""
        faults = self.faults()
        return [op.sites(loc.index, loc.qubits, circuit.species_of)
                if (op := faults.get(loc.kind)) else []
                for loc in circuit.locations]

    def bias(self, kind: OpKind = OpKind.CPHASE, species: Species = Species.A) -> float:
        r = self.get(kind, species)
        return r.eps / r.eps_other if r.eps_other else float("inf")

    # -- JSON round trip ----------------------------------------------------

    def to_json(self) -> str:
        rows = [
            {"operation": kind.value, "species": species.value,
             "eps": r.eps, "eps_other": r.eps_other, "eps_leak": r.eps_leak}
            for (kind, species), r in sorted(
                self.entries.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value))
        ]
        return json.dumps({"rates": rows, "cphase_zz": self.cphase_zz}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ErrorRateTable":
        """The validated table of a :meth:`to_json` document.  A key it does
        not know, or a second row for one (operation, species), is refused."""
        doc = json.loads(text)
        entries = {}
        for row in doc["rates"]:
            key = (OpKind(row["operation"]), Species(row["species"]))
            name = f"({key[0].value}, {key[1].value})"
            if unknown := sorted(row.keys() - cls._ROW_KEYS):
                raise ValueError(f"unknown key {unknown[0]!r} in rate row {name}")
            if key in entries:
                raise ValueError(f"a second rate row for {name}")
            entries[key] = Rates(float(row.get("eps", 0.0)),
                                 float(row.get("eps_other", 0.0)),
                                 float(row.get("eps_leak", 0.0)))
        if unknown := sorted(doc.keys() - {"rates", "cphase_zz"}):
            raise ValueError(f"unknown key {unknown[0]!r} in rate table")
        table = cls(entries=entries, cphase_zz=float(doc.get("cphase_zz", 0.0)))
        table.validate()
        return table


def default_rates() -> ErrorRateTable:
    """The built-in rate estimates for the elementary operations.

    CPHASE phase noise differs per species (the B qubit is unparked more
    deeply); relaxation and leakage sit near 3.5e-6 for both.  Preparation
    leaks much more on species B.  Measurement noise is a single outcome-flip
    rate, independent of the measurement angle.
    """
    return ErrorRateTable(entries={
        (OpKind.CPHASE, Species.A): Rates(1.96e-3, 3.5e-6, 3.5e-6),
        (OpKind.CPHASE, Species.B): Rates(4.6e-3, 3.5e-6, 3.5e-6),
        (OpKind.PREP_PLUS, Species.A): Rates(2.75e-3, 3.5e-7, 3.77e-7),
        (OpKind.PREP_PLUS, Species.B): Rates(2.75e-3, 3.5e-7, 1.5e-5),
        (OpKind.MEASURE_X, Species.A): Rates(1.83e-3, 0.0, 0.0),
        (OpKind.MEASURE_X, Species.B): Rates(1.83e-3, 0.0, 0.0),
    })


def zero_rates() -> ErrorRateTable:
    """An all-zero table (noiseless runs)."""
    return ErrorRateTable(entries={
        (kind, species): Rates()
        for kind in OpKind for species in Species
    })


# ---------------------------------------------------------------------------
# Fault sampling
# ---------------------------------------------------------------------------

def trial_hits(draws: Sequence[tuple[int, int, tuple[float, ...]]], seed: int,
               trial: int) -> list[tuple[int, int]]:
    """The hits that trial ``trial`` of ``seed`` draws at ``draws`` (location,
    qubit, thresholds), as (draw index, class index) pairs in draw order.
    One :func:`~biasrep.streams.fault_hits` call over a one-trial span, with
    one cut, makes every draw; no draws, no call.  A one-trial span hits a
    draw at most once, so its hits sorted by draw index are in draw order."""
    if not draws:
        return []
    [(d, _, cls)] = fault_hits(seed, range(trial, trial + 1), draws, [len(draws)])
    return sorted(zip(d.tolist(), cls.tolist()))


def trial_faults(sites: Sequence[FaultSite], seed: int,
                 trial: int) -> list[FaultEvent]:
    """The faults of the :func:`trial_hits` of trial ``trial`` of ``seed``
    at ``sites``, in site order: one event per target of each site that
    hits."""
    draws = [(s.location_id, s.qubit, s.row.thresholds) for s in sites]
    return [ev for i, c in trial_hits(draws, seed, trial)
            for ev in sites[i].events(c)]


def sample_faults(kind: OpKind, qubits: Sequence[int], species: Sequence[Species],
                  location_id: int, rates: ErrorRateTable,
                  stream: FaultStream) -> list[FaultEvent]:
    """Draw the faults for one circuit location in the trial of ``stream``:
    one keyed draw per :class:`FaultSite` the location's operation has."""
    op = rates.faults().get(kind, OpFaults({}))
    sites = op.sites(location_id, qubits, dict(zip(qubits, species)).__getitem__)
    return trial_faults(sites, stream.seed, stream.trial)


def fault_class_counts(kind: OpKind, species: Species, rates: ErrorRateTable,
                       seed: int, location_id: int, qubit: int,
                       trials: int) -> dict[FaultKind, int]:
    """Vectorized fault-class frequencies for one (location, qubit) cell,
    using exactly the draws :func:`sample_faults` would make per trial."""
    row = rates.faults().get(kind, OpFaults({})).rows.get(species)
    if row is None:
        return {}
    [(_, _, which)] = fault_hits(seed, range(trials),
                                 [(location_id, qubit, row.thresholds)], [1])
    counts = np.bincount(which, minlength=len(row.classes))
    return {cls: int(n) for cls, n in zip(row.classes, counts)}


# ---------------------------------------------------------------------------
# First-order composition
# ---------------------------------------------------------------------------

def compose_rates(op_rates: Iterable[Mapping[str, float] | tuple[float, float] | Rates]
                  ) -> Rates:
    """Union-bound composition of independent locations: column-wise sums of
    (eps, eps_other).  Used for quick error budgets of composite gates built
    from elementary operations."""
    eps = 0.0
    other = 0.0
    for item in op_rates:
        if isinstance(item, Rates):
            eps += item.eps
            other += item.eps_other
        elif isinstance(item, Mapping):
            eps += float(item.get("eps", 0.0))
            other += float(item.get("eps_other", 0.0))
        else:
            e, o = item
            eps += float(e)
            other += float(o)
    return Rates(eps=eps, eps_other=other)
