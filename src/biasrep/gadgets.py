"""Gadget circuits over the restricted gate set {|+> prep, CPHASE, X-measure}.

Circuits are time-ordered location lists with block/grouping metadata on top:

* majority groups name sets of measurement locations whose outcomes are
  combined by majority vote (the k repetitions of an ancilla-mediated parity
  measurement, or the transversal X readout of a block),
* corrections describe which logical Pauli is recorded on which output block
  as an XOR of majority bits.

Data qubits are species A, ancillas species B, and CPHASE couples one of
each.  Within every ancilla chain the output-block couplings are scheduled
before any input-block coupling, so leakage entering from an input can never
reach an output block.

This module only builds, checks (:func:`check_schedule`) and serializes
circuits.  How an engine steps through one, its ASAP layers among it, is
compiled with a table's fault draws in :mod:`biasrep.pauli_frame`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .noise_model import OpKind, Species


@dataclass(frozen=True)
class Qubit:
    index: int
    species: Species
    role: str                 # "data" | "ancilla"
    block: str                # block name, "" for ancillas


@dataclass(frozen=True)
class Location:
    index: int
    kind: OpKind
    qubits: tuple[int, ...]
    angle: float = 0.0        # X-measurement angle metadata; rates ignore it
    note: str = ""            # annotation for traces/serialization ("rep 2")


@dataclass(frozen=True)
class Correction:
    """Logical Pauli recorded on an output block, conditioned on the XOR of
    the named majority bits."""

    pauli: str                # "X" | "Z"
    block: str
    sources: tuple[str, ...]  # majority-group names


@dataclass(frozen=True)
class Block:
    name: str
    qubits: tuple[int, ...]
    kind: str                 # "input" | "output"


@dataclass(frozen=True)
class Circuit:
    qubits: tuple[Qubit, ...]
    locations: tuple[Location, ...]
    blocks: tuple[Block, ...] = ()
    groups: dict[str, tuple[int, ...]] = field(default_factory=dict)
    corrections: tuple[Correction, ...] = ()
    meta: dict[str, int | str] = field(default_factory=dict)

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def block(self, name: str) -> Block:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)

    @property
    def input_blocks(self) -> tuple[Block, ...]:
        return tuple(b for b in self.blocks if b.kind == "input")

    @cached_property
    def output_blocks(self) -> tuple[Block, ...]:
        return tuple(b for b in self.blocks if b.kind == "output")

    @cached_property
    def measure_locations(self) -> tuple[int, ...]:
        return tuple(loc.index for loc in self.locations
                     if loc.kind is OpKind.MEASURE_X)

    def species_of(self, qubit: int) -> Species:
        return self.qubits[qubit].species

    @cached_property
    def violations(self) -> tuple[tuple[int, str], ...]:
        """:func:`check_schedule`'s verdict, computed on first use; a copy
        made by ``dataclasses.replace`` checks itself afresh."""
        return tuple(check_schedule(self))


class ScheduleViolation(ValueError):
    def __init__(self, location_id: int, message: str):
        self.location_id = location_id
        super().__init__(f"location {location_id}: {message}")


@dataclass(frozen=True)
class GadgetParams:
    """Repetition-code gadget parameters: block size n, measurement
    repetitions k (both odd so majorities are decisive), and the bound
    constant c multiplying k into the per-qubit step count t = c*k."""

    n: int
    k: int
    c: float = 3.0

    def __post_init__(self):
        if self.n < 1 or self.n % 2 == 0:
            raise ValueError(f"n must be odd and >= 1, got {self.n}")
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"k must be odd and >= 1, got {self.k}")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be finite and positive, got {self.c}")

    @property
    def t(self) -> float:
        return self.c * self.k


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

class _Builder:
    def __init__(self):
        self.qubits: list[Qubit] = []
        self.locations: list[Location] = []
        self.blocks: list[Block] = []
        self.groups: dict[str, list[int]] = {}
        self.corrections: list[Correction] = []

    def add_block(self, name: str, size: int, kind: str) -> tuple[int, ...]:
        start = len(self.qubits)
        ids = tuple(range(start, start + size))
        for i in ids:
            self.qubits.append(Qubit(i, Species.A, "data", name))
        self.blocks.append(Block(name, ids, kind))
        return ids

    def add_ancilla(self) -> int:
        q = len(self.qubits)
        self.qubits.append(Qubit(q, Species.B, "ancilla", ""))
        return q

    def _loc(self, kind: OpKind, qubits: tuple[int, ...], note: str = "",
             angle: float = 0.0) -> int:
        idx = len(self.locations)
        self.locations.append(Location(idx, kind, qubits, angle, note))
        return idx

    def prep(self, q: int, note: str = "") -> int:
        return self._loc(OpKind.PREP_PLUS, (q,), note)

    def cz(self, q1: int, q2: int, note: str = "") -> int:
        return self._loc(OpKind.CPHASE, (q1, q2), note)

    def measx(self, q: int, group: str, note: str = "", angle: float = 0.0) -> int:
        idx = self._loc(OpKind.MEASURE_X, (q,), note, angle)
        self.groups.setdefault(group, []).append(idx)
        return idx

    def parity_rounds(self, qubits_in_cz_order: Sequence[int], k: int,
                      group: str) -> None:
        """k sequential rounds of: fresh |+> ancilla, CPHASE to every listed
        qubit, X-measure the ancilla.  The group majority reads out the
        product of Z over the listed qubits."""
        for rep in range(k):
            note = f"rep {rep}"
            anc = self.add_ancilla()
            self.prep(anc, note)
            for q in qubits_in_cz_order:
                self.cz(anc, q, note)
            self.measx(anc, group, note)

    def transversal_readout(self, qubits: Iterable[int], group: str) -> None:
        for q in qubits:
            self.measx(q, group)

    def build(self, meta: dict | None = None) -> Circuit:
        return Circuit(
            qubits=tuple(self.qubits),
            locations=tuple(self.locations),
            blocks=tuple(self.blocks),
            groups={name: tuple(ids) for name, ids in self.groups.items()},
            corrections=tuple(self.corrections),
            meta=dict(meta or {}),
        )


# ---------------------------------------------------------------------------
# Gadget constructors
# ---------------------------------------------------------------------------

def build_parity_measurement(block_sizes: Sequence[int], k: int) -> Circuit:
    """Standalone repeated parity measurement of the product of Z over the
    union of the listed blocks (for two coded blocks this reads out the
    product of the two logical Z operators, since logical Z is Z on every
    block qubit).  The majority over the k ancilla outcomes is the parity
    bit, group ``"parity"``; k must be odd."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"k must be odd and >= 1, got {k}")
    if not block_sizes:
        raise ValueError("at least one block required")
    b = _Builder()
    all_qubits: list[int] = []
    for i, size in enumerate(block_sizes):
        if size < 1:
            raise ValueError("blocks must be non-empty")
        all_qubits.extend(b.add_block(f"b{i}", size, "input"))
    b.parity_rounds(all_qubits, k, "parity")
    return b.build(meta={"gadget": "parity", "k": k})


def build_teleport_identity(n: int, k: int) -> Circuit:
    """Identity teleportation of one coded block.

    The input block is teleported onto a freshly prepared block: prepare the
    output block qubitwise in |+>, measure the joint Z-parity of input and
    output blocks (k ancilla rounds, majority), then measure X transversally
    on the input block (per-block majority).  A logical X correction on the
    output is recorded when the parity majority is -1, and a logical Z
    correction when the input X-readout majority is -1; corrections stay in
    the frame and are never physically applied.
    """
    params = GadgetParams(n, k)
    b = _Builder()
    inp = b.add_block("in", n, "input")
    out = b.add_block("out", n, "output")
    for q in out:
        b.prep(q)
    # Output-block couplings first: leakage cannot flow input -> output.
    b.parity_rounds(list(out) + list(inp), k, "zz")
    b.transversal_readout(inp, "xread_in")
    b.corrections.append(Correction("X", "out", ("zz",)))
    b.corrections.append(Correction("Z", "out", ("xread_in",)))
    return b.build(meta={"gadget": "teleport", "n": params.n, "k": params.k})


def build_logical_cnot(n: int, k: int, pre_teleport: bool = False) -> Circuit:
    """Teleported logical CNOT between two coded blocks.

    Control and target blocks C, T are consumed; fresh output blocks C', T'
    are prepared qubitwise in |+>.  The sequence is:

    1. k-round parity measurement of Z over C and C'        (majority m1),
    2. k-round parity measurement of Z over T, C' and T'    (majority m2),
    3. transversal X readout of C (majority m3) and of T    (majority m4),
    4. recorded corrections: X on C' iff m1, X on T' iff m1 xor m2,
       Z on C' iff m3 xor m4, Z on T' iff m4.

    The resulting logical map is CNOT with control C->C' and target T->T'.

    With ``pre_teleport`` each input block is first teleported onto a fresh
    intermediate block, so a leakage fault arriving with the inputs is
    confined to this gadget.  The unapplied teleport corrections flip the
    meaning of the later parity and readout majorities, so they fold into
    the final correction sources by XOR: an unapplied X on an intermediate
    block flips every Z-parity it enters, and an unapplied Z flips its
    transversal X readout.
    """
    params = GadgetParams(n, k)
    b = _Builder()
    ctrl = b.add_block("C", n, "input")
    tgt = b.add_block("T", n, "input")
    if pre_teleport:
        ctrl_mid = b.add_block("C1", n, "intermediate")
        tgt_mid = b.add_block("T1", n, "intermediate")
    ctrl_out = b.add_block("Cp", n, "output")
    tgt_out = b.add_block("Tp", n, "output")

    if pre_teleport:
        for q in list(ctrl_mid) + list(tgt_mid):
            b.prep(q)
        b.parity_rounds(list(ctrl_mid) + list(ctrl), k, "pzC")
        b.transversal_readout(ctrl, "xrC")
        b.parity_rounds(list(tgt_mid) + list(tgt), k, "pzT")
        b.transversal_readout(tgt, "xrT")
        ctrl, tgt = ctrl_mid, tgt_mid
        m1_extra, m2_extra = ("pzC",), ("pzT",)
        m3_extra, m4_extra = ("xrC",), ("xrT",)
    else:
        m1_extra = m2_extra = m3_extra = m4_extra = ()

    for q in list(ctrl_out) + list(tgt_out):
        b.prep(q)
    b.parity_rounds(list(ctrl_out) + list(ctrl), k, "m1")
    b.parity_rounds(list(ctrl_out) + list(tgt_out) + list(tgt), k, "m2")
    b.transversal_readout(ctrl, "m3")
    b.transversal_readout(tgt, "m4")
    b.corrections.extend([
        Correction("X", "Cp", ("m1",) + m1_extra),
        Correction("X", "Tp", ("m1", "m2") + m1_extra + m2_extra),
        Correction("Z", "Cp", ("m3", "m4") + m3_extra + m4_extra),
        Correction("Z", "Tp", ("m4",) + m4_extra),
    ])
    return b.build(meta={"gadget": "cnot", "n": params.n, "k": params.k,
                         "pre_teleport": int(pre_teleport)})


def build_gadget(name: str, n: int, k: int, pre_teleport: bool = False) -> Circuit:
    if name == "teleport":
        if pre_teleport:
            raise ValueError("pre-teleport applies to the cnot gadget only")
        return build_teleport_identity(n, k)
    if name == "cnot":
        return build_logical_cnot(n, k, pre_teleport=pre_teleport)
    raise ValueError(f"unknown gadget {name!r} (expected 'teleport' or 'cnot')")


# ---------------------------------------------------------------------------
# Schedule validation
# ---------------------------------------------------------------------------

def check_schedule(circuit: Circuit) -> list[tuple[int, str]]:
    """Validate the circuit invariants; returns (location_id, message) pairs,
    empty when the schedule is clean.

    Checks: location ids are their positions; qubit indices valid and
    distinct per location; block qubits exist; CPHASE couples different
    species and never two data qubits; data
    qubits are species A and ancillas species B; prepared qubits are not
    used before their preparation; within each ancilla chain, output-block
    couplings precede input-block couplings; majority groups have odd size
    and name measurement locations; corrections name existing groups and
    target output blocks.
    """
    violations: list[tuple[int, str]] = []
    n = circuit.n_qubits
    for q in circuit.qubits:
        if q.role == "data" and q.species is not Species.A:
            violations.append((-1, f"data qubit {q.index} must be species A"))
        if q.role == "ancilla" and q.species is not Species.B:
            violations.append((-1, f"ancilla qubit {q.index} must be species B"))
    for b in circuit.blocks:
        for q in b.qubits:
            if not 0 <= q < n:
                violations.append((-1, f"block {b.name!r} names qubit {q}, "
                                       f"out of range"))

    block_kind = {b.name: b.kind for b in circuit.blocks}
    # reversed, so that a qubit's first preparation is the one kept
    first_preps = {loc.qubits[0]: loc.index for loc in reversed(circuit.locations)
                   if loc.kind is OpKind.PREP_PLUS}
    anc_touched_input: dict[int, int] = {}  # ancilla -> first input-coupling loc

    violations += [(loc.index, f"location id {loc.index} at position {i}")
                   for i, loc in enumerate(circuit.locations) if loc.index != i]
    for loc in circuit.locations:
        for q in loc.qubits:
            if not 0 <= q < n:
                violations.append((loc.index, f"qubit index {q} out of range"))
        if any(not 0 <= q < n for q in loc.qubits):
            continue
        if loc.kind is OpKind.CPHASE:
            q1, q2 = loc.qubits
            if q1 == q2:
                violations.append((loc.index, "CPHASE on a single qubit"))
                continue
            s1, s2 = circuit.species_of(q1), circuit.species_of(q2)
            if s1 is s2:
                violations.append(
                    (loc.index, f"CPHASE between same-species qubits ({s1.value})"))
            r1, r2 = circuit.qubits[q1].role, circuit.qubits[q2].role
            if r1 == "data" and r2 == "data":
                violations.append((loc.index, "CPHASE directly between data qubits"))
            for anc, data in ((q1, q2), (q2, q1)):
                if circuit.qubits[anc].role != "ancilla":
                    continue
                kind = block_kind.get(circuit.qubits[data].block)
                if kind == "input" and anc not in anc_touched_input:
                    anc_touched_input[anc] = loc.index
                if kind == "output" and anc in anc_touched_input:
                    violations.append(
                        (loc.index,
                         f"ancilla {anc} couples to output qubit {data} after "
                         f"touching an input block at location "
                         f"{anc_touched_input[anc]}"))
        for q in loc.qubits:
            first_prep = first_preps.get(q)
            if first_prep is not None and loc.index < first_prep:
                violations.append(
                    (loc.index, f"qubit {q} used before its preparation at "
                                f"location {first_prep}"))

    measured = set(circuit.measure_locations)
    for name, ids in circuit.groups.items():
        if len(ids) % 2 == 0:
            violations.append(
                (-1, f"majority group {name!r} has even size {len(ids)}"))
        for loc_id in ids:
            if loc_id not in measured:
                violations.append(
                    (loc_id, f"majority group {name!r} names a location "
                             f"that is not a measurement"))
    outputs = {b.name for b in circuit.output_blocks}
    for c in circuit.corrections:
        if c.block not in outputs:
            violations.append(
                (-1, f"{c.pauli} correction targets block {c.block!r}, "
                     f"which is not an output block"))
        for src in c.sources:
            if src not in circuit.groups:
                violations.append(
                    (-1, f"{c.pauli} correction on block {c.block!r} names "
                         f"no group {src!r}"))
    return violations


def assert_valid(circuit: Circuit) -> None:
    if circuit.violations:
        raise ScheduleViolation(*circuit.violations[0])


# ---------------------------------------------------------------------------
# Line-oriented text serialization
# ---------------------------------------------------------------------------

def circuit_to_text(circuit: Circuit) -> str:
    """Serialize to the line format ``PREP q`` / ``CZ q1 q2`` / ``MEASX q
    [angle]`` with metadata and annotations as comments.  Operation lines
    appear in time order; a location's id is its ordinal among operation
    lines, so the mapping survives comment edits."""
    lines = ["# biasrep circuit v1"]
    for q in circuit.qubits:
        lines.append(f"# qubit {q.index} {q.species.value} {q.role}"
                     + (f" {q.block}" if q.block else ""))
    for b in circuit.blocks:
        lines.append(f"# block {b.name} {b.kind} " + " ".join(map(str, b.qubits)))
    for name, ids in circuit.groups.items():
        lines.append(f"# group {name} " + " ".join(map(str, ids)))
    for corr in circuit.corrections:
        lines.append(f"# correction {corr.pauli} {corr.block} " + " ".join(corr.sources))
    for key, value in circuit.meta.items():
        lines.append(f"# meta {key} {value}")
    last_note = ""
    for loc in circuit.locations:
        if loc.note and loc.note != last_note:
            lines.append(f"# {loc.note}")
        last_note = loc.note
        if loc.kind is OpKind.PREP_PLUS:
            lines.append(f"PREP {loc.qubits[0]}")
        elif loc.kind is OpKind.CPHASE:
            lines.append(f"CZ {loc.qubits[0]} {loc.qubits[1]}")
        else:
            line = f"MEASX {loc.qubits[0]}"
            if loc.angle:
                line += f" {loc.angle!r}"
            lines.append(line)
    return "\n".join(lines) + "\n"


# Fields a line needs, its keyword included ("#tag" for an annotation):
# "# qubit i species role", "# block name kind", "# group name",
# "# correction pauli block", "# meta key", "# rep r", "PREP q", "CZ q1 q2",
# "MEASX q".  Other comments are free text.
_MIN_FIELDS = {"#qubit": 4, "#block": 3, "#group": 2, "#correction": 3,
               "#meta": 2, "#rep": 2, "PREP": 2, "CZ": 3, "MEASX": 2}


def circuit_from_text(text: str) -> Circuit:
    qubits: list[Qubit] = []
    blocks: list[Block] = []
    groups: dict[str, tuple[int, ...]] = {}
    corrections: list[Correction] = []
    meta: dict[str, int | str] = {}
    locations: list[Location] = []
    note = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        comment = line.startswith("#")
        fields = line.removeprefix("#").split()
        if not fields:
            continue
        if len(fields) < _MIN_FIELDS.get(("#" if comment else "") + fields[0], 0):
            raise ValueError(f"line {lineno}: too few fields in {raw!r}")
        if comment:
            tag = fields[0]
            if tag == "qubit":
                idx, species, role = int(fields[1]), Species(fields[2]), fields[3]
                block = fields[4] if len(fields) > 4 else ""
                qubits.append(Qubit(idx, species, role, block))
            elif tag == "block":
                blocks.append(Block(fields[1], tuple(map(int, fields[3:])), fields[2]))
            elif tag == "group":
                groups[fields[1]] = tuple(map(int, fields[2:]))
            elif tag == "correction":
                if fields[1] not in ("X", "Z"):
                    raise ValueError(f"line {lineno}: correction Pauli must be "
                                     f"X or Z in {raw!r}")
                corrections.append(Correction(fields[1], fields[2], tuple(fields[3:])))
            elif tag == "meta":
                value = " ".join(fields[2:])
                meta[fields[1]] = int(value) if value.lstrip("-").isdigit() else value
            elif tag == "rep":
                note = f"rep {fields[1]}"
            continue
        idx = len(locations)
        if fields[0] == "PREP":
            locations.append(Location(idx, OpKind.PREP_PLUS, (int(fields[1]),), 0.0, note))
        elif fields[0] == "CZ":
            locations.append(Location(idx, OpKind.CPHASE,
                                      (int(fields[1]), int(fields[2])), 0.0, note))
        elif fields[0] == "MEASX":
            angle = float(fields[2]) if len(fields) > 2 else 0.0
            locations.append(Location(idx, OpKind.MEASURE_X, (int(fields[1]),),
                                      angle, note))
        else:
            raise ValueError(f"unrecognized line: {raw!r}")
    qubits.sort(key=lambda q: q.index)
    if [q.index for q in qubits] != list(range(len(qubits))):
        raise ValueError("qubit declarations must cover 0..N-1")
    return Circuit(tuple(qubits), tuple(locations), tuple(blocks), groups,
                   tuple(corrections), meta)
