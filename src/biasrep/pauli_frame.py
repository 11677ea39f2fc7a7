"""Pauli-frame simulation backend.

Errors are tracked symbolically relative to the noiseless reference run of a
circuit: each qubit carries one of {I, X, Y, Z, Leaked}, stored as (x, z)
bits plus a leak flag, with global signs ignored.  Measurement outcomes are
reported as flips against the reference outcome (bit 0), which is a valid
trajectory of every gadget circuit built here.

Leaked is absorbing.  A CPHASE between a leaked and a normal qubit dephases
the normal partner according to the leak policy (by default a random Z,
the maximally ignorant choice for an undefined partner phase); measuring a
leaked qubit yields a uniformly random outcome, and the measurement replaces
the qubit with a fresh unleaked one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from typing import NamedTuple, Sequence

import numpy as np

from .gadgets import Circuit, assert_valid
from .noise_model import (EFFECTS, ErrorRateTable, FaultEvent, FaultKind, FaultSite,
                          OpKind, trial_hits)
from .streams import (TAG_LEAK_CZ, TAG_LEAK_OUTCOME, FaultStream, fault_hits,
                      trial_span, uniform_vector)


class LeakPolicy(str, Enum):
    """What a CPHASE does to the normal partner of a leaked qubit."""

    RANDOM_Z = "random-z"
    ALWAYS_Z = "always-z"
    NEVER_Z = "never-z"


_STATES = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


class PauliFrame:
    """Per-qubit symbolic error state, sign-free."""

    __slots__ = ("x", "z", "leaked")

    def __init__(self, n_qubits: int):
        self.x = bytearray(n_qubits)
        self.z = bytearray(n_qubits)
        self.leaked = bytearray(n_qubits)

    def __len__(self) -> int:
        return len(self.x)

    def state(self, q: int) -> str:
        if self.leaked[q]:
            return "Leaked"
        return _STATES[(self.x[q], self.z[q])]

    def states(self) -> list[str]:
        return [self.state(q) for q in range(len(self))]

    def multiply(self, q: int, x: int, z: int) -> None:
        """Multiply the frame entry by a Pauli with the given (x, z) bits.
        No effect on leaked qubits (leak is absorbing)."""
        if self.leaked[q]:
            return
        self.x[q] ^= x
        self.z[q] ^= z

    def set_leaked(self, q: int) -> None:
        self.leaked[q] = 1
        self.x[q] = 0
        self.z[q] = 0

    def reset(self, q: int) -> None:
        """Fresh qubit (preparation or measurement replacement)."""
        self.x[q] = 0
        self.z[q] = 0
        self.leaked[q] = 0

    def inject(self, event: FaultEvent) -> None:
        effect = EFFECTS[event.error]
        if effect.flip:
            raise ValueError(f"cannot inject {event.error} into a frame")
        if effect.leak:
            self.set_leaked(event.qubit)
        else:
            self.multiply(event.qubit, effect.x, effect.z)

    def digest(self) -> str:
        parts = [f"{q}:{'L' if self.leaked[q] else _STATES[(self.x[q], self.z[q])]}"
                 for q in range(len(self))
                 if self.leaked[q] or self.x[q] or self.z[q]]
        return " ".join(parts) if parts else "-"


def conjugate_through_cz(frame: PauliFrame, q1: int, q2: int, *,
                         policy: LeakPolicy | str = LeakPolicy.RANDOM_Z,
                         stream: FaultStream | None = None,
                         location_id: int = 0) -> PauliFrame:
    """Conjugate the frame through a CPHASE on (q1, q2), in place.

    X and Y components pick up a Z on the partner qubit; Z components
    commute.  If exactly one qubit is leaked the normal partner acquires a Z
    per the leak policy (the random-Z policy draws from ``stream``); if both
    are leaked nothing happens.  The policy is read only in the first case.
    """
    if q1 == q2:
        raise ValueError("CPHASE requires two distinct qubits")
    l1, l2 = frame.leaked[q1], frame.leaked[q2]
    if not l1 and not l2:
        frame.z[q2] ^= frame.x[q1]
        frame.z[q1] ^= frame.x[q2]
        return frame
    if l1 and l2:
        return frame
    policy = LeakPolicy(policy)
    normal = q2 if l1 else q1
    if policy is LeakPolicy.ALWAYS_Z:
        frame.z[normal] ^= 1
    elif policy is LeakPolicy.RANDOM_Z:
        if stream is None:
            raise ValueError("random-z leak policy needs a FaultStream")
        if stream.uniform(location_id, normal, TAG_LEAK_CZ) < 0.5:
            frame.z[normal] ^= 1
    return frame


def measure_x(frame: PauliFrame, q: int, ideal_outcome: int = 0,
              flip_fault: bool = False, *, stream: FaultStream | None = None,
              location_id: int = 0) -> int:
    """Resolve an X-basis measurement against the frame.

    A leaked qubit yields a uniformly random bit (leakage converted to a
    regular outcome error); otherwise the outcome is the ideal one flipped
    by any Z or Y frame component and by a measurement fault.  The qubit is
    replaced by a fresh one afterwards.
    """
    if frame.leaked[q]:
        if stream is None:
            raise ValueError("measuring a leaked qubit needs a FaultStream")
        bit = int(stream.uniform(location_id, q, TAG_LEAK_OUTCOME) < 0.5)
    else:
        bit = ideal_outcome ^ frame.z[q] ^ int(flip_fault)
    frame.reset(q)
    return bit


@dataclass
class OutcomeRecord:
    """Measurement outcomes by location id; bit 0 is the +1 outcome of the
    noiseless reference run.  ``leaked_random`` marks outcomes that were
    drawn uniformly because the measured qubit was leaked."""

    bits: dict[int, int] = field(default_factory=dict)
    leaked_random: dict[int, bool] = field(default_factory=dict)


@dataclass
class RunResult:
    outcomes: OutcomeRecord
    frame: PauliFrame
    trace: list[str] | None = None


# The x, z and leak bits [3, kinds] of each FaultKind, coded by its
# position in FaultKind
_KIND_CODE = {kind: i for i, kind in enumerate(FaultKind)}
_KIND_BITS = np.array([EFFECTS[kind][:3] for kind in FaultKind], dtype=bool).T


class Layer(NamedTuple):
    """One ASAP layer of a circuit.  Its locations act on disjoint qubits;
    they are given as positions in ``Circuit.locations``, in time order,
    and as index arrays by operation kind."""

    locations: tuple[int, ...]
    prep: np.ndarray          # prepared qubits
    cz: np.ndarray            # [2, pairs]: the qubits of each CPHASE
    cz_loc: np.ndarray        # the location id of each CPHASE
    meas: np.ndarray          # measured qubits
    meas_loc: np.ndarray      # the location id of each measurement
    meas_row: np.ndarray      # its position in ``measure_locations``


class _HitPlan(NamedTuple):
    """A circuit compiled with a table of fault draws; both engines read it.
    ``layers`` is the circuit's ASAP schedule: a location's layer is one
    past the latest layer of any earlier location that shares one of its
    qubits, so a layer's locations act on disjoint qubits and each qubit
    meets its locations in time order.  ``at`` holds per location position
    (its id, as ``check_schedule`` requires) int32 (qubit, qubit, layer,
    outcome row): a one-qubit location's qubit twice, and row -1 off a
    measurement; a last row, (-1, -1, 0, -1), stands for a location the
    circuit does not have.  The draws go by layer, then in time order.
    For the hit of class c of draw d, at d * ``width`` + c, ``q`` holds the
    qubit of its first target and ``row1``/``row2`` the two rows of the
    stacked state of :func:`_apply_hits` that it acts on: a pair draw's
    (its class is Z) are the z rows of its two qubits."""

    layers: tuple[Layer, ...]
    at: np.ndarray
    sites: list[FaultSite]  # the FaultSite of each draw
    position: list[int]     # the location position of each draw
    draws: list            # as fault_hits takes them
    layer_end: list[int]   # one past each layer's last draw
    width: int             # the most classes of a draw
    q: np.ndarray
    row1: np.ndarray
    row2: np.ndarray


def _hit_plan(circuit: Circuit, rates: ErrorRateTable) -> _HitPlan:
    """The :class:`_HitPlan` of ``circuit`` with ``rates.sites(circuit)``,
    kept on the circuit and keyed on the rates' values: equal tables share
    one plan, other values rebuild it, and each circuit keeps its own."""
    key = (dict(rates.entries), rates.cphase_zz)
    cached = circuit.__dict__.get("_hit_plan")
    if cached is None or cached[0] != key:
        cached = (key, _build_hit_plan(circuit, rates.sites(circuit)))
        circuit.__dict__["_hit_plan"] = cached
    return cached[1]


def _build_hit_plan(circuit: Circuit, table: list[list[FaultSite]]) -> _HitPlan:
    locations = circuit.locations
    n = circuit.n_qubits
    out_row = {loc: i for i, loc in enumerate(circuit.measure_locations)}
    at = [(-1, -1, 0, -1)] * (len(locations) + 1)
    after: dict[int, int] = {}      # qubit -> layers up to its last use
    members: list[list[int]] = []
    for i, loc in enumerate(locations):
        k = max([after.get(q, 0) for q in loc.qubits])
        for q in loc.qubits:
            after[q] = k + 1
        if k == len(members):
            members.append([])
        members[k].append(i)
        at[i] = (*(loc.qubits * 2)[:2], k, out_row.get(loc.index, -1))
    # each kind's columns and the draws in layer order, and one past each
    # layer's end
    prep, cz, cz_loc, meas, meas_loc, meas_row = ([] for _ in range(6))
    sites, position, ends, layer_end = [], [], [], []
    for positions in members:
        for i in positions:
            loc = locations[i]
            if loc.kind is OpKind.PREP_PLUS:
                prep.append(loc.qubits[0])
            elif loc.kind is OpKind.CPHASE:
                cz.append(loc.qubits)
                cz_loc.append(loc.index)
            else:
                meas.append(loc.qubits[0])
                meas_loc.append(loc.index)
                meas_row.append(at[i][3])
            sites += table[i]
            position += [i] * len(table[i])
        ends.append((len(prep), len(cz), len(meas)))
        layer_end.append(len(sites))
    prep, cz_loc, meas, meas_loc, meas_row = (
        np.array(c, dtype=np.intp)
        for c in (prep, cz_loc, meas, meas_loc, meas_row))
    cz = np.array(cz, dtype=np.intp).reshape(-1, 2).T
    layers = tuple(
        Layer(tuple(positions), prep[p0:p1], cz[:, c0:c1], cz_loc[c0:c1],
              meas[m0:m1], meas_loc[m0:m1], meas_row[m0:m1])
        for positions, (p0, c0, m0), (p1, c1, m1) in zip(
            members, [(0, 0, 0), *ends], ends))
    width = max((len(s.row.classes) for s in sites), default=1)
    # per draw and class: the first and last targets, the outcome row and the
    # class as a FaultKind code, padded with Z codes that no hit reads
    qs, last, rows = (np.array(c, dtype=np.intp)[:, None] for c in (
        [s.targets[0] for s in sites], [s.targets[-1] for s in sites],
        [at[i][3] for i in position]))
    kind = np.zeros((len(sites), width), dtype=np.intp)
    for d, s in enumerate(sites):
        kind[d, :len(s.row.classes)] = [_KIND_CODE[c] for c in s.row.classes]
    row1, row2 = _hit_rows(n, kind, qs, rows)
    # a pair draw's one class is Z, on both of its qubits
    row2 = np.where(last != qs, 2 * n + last, row2)
    draws = [(s.location_id, s.qubit, s.row.thresholds) for s in sites]
    return _HitPlan(layers, np.array(at, dtype=np.int32), sites, position,
                    draws, layer_end, width,
                    np.broadcast_to(qs, kind.shape).ravel(), row1.ravel(),
                    row2.ravel())


def _hit_rows(n: int, kind: np.ndarray, q: np.ndarray, row: np.ndarray):
    """The two rows of the stacked state of :func:`_apply_hits` that a hit
    of the FaultKind codes ``kind`` on qubit ``q`` acts on, where ``row`` is
    its location's outcome row (read for an outcome flip alone)."""
    is_x, is_z, is_leak = _KIND_BITS[:, kind]
    # a class without a Pauli or a leak is an outcome flip
    first = np.where(is_leak, q, np.where(is_x, n + q, np.where(
        is_z, 2 * n + q, 3 * n + row)))
    return first, np.where(is_x & is_z, 2 * n + q, -1)


def _check_forced(circuit: Circuit, plan: _HitPlan,
                  forced_faults: Sequence[Sequence[FaultEvent]]) -> np.ndarray:
    """The events of each trial's list ``forced_faults[j]``, in order, as
    int32 rows (qubit, j, position of the event's location, FaultKind
    code), checked against ``plan.at``.  Raises ``ValueError`` for the
    first event at a location the circuit does not have (no location would
    apply it), on a qubit its location does not act on, or (an outcome
    flip) off a measurement."""
    table = plan.at
    n = len(circuit.locations)
    rows = np.fromiter(((ev.qubit, j, ev.location_id if 0 <= ev.location_id < n else -1,
                         _KIND_CODE[ev.error])
                        for j, events in enumerate(forced_faults) for ev in events),
                       dtype=np.dtype((np.int32, 4)),
                       count=sum(map(len, forced_faults)))
    q, _, at, kind = rows.T
    bad = (at < 0) | ((table[at, 0] != q) & (table[at, 1] != q))
    bad |= (kind == _KIND_CODE[FaultKind.MEAS_FLIP]) & (table[at, 3] < 0)
    if bad.any():
        r = int(bad.argmax())
        ev = next(islice(chain.from_iterable(forced_faults), r, None))
        if at[r] < 0:
            raise ValueError(f"forced fault at location {ev.location_id}, "
                             "which the circuit does not have")
        loc = circuit.locations[at[r]]
        if ev.qubit not in loc.qubits:
            raise ValueError(f"forced fault on qubit {ev.qubit} at location "
                             f"{loc.index}, which acts on {loc.qubits}")
        raise ValueError("an outcome flip needs a measurement location, not "
                         f"{loc.kind.value} location {loc.index}")
    return rows


def run_circuit(circuit: Circuit, rates: ErrorRateTable, seed: int, *,
                trial: int = 0, forced_faults: Sequence[FaultEvent] = (),
                leak_policy: LeakPolicy | str = LeakPolicy.RANDOM_Z,
                trace: bool = False, validate: bool = True) -> RunResult:
    """Single-trial frame propagation through a circuit.

    Iterates locations in time order: gate action first (frame conjugation
    for CPHASE), then sampled faults plus any forced faults for that
    location.  Deterministic given (seed, trial): one
    :func:`~biasrep.noise_model.trial_hits` call makes the draws of the
    :class:`_HitPlan` that :func:`run_circuit_batch` reads, so the two
    engines make the same draws, and each hit is applied at the position
    of its draw, as in the batch engine.  The forced faults are checked
    against the plan before any work: one at a location the circuit lacks,
    on a qubit its location does not act on, or an outcome flip off a
    measurement raises ``ValueError``; each is applied at the position its
    location id names, as in the batch engine.  ``validate=False`` skips
    only a read of the circuit's cached ``violations``.
    """
    if validate:
        assert_valid(circuit)
    plan = _hit_plan(circuit, rates)
    policy = LeakPolicy(leak_policy)
    stream = FaultStream(seed, trial)
    frame = PauliFrame(circuit.n_qubits)
    record = OutcomeRecord()
    lines: list[str] | None = [] if trace else None
    if forced_faults:
        _check_forced(circuit, plan, [forced_faults])
    # each location position's sampled events, then its forced ones
    events_at: dict[int, list[FaultEvent]] = {}
    for d, c in trial_hits(plan.draws, seed, trial):
        events_at.setdefault(plan.position[d], []).extend(plan.sites[d].events(c))
    for ev in forced_faults:
        events_at.setdefault(ev.location_id, []).append(ev)

    for i, loc in enumerate(circuit.locations):
        kind = loc.kind
        if kind is OpKind.PREP_PLUS:
            frame.reset(loc.qubits[0])
        elif kind is OpKind.CPHASE:
            conjugate_through_cz(frame, *loc.qubits, policy=policy,
                                 stream=stream, location_id=loc.index)
        events = events_at.get(i, ())
        flip = False
        for ev in events:
            if kind is OpKind.MEASURE_X and EFFECTS[ev.error].flip:
                flip = not flip
            else:
                frame.inject(ev)
        if kind is OpKind.MEASURE_X:
            q = loc.qubits[0]
            was_leaked = bool(frame.leaked[q])
            bit = measure_x(frame, q, 0, flip, stream=stream,
                            location_id=loc.index)
            record.bits[loc.index] = bit
            record.leaked_random[loc.index] = was_leaked
        if lines is not None:
            fault_str = ",".join(f"{ev.qubit}:{ev.error.value}" for ev in events) or "-"
            lines.append(f"{loc.index}\t{kind.value} {' '.join(map(str, loc.qubits))}"
                         f"\tfaults={fault_str}\tframe={frame.digest()}")
    return RunResult(record, frame, lines)


# ---------------------------------------------------------------------------
# Packed batch runner
# ---------------------------------------------------------------------------

# Batch state is packed 64 trials to a word: trial j of a batch is bit
# j % 64 of word j // 64 of each row.  Words are read as bytes only through
# this little-endian view, so the layout does not depend on the host.
_WORD_BYTES = np.dtype("<u8")


def unpack_words(words: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` trials of packed rows (trials along the last axis) as
    booleans; the unused bits of the last word are dropped."""
    return np.unpackbits(words.astype(_WORD_BYTES, copy=False).view(np.uint8),
                         axis=-1, count=n, bitorder="little").view(bool)


class PackedRun(NamedTuple):
    """Trial-parallel run output as uint64 word rows [column, word], in the
    layout of :func:`unpack_words`; bits past the batch are zero."""

    outcome_bits: np.ndarray     # [M, W], rows in measure_locations order
    leaked_random: np.ndarray    # [M, W]
    frame_x: np.ndarray          # [N, W]
    frame_z: np.ndarray          # [N, W]
    frame_leaked: np.ndarray     # [N, W]


class BatchRunResult:
    """Trial-parallel run output for the span of B consecutive trials
    ``trials`` (a range): the packed rows ``words``, a :class:`PackedRun`.

    Each row of ``words`` is also an attribute of the same name, a boolean
    array indexed [column, trial]: ``outcome_bits`` and ``leaked_random``
    [M, B] (rows in ``meas_locations`` order) and ``frame_x``, ``frame_z``
    and ``frame_leaked`` [N, B].  An array is unpacked only when it is first
    read, so a reader of the words alone, such as
    :func:`~biasrep.montecarlo.classify_batch`, never holds a boolean
    [rows, B] array.
    """

    def __init__(self, trials: range, meas_locations: tuple[int, ...],
                 words: PackedRun):
        self.trials = trials
        self.meas_locations = meas_locations
        self.words = words

    def __getattr__(self, name: str) -> np.ndarray:
        # reached only for an array not unpacked yet
        if name not in PackedRun._fields:
            raise AttributeError(name)
        rows = unpack_words(getattr(self.words, name), len(self.trials))
        setattr(self, name, rows)
        return rows


# Sampled hits that run_circuit_batch applies at once, at most: their
# flattened arrays stay small and are freed before the next slice.
_HITS = 1 << 13


def _heads(words: np.ndarray, at: np.ndarray, seed: int, first: int,
           location: np.ndarray, qubit: np.ndarray, tag: int) -> np.ndarray:
    """The bits of ``words`` [rows, len(at)], the words ``at`` of some rows,
    whose keyed coin comes up heads (uniform below 1/2); row r's coins are
    addressed by (``first`` + batch position, ``location[r]``, ``qubit[r]``,
    ``tag``)."""
    heads = np.zeros_like(words)
    nonzero = np.flatnonzero(words)
    bits = np.flatnonzero(np.unpackbits(
        words.reshape(-1)[nonzero].astype(_WORD_BYTES, copy=False).view(np.uint8),
        bitorder="little"))
    if bits.size:
        row, col = np.divmod(nonzero[bits >> 6], words.shape[1])
        bit = bits & 63
        trial = (at[col] * 64 + bit).astype(np.uint64) + np.uint64(first)
        up = uniform_vector(seed, trial, location[row], qubit[row], tag) < 0.5
        np.bitwise_or.at(heads, (row[up], col[up]),
                         np.uint64(1) << bit[up].astype(np.uint64))
    return heads


def _apply_hits(state: np.ndarray, n: int, leaked_words: np.ndarray,
                leaky: bool, qubit: np.ndarray, pos: np.ndarray,
                first: np.ndarray, second: np.ndarray) -> bool:
    """Hits on the flat rows of ``state`` [rows * W], stacked as leak flags,
    x and z bits of the ``n`` qubits, then outcomes: hit i on qubit
    ``qubit[i]`` at batch position ``pos[i]`` XORs its bit into rows
    ``first[i]`` and ``second[i]`` (if not negative), or leaks the qubit
    when ``first[i]`` is its leak row.  ``second`` is only ever a z row
    (Y's, or the second qubit's of a pair draw).  Leaks go first, and each
    XOR is masked by the leak flag of its row's qubit: ``qubit[i]`` for
    ``first[i]``, and ``second[i] - 2n`` for ``second[i]``, so that a Pauli
    on a leaked qubit is dropped whichever of its location's hits leaked
    it (a masked outcome flip is drawn afresh anyway).  ``leaked_words``, a
    flag per word, is set for the words of new leaks.  ``leaky`` says
    whether any trial has leaked before; the return value, whether any has
    now."""
    W = leaked_words.size
    word = pos >> 6
    bit = np.uint64(1) << (pos & 63).astype(np.uint64)
    leak = (first < n).nonzero()[0]
    if leak.size:
        at, b = first[leak] * W + word[leak], bit[leak]
        np.bitwise_or.at(state, at, b)
        np.bitwise_and.at(state, at + n * W, ~b)
        np.bitwise_and.at(state, at + 2 * n * W, ~b)
        leaked_words[word[leak]] = True
        leaky = True
    two = (second >= 0).nonzero()[0]
    if two.size:
        at, b = second[two] * W + word[two], bit[two]
        if leaky:
            b &= ~state[at - 2 * n * W]
        np.bitwise_xor.at(state, at, b)
    if leaky:
        bit &= ~state[qubit * W + word]
    np.bitwise_xor.at(state, first * W + word, bit)
    return leaky


def _forced_hits(circuit: Circuit, plan: _HitPlan,
                 forced_faults: Sequence[Sequence[FaultEvent]]) -> list[np.ndarray]:
    """The events of each trial's list ``forced_faults[j]`` as hits for
    :func:`_apply_hits`, after :func:`_check_forced`: for each layer of
    ``plan.layers`` in turn, int32 rows (qubit, batch position j, first
    row, second row), in list order within a layer."""
    rows = _check_forced(circuit, plan, forced_faults)
    table = plan.at
    key = table[rows[:, 2], 2]
    rows = rows[np.argsort(key, kind="stable")]
    ends = np.cumsum(np.bincount(key, minlength=len(plan.layers))).tolist()
    del key
    q, _, at, kind = rows.T
    rows[:, 2], rows[:, 3] = _hit_rows(circuit.n_qubits, kind, q, table[at, 3])
    return [rows[a:b] for a, b in zip([0] + ends, ends)]


def run_circuit_batch(circuit: Circuit, rates: ErrorRateTable, seed: int,
                      trials: range | np.ndarray, *,
                      forced_faults: Sequence[Sequence[FaultEvent]] = (),
                      leak_policy: LeakPolicy | str = LeakPolicy.RANDOM_Z,
                      validate: bool = True) -> BatchRunResult:
    """Run a block of trials at once, 64 to a machine word, and return the
    packed rows as a :class:`BatchRunResult`.

    Per-trial results are bit-identical to :func:`run_circuit` because every
    random decision is keyed by its address, not by draw order: a fault
    draw by (seed, location, qubit) and the trial's absolute 64-trial word,
    a leak coin by (seed, trial, location, qubit, purpose).  Batch
    boundaries therefore never affect outcomes, and a coin that can matter
    only to leaked trials (the random Z on a leaked qubit's partner, the
    outcome of a leaked measurement) is drawn for those trials alone.
    ``trials`` is one span of trials, as :func:`~biasrep.streams.trial_span`
    takes it; anything else raises ``ValueError``.

    The circuit is stepped one ASAP layer (``plan.layers`` of its
    :class:`_HitPlan`) at a time: the layer's resets, its CPHASEs as one
    word operation, one keyed hash for the partner coins of its leaked
    qubits, its sampled hits and then its forced ones, by one scatter per
    ``_HITS`` of them (each hit one plan entry, a pair draw's acting on the
    z rows of both its qubits), and its measurements as one word operation
    with one keyed hash for leaked outcomes.  The sampled hits come from
    one walk of the fault draws,
    :func:`~biasrep.streams.fault_hits`, over the draws in layer order,
    which hands on each layer's hits, flat, once it has finished that
    layer's draws, so the draws are made as the layers need them and no
    hit array of the whole batch is held.  This gives the bits of time
    order: a layer's locations act on disjoint qubits, each update touches
    only its location's qubits and outcome row, the coins are keyed by
    address, and within one location Pauli faults commute and a leak
    absorbs whatever comes with it.  The leak bookkeeping of CPHASEs and
    measurements is done only in the words that have held a leaked trial,
    and none at all before the batch first leaks.

    ``forced_faults`` holds one event list per trial (or none).  Each event
    is a hit like a sampled one, held as int32 (qubit, batch position, and
    the two rows it acts on), and the hits are sorted stably by layer, so
    a location applies a trial's forced events in list order after its
    sampled faults, as run_circuit does.  Every event is checked before
    any work: one at a location the circuit lacks, on a qubit its location
    does not act on, or an outcome flip off a measurement raises
    ``ValueError``.  ``validate=False`` skips only a read of the circuit's
    cached ``violations``.
    """
    if validate:
        assert_valid(circuit)
    policy = LeakPolicy(leak_policy)
    first, B = trial_span(trials)
    trials = range(first, first + B)
    if forced_faults and len(forced_faults) != B:
        raise ValueError(f"{len(forced_faults)} forced-fault lists for {B} trials")
    plan = _hit_plan(circuit, rates)
    layers = plan.layers
    # each layer's forced hits, or none
    forced = (_forced_hits(circuit, plan, forced_faults) if forced_faults
              else [()] * len(layers))
    W = (B + 63) >> 6

    meas_locs = circuit.measure_locations
    N = circuit.n_qubits
    state = np.zeros((3 * N + len(meas_locs), W), dtype=np.uint64)
    flat = state.reshape(-1)
    frame = state[:3 * N].reshape(3, N, W)
    lk, x, z = frame
    out_bits = state[3 * N:]
    out_leakrand = np.zeros_like(out_bits)
    # whether each word has held a leaked trial (lk is zero in the others),
    # and whether any has
    leaked_words = np.zeros(W, dtype=bool)
    leaky = False

    hits = fault_hits(seed, trials, plan.draws, plan.layer_end)
    for layer, f in zip(layers, forced):
        if layer.prep.size:
            frame[:, layer.prep] = 0
        n = layer.cz_loc.size
        if n:
            # each CPHASE qubit's z takes its partner's x, both ways at once
            dst = layer.cz[::-1].reshape(-1)        # second qubits, then first
            z[dst] ^= x[layer.cz.reshape(-1)]
        if n and leaky:
            # a leaked qubit's x is zero, so only a leaked qubit's z took a
            # wrong bit; then the coin of a leaked qubit's normal partner
            w = np.flatnonzero(leaked_words)
            lz = lk[dst[:, None], w]
            zz = z[dst[:, None], w] & ~lz
            if policy is not LeakPolicy.NEVER_Z:
                m = np.concatenate([lz[n:], lz[:n]]) & ~lz  # partner leaked
                if policy is LeakPolicy.RANDOM_Z:
                    m = _heads(m, w, seed, first, np.tile(layer.cz_loc, 2),
                               dst, TAG_LEAK_CZ)
                zz ^= m
            z[dst[:, None], w] = zz
        d, pos, cls = next(hits)
        for a in range(0, d.size, _HITS):
            e = np.multiply(d[a:a + _HITS], plan.width, dtype=np.intp)
            e += cls[a:a + _HITS]
            leaky = _apply_hits(flat, N, leaked_words, leaky, plan.q[e],
                                pos[a:a + _HITS], plan.row1[e], plan.row2[e])
        del d, pos, cls
        for a in range(0, len(f), _HITS):
            leaky = _apply_hits(flat, N, leaked_words, leaky, *f[a:a + _HITS].T)
        q, r = layer.meas, layer.meas_row
        if q.size:
            out_bits[r] ^= z[q]
            if leaky:
                w = np.flatnonzero(leaked_words)
                lq = lk[q[:, None], w]
                out_bits[r[:, None], w] = (out_bits[r[:, None], w] & ~lq) | _heads(
                    lq, w, seed, first, layer.meas_loc, q, TAG_LEAK_OUTCOME)
                out_leakrand[r[:, None], w] = lq
            frame[:, q] = 0
    return BatchRunResult(trials, meas_locs,
                          PackedRun(out_bits, out_leakrand, x, z, lk))

