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
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .gadgets import Circuit, assert_valid
from .noise_model import (EFFECTS, Effect, ErrorRateTable, FaultEvent, OpKind,
                          trial_faults)
from .streams import (TAG_LEAK_CZ, TAG_LEAK_OUTCOME, FaultStream, draw_faults,
                      uniform_vector)


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


def _check_forced(circuit: Circuit, events: Iterable[tuple[int, int]]) -> None:
    """Reject a forced fault, given as (location id, qubit), at a location
    the circuit does not have (no location would apply it) or on a qubit
    that location does not act on."""
    qubits = {loc.index: loc.qubits for loc in circuit.locations}
    for location, q in events:
        if location not in qubits:
            raise ValueError(f"forced fault at location {location}, "
                             "which the circuit does not have")
        if q not in qubits[location]:
            raise ValueError(f"forced fault on qubit {q} at location "
                             f"{location}, which acts on {qubits[location]}")


def run_circuit(circuit: Circuit, rates: ErrorRateTable, seed: int, *,
                trial: int = 0, forced_faults: Sequence[FaultEvent] = (),
                leak_policy: LeakPolicy | str = LeakPolicy.RANDOM_Z,
                trace: bool = False, validate: bool = True) -> RunResult:
    """Single-trial frame propagation through a circuit.

    Iterates locations in time order: gate action first (frame conjugation
    for CPHASE), then sampled faults plus any forced faults for that
    location.  Deterministic given (seed, trial): the trial's fault draws
    are read from one :func:`~biasrep.streams.draw_faults` call over the
    circuit's sites, the same draws :func:`run_circuit_batch` makes.  A
    forced fault at a location the circuit lacks, or on a qubit its
    location does not act on, raises ``ValueError``.  ``validate=False``
    skips only a read of the circuit's cached ``violations``.
    """
    if validate:
        assert_valid(circuit)
    policy = LeakPolicy(leak_policy)
    stream = FaultStream(seed, trial)
    frame = PauliFrame(circuit.n_qubits)
    record = OutcomeRecord()
    lines: list[str] | None = [] if trace else None
    if forced_faults:
        _check_forced(circuit, ((ev.location_id, ev.qubit) for ev in forced_faults))
    # each location's sampled events, then its forced ones
    events_at: dict[int, list[FaultEvent]] = {}
    sampled = trial_faults([s for sites in rates.sites(circuit) for s in sites],
                           seed, trial)
    for ev in chain(sampled, forced_faults):
        events_at.setdefault(ev.location_id, []).append(ev)

    for loc in circuit.locations:
        kind = loc.kind
        if kind is OpKind.PREP_PLUS:
            frame.reset(loc.qubits[0])
        elif kind is OpKind.CPHASE:
            conjugate_through_cz(frame, *loc.qubits, policy=policy,
                                 stream=stream, location_id=loc.index)
        events = events_at.get(loc.index, ())
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

# Bytes of forced-fault word masks that run_circuit_batch holds at once.
_FORCED_BYTES = 1 << 20


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
    """Trial-parallel run output for the uint64 trial indices ``trials``
    [B]: the packed rows ``words``, a :class:`PackedRun`.

    Each row of ``words`` is also an attribute of the same name, a boolean
    array indexed [column, trial]: ``outcome_bits`` and ``leaked_random``
    [M, B] (rows in ``meas_locations`` order) and ``frame_x``, ``frame_z``
    and ``frame_leaked`` [N, B].  An array is unpacked only when it is first
    read, so a reader of the words alone, such as
    :func:`~biasrep.montecarlo.classify_batch`, never holds a boolean
    [rows, B] array.
    """

    def __init__(self, trials: np.ndarray, meas_locations: tuple[int, ...],
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


def run_circuit_batch(circuit: Circuit, rates: ErrorRateTable, seed: int,
                      trials: np.ndarray, *,
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
    outcome of a leaked measurement) is drawn for those trials alone; until
    the first leak of the batch, leak bookkeeping is skipped altogether.
    Gates, resets and measurement are word operations; the trials a keyed
    draw selects are set into a word mask.  Every fault draw is made first,
    by :func:`~biasrep.streams.draw_faults`, and the location loop then
    applies the hits.  ``trials`` may hold any trial indices, repeated or
    in any order.

    ``forced_faults`` holds one event list per trial (or none); a location
    applies them after its sampled faults, in list order, as run_circuit does.
    Trials forced alike share one word mask.  The masks are set in time
    order, by one scatter per ``_FORCED_BYTES`` of them, so however many
    groups there are, that much is held at a time.  A forced event at a
    location the circuit lacks, or on a qubit its location does not act on,
    raises ``ValueError``.  ``validate=False`` skips only a read of the
    circuit's cached ``violations``.
    """
    if validate:
        assert_valid(circuit)
    policy = LeakPolicy(leak_policy)
    trials = np.asarray(trials, dtype=np.uint64)
    B = trials.shape[0]
    if forced_faults and len(forced_faults) != B:
        raise ValueError(f"{len(forced_faults)} forced-fault lists for {B} trials")
    # location -> (rank in a trial's list, qubit, class) -> trials, each once
    by_loc: dict[int, dict] = {}
    for j, events in enumerate(forced_faults):
        for r, ev in enumerate(events):
            by_loc.setdefault(ev.location_id, {}).setdefault(
                (r, ev.qubit, ev.error), []).append(j)
    if by_loc:
        _check_forced(circuit, ((loc, q) for loc, groups in by_loc.items()
                                for _, q, _ in groups))
    # location -> [(group, qubit, class)] in rank order, groups numbered in
    # time order; group g's trials are members[g]
    forced: dict[int, list] = {}
    members: list[list[int]] = []
    for loc in circuit.locations:
        for (_, q, cls), t in sorted(by_loc.get(loc.index, {}).items()):
            forced.setdefault(loc.index, []).append((len(members), q, cls))
            members.append(t)
    W = (B + 63) >> 6
    # masks holds the word masks of groups [first, first + len(masks)); the
    # location loop reads the groups in order, so each is set only once
    per_scatter = max(1, _FORCED_BYTES // (8 * max(W, 1)))
    first, masks = 0, np.zeros((0, W), dtype=np.uint64)

    def forced_mask(g: int) -> np.ndarray:
        nonlocal first, masks
        if g >= first + len(masks):
            first, rows = g, members[g:g + per_scatter]
            masks = np.zeros((len(rows), W), dtype=np.uint64)
            pos = np.fromiter(chain.from_iterable(rows), dtype=np.intp)
            group = np.repeat(np.arange(len(rows)), [len(t) for t in rows])
            np.bitwise_or.at(masks, (group, pos >> 6),
                             np.uint64(1) << (pos & 63).astype(np.uint64))
        return masks[g - first]

    # Draw phase: every fault draw of the batch, made before the frame rows
    # are allocated, so that the draws' working memory is free again for them
    table = rates.sites(circuit)
    hits = iter(draw_faults(seed, trials, [
        (s.location_id, s.qubit, s.row.thresholds) for sites in table for s in sites]))
    meas_locs = circuit.measure_locations
    row_of = {loc: i for i, loc in enumerate(meas_locs)}
    x, z, lk = np.zeros((3, circuit.n_qubits, W), dtype=np.uint64)
    out_bits, out_leakrand = np.zeros((2, len(meas_locs), W), dtype=np.uint64)

    def mask(pos: np.ndarray) -> np.ndarray:
        """The word row with the bits at batch positions ``pos`` set."""
        m = np.zeros(W, dtype=np.uint64)
        pos = np.asarray(pos, dtype=np.intp)
        np.bitwise_or.at(m, pos >> 6, np.uint64(1) << (pos & 63).astype(np.uint64))
        return m

    def heads(m: np.ndarray, location: int, q: int, tag: int) -> np.ndarray:
        """The trials of ``m`` whose keyed coin at (location, q, tag) comes
        up heads (uniform below 1/2)."""
        words = np.flatnonzero(m)
        if not words.size:
            return m
        bits = np.flatnonzero(unpack_words(m[words], 64 * words.size))
        idx = words[bits >> 6] * 64 + (bits & 63)     # ascending positions
        return mask(idx[uniform_vector(seed, trials[idx], location, q, tag) < 0.5])

    # Whether any trial has leaked yet.  Until then lk is all zero, so the
    # leak bookkeeping (masking by lk, partner coins, leaked measurements)
    # changes nothing and is skipped.
    leaky = False

    def apply(effect: Effect, q: int, m: np.ndarray, bit: np.ndarray | None) -> None:
        """A fault on qubit q in the trials of ``m``."""
        nonlocal leaky
        if leaky:
            m = m & ~lk[q]
        if effect.x:
            x[q] ^= m
        if effect.z:
            z[q] ^= m
        if effect.leak:
            leaky = True
            lk[q] |= m
            x[q] &= ~m
            z[q] &= ~m
        if effect.flip:
            if bit is None:
                raise ValueError("an outcome flip needs a measurement location")
            bit ^= m

    for loc, sites in zip(circuit.locations, table):
        kind = loc.kind
        bit = None
        if kind is OpKind.PREP_PLUS:
            q = loc.qubits[0]
            x[q] = z[q] = lk[q] = 0
        elif kind is OpKind.CPHASE:
            q1, q2 = loc.qubits
            x1, x2 = x[q1], x[q2]
            if leaky:
                ok = ~(lk[q1] | lk[q2])
                x1, x2 = x1 & ok, x2 & ok
            z[q2] ^= x1
            z[q1] ^= x2
            if leaky and policy is not LeakPolicy.NEVER_Z:
                for leaked_q, normal_q in ((q1, q2), (q2, q1)):
                    # trials where leaked_q is leaked and normal_q is not
                    m = lk[leaked_q] & ~lk[normal_q]
                    if policy is LeakPolicy.RANDOM_Z:
                        m = heads(m, loc.index, normal_q, TAG_LEAK_CZ)
                    z[normal_q] ^= m
        else:
            bit = out_bits[row_of[loc.index]]
        for site in sites:
            hit, which = next(hits)
            for i, cls in enumerate(site.row.classes):
                drawn = hit[which == i]
                if drawn.size:
                    m = mask(drawn)
                    for q in site.targets:
                        apply(EFFECTS[cls], q, m, bit)
        for g, q, cls in forced.get(loc.index, ()):
            apply(EFFECTS[cls], q, forced_mask(g), bit)
        if kind is OpKind.MEASURE_X:
            q = loc.qubits[0]
            bit ^= z[q]
            if leaky:
                bit &= ~lk[q]
                bit |= heads(lk[q], loc.index, q, TAG_LEAK_OUTCOME)
                out_leakrand[row_of[loc.index]] = lk[q]
            x[q] = z[q] = lk[q] = 0
    return BatchRunResult(trials, meas_locs,
                          PackedRun(out_bits, out_leakrand, x, z, lk))
