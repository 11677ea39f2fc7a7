"""Independent verification oracles for the test suite.

Nothing here shares code with the package's frame backend: the state-vector
simulator enumerates measurement branches exactly, the stabilizer tableau
implements the textbook binary-symplectic algorithm, the diamond-norm
maximizer does brute multistart optimization, and the dense channel
evaluator forms every reference-extended term as a full Kronecker product
where ``input_distance`` works on a factor.  These are the referees the
fast implementations are checked against.  The exceptions are
:func:`replay_oracle`, which propagates every fault pattern through the
package's scalar engine, and :func:`fault_effects_by_scalar_runs`, which
propagates every single fault through it; they are the references for the
linear enumeration in ``brute_force_oracle`` and for its batched
single-fault effects, not for the engine.  :func:`draw_faults` is a view
of the package's walk of the fault draws, its hits per draw: the spec
that the stream tests check the walk's pieces and the scalar engine's
draws against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

import numpy as np

from biasrep.gadgets import Circuit
from biasrep.montecarlo import OracleResult, fault_sites, run_trial
from biasrep.noise_model import ErrorRateTable, FaultEvent, OpKind, zero_rates
from biasrep.pauli_frame import LeakPolicy, run_circuit
from biasrep.streams import fault_hits

I2 = np.eye(2, dtype=complex)
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PAULIS = {"I": I2, "X": PX, "Y": PY, "Z": PZ}

KET0 = np.array([1, 0], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / math.sqrt(2)


def kron_all(*factors: np.ndarray) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for f in factors:
        out = np.kron(out, f)
    return out


def plus_logical(n: int) -> np.ndarray:
    return kron_all(*([KET_PLUS] * n))


def minus_logical(n: int) -> np.ndarray:
    return kron_all(*([KET_MINUS] * n))


def zero_logical(n: int) -> np.ndarray:
    return (plus_logical(n) + minus_logical(n)) / math.sqrt(2)


def one_logical(n: int) -> np.ndarray:
    return (plus_logical(n) - minus_logical(n)) / math.sqrt(2)


# ---------------------------------------------------------------------------
# Exact state-vector simulation with measurement-branch enumeration
# ---------------------------------------------------------------------------

def apply_1q(state: np.ndarray, n: int, q: int, gate: np.ndarray) -> np.ndarray:
    t = state.reshape([2] * n)
    t = np.tensordot(gate, t, axes=([1], [q]))
    return np.moveaxis(t, 0, q).reshape(-1)


def apply_cz(state: np.ndarray, n: int, q1: int, q2: int) -> np.ndarray:
    t = state.reshape([2] * n).copy()
    idx = [slice(None)] * n
    idx[q1] = 1
    idx[q2] = 1
    t[tuple(idx)] *= -1.0
    return t.reshape(-1)


def apply_pauli_string(state: np.ndarray, n: int,
                       paulis: dict[int, str]) -> np.ndarray:
    for q, p in paulis.items():
        state = apply_1q(state, n, q, PAULIS[p])
    return state


@dataclass
class Branch:
    probability: float
    outcomes: dict[int, int]     # measurement location id -> bit (1 means -1)
    state: np.ndarray            # normalized final vector


def run_statevector(circuit: Circuit, input_state: np.ndarray | None = None,
                    errors: dict[int, dict[int, str]] | None = None,
                    atol: float = 1e-12) -> list[Branch]:
    """Exact execution of a gadget circuit on concrete quantum states.

    ``input_state`` is the joint state of the input-block qubits, which must
    occupy the lowest indices (as the builders lay them out); all other
    qubits start in |0> and are rotated to |+> by their PREP.  ``errors``
    optionally injects Pauli strings after given location ids.  Every
    measurement branch with nonzero amplitude is explored; returned
    probabilities sum to one.
    """
    n = circuit.n_qubits
    input_qubits = [q for b in circuit.input_blocks for q in b.qubits]
    if input_state is None:
        state = kron_all(*([KET0] * n))
    else:
        m = len(input_qubits)
        assert sorted(input_qubits) == list(range(m)), \
            "input blocks must occupy the lowest qubit indices"
        assert input_state.shape == (2 ** m,)
        state = kron_all(input_state, *([KET0] * (n - m)))
    errors = errors or {}

    branches = [Branch(1.0, {}, state)]
    for loc in circuit.locations:
        next_branches: list[Branch] = []
        for br in branches:
            psi = br.state
            if loc.kind is OpKind.PREP_PLUS:
                psi = apply_1q(psi, n, loc.qubits[0], H2)
                variants = [(1.0, None, psi)]
            elif loc.kind is OpKind.CPHASE:
                psi = apply_cz(psi, n, *loc.qubits)
                variants = [(1.0, None, psi)]
            else:
                q = loc.qubits[0]
                variants = []
                for bit, sign in ((0, 1.0), (1, -1.0)):
                    proj = (psi + sign * apply_1q(psi, n, q, PX)) / 2.0
                    p = float(np.vdot(proj, proj).real)
                    if p > atol:
                        variants.append((p, bit, proj / math.sqrt(p)))
            for p, bit, new_state in variants:
                if loc.index in errors:
                    new_state = apply_pauli_string(new_state, n, errors[loc.index])
                outcomes = dict(br.outcomes)
                if bit is not None:
                    outcomes[loc.index] = bit
                next_branches.append(Branch(br.probability * p, outcomes,
                                            new_state))
        branches = next_branches
    assert abs(sum(b.probability for b in branches) - 1.0) < 1e-9
    return branches


def decode_corrections(circuit: Circuit,
                       outcomes: dict[int, int]) -> dict[str, dict[str, int]]:
    """Majority-decode a branch's outcomes into per-output-block correction
    bits, straight from the circuit's grouping metadata."""
    maj = {}
    for name, ids in circuit.groups.items():
        bits = [outcomes[i] for i in ids]
        maj[name] = int(sum(bits) * 2 > len(bits))
    corr = {b.name: {"X": 0, "Z": 0} for b in circuit.output_blocks}
    for c in circuit.corrections:
        bit = 0
        for src in c.sources:
            bit ^= maj[src]
        corr[c.block][c.pauli] ^= bit
    return corr


def apply_corrections(circuit: Circuit, state: np.ndarray,
                      corr: dict[str, dict[str, int]]) -> np.ndarray:
    """Physically apply recorded logical corrections: X on the block's first
    qubit, Z on every block qubit."""
    n = circuit.n_qubits
    for block in circuit.output_blocks:
        if corr[block.name]["X"]:
            state = apply_1q(state, n, block.qubits[0], PX)
        if corr[block.name]["Z"]:
            for q in block.qubits:
                state = apply_1q(state, n, q, PZ)
    return state


def reduced_state(state: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """Density matrix of the kept qubits (in the given order)."""
    perm = keep + [q for q in range(n) if q not in keep]
    t = state.reshape([2] * n).transpose(perm).reshape(2 ** len(keep), -1)
    return t @ t.conj().T


def state_fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    return float(np.real(target.conj() @ rho @ target))


# ---------------------------------------------------------------------------
# Stabilizer tableau (binary symplectic with sign tracking)
# ---------------------------------------------------------------------------

class Tableau:
    """Destabilizer/stabilizer tableau over n qubits, initial state |0...0>.

    Rows 0..n-1 are destabilizers, n..2n-1 stabilizers; r holds sign bits.
    """

    def __init__(self, n: int):
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=bool)
        for i in range(n):
            self.x[i, i] = True          # destabilizer X_i
            self.z[n + i, i] = True      # stabilizer Z_i

    # -- gates -------------------------------------------------------------

    def h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def cnot(self, c: int, t: int) -> None:
        self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ True)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cnot(a, b)
        self.h(b)

    def apply_pauli(self, xbits: np.ndarray, zbits: np.ndarray) -> None:
        """Conjugation by a Pauli flips the sign of anticommuting rows."""
        anti = np.zeros(2 * self.n, dtype=bool)
        for q in range(self.n):
            if xbits[q]:
                anti ^= self.z[:, q]
            if zbits[q]:
                anti ^= self.x[:, q]
        self.r ^= anti

    # -- row arithmetic ------------------------------------------------------

    @staticmethod
    def _g(x1, z1, x2, z2):
        """Phase exponent contribution of multiplying single-qubit Paulis."""
        out = np.zeros(x1.shape, dtype=np.int64)
        y1 = x1 & z1
        xo = x1 & ~z1
        zo = ~x1 & z1
        out += np.where(y1, z2.astype(np.int64) - x2.astype(np.int64), 0)
        out += np.where(xo, z2.astype(np.int64) * (2 * x2.astype(np.int64) - 1), 0)
        out += np.where(zo, x2.astype(np.int64) * (1 - 2 * z2.astype(np.int64)), 0)
        return out.sum()

    def _rowsum_into(self, hx, hz, hr, i: int, strict: bool = True):
        g = self._g(self.x[i], self.z[i], hx, hz)
        phase = (2 * int(self.r[i]) + 2 * int(hr) + g) % 4
        if strict:
            assert phase in (0, 2)
        hx ^= self.x[i]
        hz ^= self.z[i]
        return hx, hz, phase in (2, 3)

    def rowsum(self, h: int, i: int) -> None:
        # Destabilizer-row phases carry no meaning; skip the invariant there.
        self.x[h], self.z[h], self.r[h] = self._rowsum_into(
            self.x[h].copy(), self.z[h].copy(), self.r[h], i,
            strict=h >= self.n)

    # -- measurement ---------------------------------------------------------

    def measure_z(self, q: int, rng: np.random.Generator | None = None,
                  force: int | None = None) -> tuple[int, bool]:
        """Measure Z on qubit q; returns (outcome bit, was_random)."""
        n = self.n
        p = next((i for i in range(n, 2 * n) if self.x[i, q]), None)
        if p is not None:
            for i in range(2 * n):
                if i != p and self.x[i, q]:
                    self.rowsum(i, p)
            self.x[p - n] = self.x[p].copy()
            self.z[p - n] = self.z[p].copy()
            self.r[p - n] = self.r[p]
            self.x[p] = False
            self.z[p] = False
            self.z[p, q] = True
            if force is not None:
                bit = force
            elif rng is not None:
                bit = int(rng.integers(0, 2))
            else:
                bit = 0
            self.r[p] = bool(bit)
            return bit, True
        # Deterministic: accumulate stabilizer rows against a scratch row.
        hx = np.zeros(n, dtype=bool)
        hz = np.zeros(n, dtype=bool)
        hr = False
        for i in range(n):
            if self.x[i, q]:
                hx, hz, hr = self._rowsum_into(hx, hz, hr, i + n)
        return int(hr), False

    def measure_x(self, q: int, rng: np.random.Generator | None = None,
                  force: int | None = None) -> tuple[int, bool]:
        self.h(q)
        result = self.measure_z(q, rng, force)
        self.h(q)
        return result

    def expectation(self, pauli: dict[int, str]) -> int | None:
        """Expectation of a Pauli string: +1/-1 if it is (up to sign) in the
        stabilizer group, None if the outcome would be random."""
        xb = np.zeros(self.n, dtype=bool)
        zb = np.zeros(self.n, dtype=bool)
        for q, p in pauli.items():
            if p in ("X", "Y"):
                xb[q] = True
            if p in ("Z", "Y"):
                zb[q] = True
        n = self.n
        for i in range(n, 2 * n):
            anti = np.logical_xor.reduce(xb & self.z[i]) \
                ^ np.logical_xor.reduce(zb & self.x[i])
            if anti:
                return None
        hx = np.zeros(n, dtype=bool)
        hz = np.zeros(n, dtype=bool)
        hr = False
        for i in range(n):
            anti = np.logical_xor.reduce(xb & self.z[i]) \
                ^ np.logical_xor.reduce(zb & self.x[i])
            if anti:
                hx, hz, hr = self._rowsum_into(hx, hz, hr, i + n)
        assert np.array_equal(hx, xb) and np.array_equal(hz, zb), \
            "operator not reconstructible from stabilizers"
        return -1 if hr else 1

    def run_gadget(self, circuit: Circuit, offset: int,
                   rng: np.random.Generator | None = None,
                   force: int | None = None) -> dict[int, int]:
        """Execute a gadget circuit on qubits shifted by ``offset``; returns
        outcome bits by location id."""
        outcomes: dict[int, int] = {}
        for loc in circuit.locations:
            qs = [q + offset for q in loc.qubits]
            if loc.kind is OpKind.PREP_PLUS:
                # Fresh ancillas start in |0>; rotate to |+>.
                self.h(qs[0])
            elif loc.kind is OpKind.CPHASE:
                self.cz(qs[0], qs[1])
            else:
                bit, _ = self.measure_x(qs[0], rng=rng, force=force)
                outcomes[loc.index] = bit
        return outcomes


# ---------------------------------------------------------------------------
# Exact single-qubit diamond-norm maximization
# ---------------------------------------------------------------------------

def trace_norm_exact(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False).sum())


def input_distance_dense(channel, x: np.ndarray, ref_dim: int = 1) -> float:
    """|| (I_ref (x) E)(x) ||_tr from dense Kronecker products: every term
    sum_j s_j (I (x) A_j) x (I (x) B_j)^dagger is formed as a full matrix.
    A 1-D ``x`` is a ket v standing for |v><v|."""
    x = np.asarray(x, dtype=complex)
    if x.ndim == 1:
        x = np.outer(x, x.conj())
    eye = np.eye(ref_dim)
    out = np.zeros_like(x)
    for s, a, b in channel.terms:
        out += s * (np.kron(eye, a) @ x @ np.kron(eye, b).conj().T)
    return trace_norm_exact(out)


def diamond_norm_1q_exact(apply_map, restarts: int = 60, seed: int = 5,
                          polish: bool = True) -> float:
    """Maximize || (I (x) E)(psi) ||_tr over pure states on the doubled
    2 (x) 2 space by multistart local search; exact for these low-dim maps
    up to optimizer tolerance.

    ``apply_map`` takes and returns a 2x2 matrix.
    """
    from scipy.optimize import minimize

    def extended(rho4: np.ndarray) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                out[2 * i:2 * i + 2, 2 * j:2 * j + 2] = \
                    apply_map(rho4[2 * i:2 * i + 2, 2 * j:2 * j + 2])
        return out

    def value(params: np.ndarray) -> float:
        v = params[:4] + 1j * params[4:]
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            return 0.0
        v = v / norm
        return trace_norm_exact(extended(np.outer(v, v.conj())))

    rng = np.random.default_rng(seed)
    best = 0.0
    starts = [np.array([1, 0, 0, 0, 0, 0, 0, 0.0]),
              np.array([0, 1, 0, 0, 0, 0, 0, 0.0]),
              np.array([1, 1, 1, 1, 0, 0, 0, 0.0]),
              np.array([1, 0, 0, 1, 0, 0, 0, 0.0])]
    starts += [rng.standard_normal(8) for _ in range(restarts)]
    for s in starts:
        best = max(best, value(s))
        if polish:
            res = minimize(lambda p: -value(p), s, method="Nelder-Mead",
                           options={"maxiter": 400, "xatol": 1e-10,
                                    "fatol": 1e-13})
            best = max(best, -res.fun)
    return best


# ---------------------------------------------------------------------------
# The fault draws, per draw
# ---------------------------------------------------------------------------

def draw_faults(seed: int, trials: range | np.ndarray,
                draws: Sequence[tuple[int, int, Sequence[float]]]
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The hits of :func:`fault_hits` per draw: for each of ``draws``, the
    int32 batch positions of the trials of ``trials`` that draw a fault and
    the uint8 class index of each, in round order, then word order, not
    sorted.  It walks the draws with one cut, at the end, and sorts the hits
    stably by draw."""
    [(d, pos, cls)] = fault_hits(seed, trials, draws, [len(draws)])
    order = np.argsort(d, kind="stable")
    pos, cls = pos[order], cls[order]
    ends = np.cumsum(np.bincount(d, minlength=len(draws))).tolist()
    return [(pos[a:b], cls[a:b]) for a, b in zip([0, *ends], ends)]


# ---------------------------------------------------------------------------
# Fault enumeration, one scalar run per fault or pattern
# ---------------------------------------------------------------------------

def fault_effects_by_scalar_runs(circuit: Circuit,
                                  faults: list[FaultEvent]) -> np.ndarray:
    """``montecarlo._fault_effects`` one scalar run per fault: the outcome
    bits (in ``measure_locations`` order), output frame x bits and z bits
    of a run on the zero table under ``never-z`` with that fault forced, as
    the columns of a bool array [outcomes + 2 * qubits, faults]."""
    rows, zero = [], zero_rates()
    for fault in faults:
        run = run_circuit(circuit, zero, 0, forced_faults=[fault],
                          leak_policy=LeakPolicy.NEVER_Z, validate=False)
        rows.append([*(run.outcomes.bits[loc] for loc in circuit.measure_locations),
                     *run.frame.x, *run.frame.z])
    width = len(circuit.measure_locations) + 2 * circuit.n_qubits
    return np.array(rows, dtype=bool).reshape(-1, width).T


def replay_oracle(gadget: Circuit, rates: ErrorRateTable,
                  weight_max: int) -> OracleResult:
    """``brute_force_oracle`` without the linearity premise: every pattern
    of weight <= weight_max is propagated through ``run_trial`` with its
    faults forced, and its weight and the sums are formed pattern by
    pattern in enumeration order."""
    sites = fault_sites(gadget, rates)
    L = len(sites)
    zero = zero_rates()
    survival_all = 1.0
    for s in sites:
        survival_all *= 1.0 - s.total
    by_z = [0.0] * (weight_max + 1)
    by_x = [0.0] * (weight_max + 1)
    cnt_z = [0] * (weight_max + 1)
    cnt_x = [0] * (weight_max + 1)
    prob_either = 0.0
    patterns_run = 0
    for w in range(1, weight_max + 1):
        for combo in combinations(range(L), w):
            chosen = [sites[i] for i in combo]
            for picks in product(*(s.choices for s in chosen)):
                weight = survival_all
                events = []
                for site, (kind, p) in zip(chosen, picks):
                    weight *= p / (1.0 - site.total)
                    events.append(FaultEvent(site.location_id, site.qubit, kind))
                trial = run_trial(gadget, zero, 0, 0, forced_faults=events,
                                  leak_policy=LeakPolicy.NEVER_Z)
                patterns_run += 1
                if trial.logical_z_error:
                    by_z[w] += weight
                    cnt_z[w] += 1
                if trial.logical_x_error:
                    by_x[w] += weight
                    cnt_x[w] += 1
                if trial.logical_z_error or trial.logical_x_error:
                    prob_either += weight
    p_max = max((s.total for s in sites), default=0.0)
    remainder = math.comb(L, weight_max + 1) * p_max**(weight_max + 1) \
        if L > weight_max else 0.0
    return OracleResult(weight_max, L, sum(by_z), sum(by_x), prob_either,
                        tuple(by_z), tuple(by_x), tuple(cnt_z), tuple(cnt_x),
                        remainder, patterns_run)
