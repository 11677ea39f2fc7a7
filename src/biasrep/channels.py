"""Superoperator toolkit: Kraus sets, trace and diamond norms, the
identity/phase/other/leakage channel decomposition, amplitude damping, and
preparation-state error rates.

Single-qubit operators live on the 4-dimensional space

    H = H_flux (x) H_trans

spanned by the two circulating-current states {|L>, |R>} and the 0/1-photon
resonator states.  Computational states keep the flux factor in the
symmetric state |S> = (|L> + |R>)/sqrt(2); any amplitude orthogonal to |S>
is leakage.  Two-qubit CPHASE operators act on the 16-dimensional tensor
product.

Channels that are differences of completely positive maps are represented
as signed operator-pair sums E(X) = sum_j s_j A_j X B_j^dagger, which keeps
the decomposition algebra exact.  A probe's reference-extended output is
never formed as a matrix, only as a factor (see :func:`input_distance`).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Pauli and basis constants -------------------------------------------------

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

KET_L = np.array([1, 0], dtype=complex)
KET_R = np.array([0, 1], dtype=complex)
KET_S = (KET_L + KET_R) / math.sqrt(2)         # symmetric flux state
KET_A = (KET_L - KET_R) / math.sqrt(2)         # leaked flux state

KET_P0 = np.array([1, 0], dtype=complex)       # 0-photon
KET_P1 = np.array([0, 1], dtype=complex)       # 1-photon


def kron(*ops: np.ndarray) -> np.ndarray:
    return functools.reduce(np.kron, ops, np.array([[1.0 + 0j]]))


def ket(*factors: np.ndarray) -> np.ndarray:
    return functools.reduce(np.kron, factors, np.array([1.0 + 0j]))


def projector(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


# Computational basis of one 4-dim qubit: |i~> = |S> (x) |i_p>.
KET_0T = ket(KET_S, KET_P0)
KET_1T = ket(KET_S, KET_P1)
KET_PLUS_T = (KET_0T + KET_1T) / math.sqrt(2)

# Single-qubit operators on the 4-dim space (identity on the flux factor).
IQ = kron(I2, I2)
SZQ = kron(I2, SZ)
SXQ = kron(I2, SX)


def two_qubit(op_a: np.ndarray, op_b: np.ndarray) -> np.ndarray:
    return np.kron(op_a, op_b)


# (|0~ 0~> + |1~ 1~>)/sqrt(2) on the 16-dim two-qubit space, the worst-case
# phase-noise input.
KET_BELL = (ket(KET_0T, KET_0T) + ket(KET_1T, KET_1T)) / math.sqrt(2)


def bell_phi0() -> np.ndarray:
    """Density matrix of :data:`KET_BELL`."""
    return projector(KET_BELL)


# ---------------------------------------------------------------------------
# Norms and channel application
# ---------------------------------------------------------------------------

def apply_channel(kraus: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Kraus-sum action sum_k M_k X M_k^dagger."""
    return PairMap.from_kraus(kraus)(x)


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values; a 1-D ket v stands for |v><v|."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        return float(np.vdot(a, a).real)
    return float(np.linalg.svd(a, compute_uv=False).sum())


@dataclass(frozen=True)
class PairMap:
    """Signed operator-pair superoperator E(X) = sum_j s_j A_j X B_j^dagger."""

    terms: tuple[tuple[float, np.ndarray, np.ndarray], ...]
    dim: int

    @classmethod
    def from_kraus(cls, kraus: Sequence[np.ndarray]) -> "PairMap":
        ops = [np.asarray(m, dtype=complex) for m in kraus]
        if not ops:
            raise ValueError("empty Kraus list")
        dim = ops[0].shape[0]
        return cls(tuple((1.0, m, m) for m in ops), dim)

    @classmethod
    def zero(cls, dim: int) -> "PairMap":
        return cls((), dim)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for s, a, b in self.terms:
            out += s * (a @ x @ b.conj().T)
        return out

    def __add__(self, other: "PairMap") -> "PairMap":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        merged: list[list] = []
        for s, a, b in self.terms + other.terms:
            for term in merged:
                if np.array_equal(term[1], a) and np.array_equal(term[2], b):
                    term[0] += s
                    break
            else:
                merged.append([s, a, b])
        return PairMap(tuple((s, a, b) for s, a, b in merged
                             if s != 0 and a.any() and b.any()), self.dim)

    def __sub__(self, other: "PairMap") -> "PairMap":
        return self + PairMap(tuple((-s, a, b) for s, a, b in other.terms),
                              other.dim)


def input_distance(channel: PairMap, x: np.ndarray, ref_dim: int = 1) -> float:
    """|| (I_ref (x) E)(x) ||_tr, a lower bound on the diamond norm when x
    has unit trace norm.  A 1-D ``x`` is a ket v standing for |v><v|; a 2-D
    ``x`` is factored once by SVD, x = sum_i sigma_i p_i q_i^dagger.

    The output is U diag(c) W^dagger with D-row columns u = (I (x) A_j) p_i
    = vec(P A_j^T) for P = p reshaped to (ref_dim, dim), w likewise from
    B_j and q_i, and c = s_j sigma_i.  With W = Q R its trace norm is that
    of the D x (terms * rank) factor U diag(c) R^dagger."""
    if not channel.terms:
        return 0.0
    x = np.asarray(x, dtype=complex)
    if x.ndim == 1:
        left = right = x
        sigma = np.ones(1)
    else:
        left, sigma, right = np.linalg.svd(x)
        right = right.conj().T
    signs, a_ops, b_ops = (np.array(t) for t in zip(*channel.terms))

    def columns(ops: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        # (I (x) op_j) vecs_i as a D x (terms * rank) matrix, term-major
        out = ops[:, None] @ vecs.reshape(ref_dim, channel.dim, -1)
        return out.transpose(1, 2, 0, 3).reshape(len(x), -1)

    r = np.linalg.qr(columns(b_ops, right), mode="r")
    weights = np.outer(signs, sigma).ravel()
    return trace_norm((columns(a_ops, left) * weights) @ r.conj().T)


def canonical_inputs(dim: int) -> list[tuple[np.ndarray, int]]:
    """Standard probe kets as (state, ref_dim) pairs: computational basis
    states, the uniform superposition, and the maximally entangled state on
    the doubled space."""
    eye = np.eye(dim, dtype=complex)
    return [(v, 1) for v in eye] + [
        (np.full(dim, 1 / math.sqrt(dim), dtype=complex), 1),
        (eye.ravel() / math.sqrt(dim), dim)]


def diamond_lower_bound(channel: PairMap,
                        inputs: Iterable[tuple[np.ndarray, int]] | None = None,
                        random_restarts: int = 0, seed: int = 0) -> float:
    """Heuristic diamond-norm estimate: the maximum of
    :func:`input_distance` over the supplied inputs (by default the
    canonical probes, plus the Bell input :data:`KET_BELL` on the 16-dim
    two-qubit space) and optionally over random pure states on the doubled
    space.  Always a lower bound on the true diamond norm."""
    if inputs is None:
        probes = canonical_inputs(channel.dim)
        if channel.dim == 16:
            probes.append((KET_BELL, 1))
    else:
        probes = list(inputs)
    rng = np.random.default_rng(seed)
    d2 = channel.dim * channel.dim
    for _ in range(random_restarts):
        v = rng.standard_normal(d2) + 1j * rng.standard_normal(d2)
        probes.append((v / np.linalg.norm(v), channel.dim))
    return max((input_distance(channel, x, ref_dim) for x, ref_dim in probes),
               default=0.0)


# ---------------------------------------------------------------------------
# Classified Kraus sets and the channel decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassifiedKraus:
    """One Kraus operator given as a sum of a scalar-identity part, a
    computational-basis-diagonal part, a non-diagonal part, and a part that
    moves amplitude out of the computational (symmetric-flux) subspace."""

    identity: np.ndarray
    diagonal: np.ndarray
    nondiagonal: np.ndarray
    leakage: np.ndarray

    @classmethod
    def build(cls, dim: int, identity=None, diagonal=None, nondiagonal=None,
              leakage=None) -> "ClassifiedKraus":
        zero = np.zeros((dim, dim), dtype=complex)
        return cls(*(zero if x is None else np.asarray(x, dtype=complex)
                     for x in (identity, diagonal, nondiagonal, leakage)))

    @property
    def dim(self) -> int:
        return self.identity.shape[0]

    @property
    def total(self) -> np.ndarray:
        return self.identity + self.diagonal + self.nondiagonal + self.leakage

    def identity_scalar(self) -> complex:
        """The scalar c with identity part c*I; rejects non-proportional data."""
        c = self.identity[0, 0]
        if not np.allclose(self.identity, c * np.eye(self.dim), atol=1e-12):
            raise ValueError("identity part is not proportional to the identity")
        return complex(c)


@dataclass(frozen=True)
class KrausSet:
    """A (possibly truncated) Kraus representation.  Construction enforces
    sum_k M_k^dagger M_k <= I up to ``tol``; truncated published data sits
    strictly below the identity, with the shortfall reported by
    :meth:`completeness_defect`."""

    operators: tuple[np.ndarray, ...]
    tol: float = 1e-6

    def __post_init__(self):
        if not self.operators:
            raise ValueError("empty Kraus list")
        gram = self.gram()
        excess = np.linalg.eigvalsh(gram).max() - 1.0
        if excess > self.tol:
            raise ValueError(f"Kraus completeness violated by {excess:.3e}")

    def gram(self) -> np.ndarray:
        return sum(m.conj().T @ m for m in self.operators)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def completeness_defect(self) -> float:
        return float(np.linalg.norm(self.gram() - np.eye(self.dim), 2))


@dataclass(frozen=True)
class ChannelParts:
    """Decomposition of a noise channel into a trace-decreasing identity
    part and phase / other / leakage error channels, with
    ihat + e_phase + e_other + e_leak == full exactly."""

    ihat: PairMap
    e_phase: PairMap
    e_other: PairMap
    e_leak: PairMap
    full: PairMap
    ihat_coeff: float | None = None

    def decomposition_error(self) -> float:
        """Largest deviation of (ihat + e_phase + e_other + e_leak)(X) from
        the full channel over four random pure-state probes X (seed 7)."""
        dim = self.full.dim
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(4):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            x = projector(v / np.linalg.norm(v))
            recomposed = self.ihat(x) + self.e_phase(x) + self.e_other(x) \
                + self.e_leak(x)
            worst = max(worst, float(np.abs(recomposed - self.full(x)).max()))
        return worst


def _diagonal_component_on(part: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Project a matrix onto the span of one Hermitian-unitary operator."""
    dim = part.shape[0]
    coeff = np.trace(op.conj().T @ part) / dim
    return coeff * op


def split_channel(classified: Sequence[ClassifiedKraus],
                  resolve: str | None = None) -> ChannelParts:
    """Successively peel the channel sum_k M_k X M_k^dagger into leakage,
    non-diagonal, and phase error channels plus the identity part.

    With ``resolve`` set to ``"A"`` or ``"B"``, the phase part keeps only
    the terms that act nontrivially on that qubit: the diagonal components
    proportional to the *other* qubit's Z are absorbed into the identity
    part, so ``e_phase`` becomes the single-qubit phase-error channel.
    """
    if not classified:
        raise ValueError("empty Kraus list")
    dim = classified[0].dim
    full = PairMap.from_kraus([ck.total for ck in classified])
    upto_nd = PairMap.from_kraus([ck.identity + ck.diagonal + ck.nondiagonal
                                  for ck in classified])
    upto_d = PairMap.from_kraus([ck.identity + ck.diagonal for ck in classified])
    e_leak = full - upto_nd
    e_other = upto_nd - upto_d

    if resolve is None:
        ident = PairMap.from_kraus([ck.identity for ck in classified])
        e_phase = upto_d - ident
        coeff = sum(abs(ck.identity_scalar()) ** 2 for ck in classified)
        return ChannelParts(ident, e_phase, e_other, e_leak, full, coeff)

    if resolve not in ("A", "B"):
        raise ValueError("resolve must be None, 'A', or 'B'")
    if dim != 16:
        raise ValueError("qubit-resolved split needs the 16-dim two-qubit space")
    # Diagonal terms trivial on the resolved qubit: I^A (x) Z^B when
    # resolving A, Z^A (x) I^B when resolving B.
    trivial_op = two_qubit(IQ, SZQ) if resolve == "A" else two_qubit(SZQ, IQ)
    ident_ops = []
    for ck in classified:
        trivial_part = _diagonal_component_on(ck.diagonal, trivial_op)
        ident_ops.append(ck.identity + trivial_part)
    ident = PairMap.from_kraus(ident_ops)
    e_phase = upto_d - ident
    return ChannelParts(ident, e_phase, e_other, e_leak, full, None)


# ---------------------------------------------------------------------------
# Published CPHASE Kraus data
# ---------------------------------------------------------------------------

def builtin_cphase_kraus() -> list[ClassifiedKraus]:
    """The four significant Kraus operators of the dephasing channel
    accompanying the CPHASE gate, as published to the quoted precision.

    Only the identity scalar and the computational-basis-diagonal parts are
    public; the non-diagonal and leakage parts (norms of order 1e-7 and
    1e-6) are represented as zero, leaving a completeness defect below 1e-2.
    """
    iz = two_qubit(IQ, SZQ)
    zi = two_qubit(SZQ, IQ)
    zz = two_qubit(SZQ, SZQ)
    ii = two_qubit(IQ, IQ)

    def diag(a: complex, b: complex, c: complex) -> np.ndarray:
        return a * iz + b * zi + c * zz

    k0 = ClassifiedKraus.build(
        16,
        identity=0.9981 * np.exp(1j * 1.2743) * ii,
        diagonal=diag(1.5e-4, (1 + 3.5j) * 1e-4, -(1.2 + 4.4j) * 1e-4))
    k1 = ClassifiedKraus.build(16, diagonal=diag(5.2e-2, 9e-3, -7e-3))
    k2 = ClassifiedKraus.build(16, diagonal=diag(1.8e-3, 1e-2, 4.6e-4))
    k3 = ClassifiedKraus.build(16, diagonal=diag(1e-4, 0.0, (7.4 - 1j) * 1e-4))
    return [k0, k1, k2, k3]


def builtin_cphase_kraus_set() -> KrausSet:
    return KrausSet(tuple(ck.total for ck in builtin_cphase_kraus()))


# ---------------------------------------------------------------------------
# Amplitude damping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeDamping:
    gamma: float
    kraus: KrausSet
    other_rate: float       # exact: operator norm of M1^dagger M1
    phase_rate: float       # heuristic diamond bound of the M0 map minus c*Id
    ihat_coeff: float


def amplitude_damping(gamma: float, random_restarts: int = 8,
                      seed: int = 0) -> AmplitudeDamping:
    """Relaxation channel with decay probability gamma on one qubit.

        M0 = ((1 + sqrt(1-gamma))/2) I + ((1 - sqrt(1-gamma))/2) Z
        M1 = (sqrt(gamma)/2) X (I - Z)

    The non-phase error rate is the diamond norm of X -> M1 X M1^dagger,
    which equals gamma exactly.  The phase rate is the diamond bound of
    X -> M0 X M0^dagger - c X at c = (1 + sqrt(1-gamma))^2 / 4, roughly
    gamma/2.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma={gamma} outside [0, 1]")
    s = math.sqrt(1.0 - gamma)
    m0 = ((1 + s) / 2) * I2 + ((1 - s) / 2) * SZ
    m1 = (math.sqrt(gamma) / 2) * (SX @ (I2 - SZ))
    kraus = KrausSet((m0, m1), tol=1e-9)

    other = float(np.linalg.eigvalsh(m1.conj().T @ m1).max())
    c = (1 + s) ** 2 / 4
    ident = PairMap(((c, I2, I2),), 2)
    phase_map = PairMap.from_kraus([m0]) - ident
    phase = diamond_lower_bound(phase_map, random_restarts=random_restarts,
                                seed=seed)
    return AmplitudeDamping(gamma, kraus, other, phase, c)


# ---------------------------------------------------------------------------
# Preparation error rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrepRates:
    eps: float
    eps_leak: float
    c_opt: float


def golden_section_min(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimization of a unimodal function on [lo, hi], to a
    bracket of width 1e-9."""
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > 1e-9:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fn(x2)
    x = (a + b) / 2
    return x, fn(x)


def prep_error_rates(rho: np.ndarray) -> PrepRates:
    """Phase and leakage error rates of a noisy |+> preparation.

    ``rho`` is a density matrix on the 4-dim single-qubit space.  The
    leakage rate is the trace norm of the component outside the
    symmetric-flux subspace; the phase rate is the trace-norm distance of
    the in-subspace component from the best sub-normalized ideal state,
    min over c in [0, 1] of || rho_d - c |+~><+~| ||_tr (golden-section
    search to 1e-9).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=1e-9):
        raise ValueError("input is not Hermitian")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -1e-9 or abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("input is not a density matrix")
    ideal_proj = projector(KET_PLUS_T)

    p_sym = kron(projector(KET_S), I2)
    rho_d = p_sym @ rho @ p_sym
    eps_leak = trace_norm(rho - rho_d)

    def distance(cc: float) -> float:
        return trace_norm(rho_d - cc * ideal_proj)

    c_opt, eps = golden_section_min(distance, 0.0, 1.0)
    return PrepRates(eps, eps_leak, c_opt)


# ---------------------------------------------------------------------------
# JSON serialization of classified Kraus sets
# ---------------------------------------------------------------------------

_PART_TAGS = ("identity", "diagonal", "nondiagonal", "leakage")


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _matrix_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def kraus_to_json(classified: Sequence[ClassifiedKraus]) -> str:
    ops = []
    for ck in classified:
        entry = {}
        for tag in _PART_TAGS:
            part = getattr(ck, tag)
            if np.any(part):
                entry[tag] = _matrix_to_json(part)
        ops.append(entry)
    return json.dumps({"dim": classified[0].dim, "operators": ops})


def kraus_from_json(text: str) -> list[ClassifiedKraus]:
    doc = json.loads(text)
    dim = int(doc["dim"])
    out = []
    for entry in doc["operators"]:
        parts = {tag: _matrix_from_json(entry[tag]) for tag in entry}
        unknown = set(parts) - set(_PART_TAGS)
        if unknown:
            raise ValueError(f"unclassified Kraus terms: {sorted(unknown)}")
        out.append(ClassifiedKraus.build(dim, **parts))
    KrausSet(tuple(ck.total for ck in out))     # sum M^dagger M <= I
    return out
