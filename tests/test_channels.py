import math

import numpy as np
import pytest

from biasrep.channels import (IQ, KET_BELL, SZQ, ClassifiedKraus, KrausSet,
                              PairMap, amplitude_damping, apply_channel,
                              bell_phi0, builtin_cphase_kraus,
                              builtin_cphase_kraus_set, canonical_inputs,
                              diamond_lower_bound, golden_section_min,
                              input_distance, kraus_from_json, kraus_to_json,
                              ket, prep_error_rates, projector,
                              split_channel, trace_norm, two_qubit,
                              KET_A, KET_P0, KET_PLUS_T, I2, SZ)

from oracles import (diamond_norm_1q_exact, input_distance_dense,
                     trace_norm_exact)


def random_pair_map(dim: int, rng: np.random.Generator,
                    terms: int = 4) -> PairMap:
    """Signed operator-pair map whose terms have independent A_j != B_j."""
    def op():
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return PairMap(tuple((float(rng.standard_normal()), op(), op())
                         for _ in range(terms)), dim)


class TestApplyChannel:
    def test_identity_kraus(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(apply_channel([np.eye(4)], x), x)

    def test_z_on_plus(self):
        plus = projector(np.array([1, 1], dtype=complex) / math.sqrt(2))
        minus = projector(np.array([1, -1], dtype=complex) / math.sqrt(2))
        assert np.allclose(apply_channel([SZ], plus), minus)

    def test_full_decay(self):
        ad = amplitude_damping(1.0)
        rho1 = projector(np.array([0, 1], dtype=complex))
        rho0 = projector(np.array([1, 0], dtype=complex))
        assert np.allclose(apply_channel(ad.kraus.operators, rho1), rho0,
                           atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel([np.eye(2)], np.eye(4))


class TestTraceNorm:
    def test_pauli_z(self):
        assert trace_norm(SZ) == pytest.approx(2.0)

    def test_zero_matrix(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_density_matrix(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = projector(v / np.linalg.norm(v))
        assert trace_norm(rho) == pytest.approx(1.0)

    def test_norm_axioms_on_random_matrices(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            s = rng.standard_normal()
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9
            assert trace_norm(s * a) == pytest.approx(abs(s) * trace_norm(a))
            assert trace_norm(a) > 0


class TestInputDistance:
    def test_zero_map(self):
        zero = PairMap.zero(4)
        assert input_distance(zero, bell_phi0()[:4, :4] * 0 + np.eye(4) / 4) == 0.0

    def test_difference_of_identical_maps(self):
        m = PairMap.from_kraus([SZ])
        diff = m - m
        rho = projector(np.array([1, 1], dtype=complex) / math.sqrt(2))
        assert input_distance(diff, rho) == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_search_bound(self):
        cks = builtin_cphase_kraus()
        parts = split_channel(cks)
        single = input_distance(parts.e_phase, bell_phi0())
        best = diamond_lower_bound(parts.e_phase,
                                   list(canonical_inputs(16)) + [(bell_phi0(), 1)])
        assert single <= best + 1e-15


class TestFactoredInputDistance:
    KINDS = ("ket", "mixed", "non-hermitian")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_matches_dense_kronecker_reference(self, dim, extended, kind):
        ref_dim = dim if extended else 1
        rng = np.random.default_rng([dim, ref_dim, self.KINDS.index(kind)])
        channel = random_pair_map(dim, rng)
        big = ref_dim * dim
        g = rng.standard_normal((big, big)) + 1j * rng.standard_normal((big, big))
        if kind == "ket":
            x = g[0] / np.linalg.norm(g[0])
        elif kind == "mixed":
            x = g @ g.conj().T
            x /= np.trace(x).real
        else:
            x = g / trace_norm_exact(g)
        assert input_distance(channel, x, ref_dim) == pytest.approx(
            input_distance_dense(channel, x, ref_dim), rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("qubit", [None, "A", "B"])
    def test_builtin_probes_match_dense_reference(self, qubit):
        e_phase = split_channel(builtin_cphase_kraus(), resolve=qubit).e_phase
        probes = canonical_inputs(16) + [(KET_BELL, 1), (bell_phi0(), 1)]
        for x, ref_dim in probes:
            assert input_distance(e_phase, x, ref_dim) == pytest.approx(
                input_distance_dense(e_phase, x, ref_dim), rel=1e-10, abs=1e-14)

    def test_ket_and_its_projector_agree(self):
        rng = np.random.default_rng(4)
        channel = random_pair_map(4, rng)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v /= np.linalg.norm(v)
        assert input_distance(channel, v, 4) == pytest.approx(
            input_distance(channel, projector(v), 4), rel=1e-10)


class TestPairMapArithmetic:
    def test_identical_pairs_merge(self):
        m = PairMap.from_kraus([SZ, I2])
        assert [s for s, _, _ in (m + m).terms] == [2.0, 2.0]
        assert (m - m).terms == ()
        assert input_distance(m - m, projector(KET_P0)) == 0.0

    def test_distinct_pairs_kept(self):
        m = PairMap(((1.0, SZ, I2), (1.0, I2, SZ)), 2)
        assert len((m + PairMap.zero(2)).terms) == 2

    def test_zero_operators_dropped(self):
        # the identity parts of three of the four builtin Kraus operators
        # are zero
        e_phase = split_channel(builtin_cphase_kraus()).e_phase
        assert len(e_phase.terms) == 5
        assert all(a.any() and b.any() for _, a, b in e_phase.terms)

    @pytest.mark.parametrize("qubit", [None, "A", "B"])
    def test_builtin_non_phase_parts_exactly_zero(self, qubit):
        parts = split_channel(builtin_cphase_kraus(), resolve=qubit)
        for part in (parts.e_other, parts.e_leak):
            assert part.terms == ()
            assert diamond_lower_bound(part, random_restarts=2) == 0.0
        assert parts.decomposition_error() <= 1e-15


class TestDephasingDifferenceMap:
    def test_analytic_one_qubit_value(self):
        # E(X) = p (Z X Z - X): trace distance 2p, maximized at |+>
        p = 0.37
        emap = PairMap(((p, SZ, SZ), (-p, I2, I2)), 2)
        plus = projector(np.array([1, 1], dtype=complex) / math.sqrt(2))
        assert input_distance(emap, plus) == pytest.approx(2 * p)
        bound = diamond_lower_bound(emap, random_restarts=16, seed=3)
        assert bound == pytest.approx(2 * p, rel=1e-6)

    def test_exact_oracle_agrees(self):
        p = 0.11
        emap = PairMap(((p, SZ, SZ), (-p, I2, I2)), 2)
        exact = diamond_norm_1q_exact(
            lambda rho: p * (SZ @ rho @ SZ - rho), restarts=20)
        assert exact == pytest.approx(2 * p, rel=1e-5)
        assert diamond_lower_bound(emap) <= exact + 1e-9


class TestBuiltinKraus:
    def test_identity_coefficient_magnitude(self):
        cks = builtin_cphase_kraus()
        assert abs(cks[0].identity_scalar()) == pytest.approx(0.9981)
        for ck in cks[1:]:
            assert ck.identity_scalar() == 0

    def test_published_diagonal_coefficient(self):
        # the I (x) Z coefficient of the first operator's diagonal part
        cks = builtin_cphase_kraus()
        iz = two_qubit(IQ, SZQ)
        coeff = np.trace(iz @ cks[0].diagonal) / 16
        assert coeff == pytest.approx(1.5e-4, rel=1e-9)

    def test_second_operator_coefficients(self):
        cks = builtin_cphase_kraus()
        for op, expected in ((two_qubit(IQ, SZQ), 5.2e-2),
                             (two_qubit(SZQ, IQ), 9e-3),
                             (two_qubit(SZQ, SZQ), -7e-3)):
            coeff = np.trace(op @ cks[1].diagonal) / 16
            assert coeff == pytest.approx(expected, rel=1e-9)

    def test_completeness_defect_small(self):
        defect = builtin_cphase_kraus_set().completeness_defect()
        assert 0 < defect < 1e-2

    def test_kraus_set_rejects_overcomplete(self):
        with pytest.raises(ValueError):
            KrausSet((np.eye(2), np.eye(2)))


class TestSplitChannel:
    def test_zero_error_parts(self):
        ck = ClassifiedKraus.build(4, identity=np.eye(4))
        parts = split_channel([ck])
        rho = np.eye(4) / 4
        for part in (parts.e_phase, parts.e_other, parts.e_leak):
            assert np.allclose(part(rho), 0.0, atol=1e-15)
        assert parts.ihat_coeff == pytest.approx(1.0)

    def test_decomposition_identity(self):
        parts = split_channel(builtin_cphase_kraus())
        assert parts.decomposition_error() < 1e-9

    def test_bell_phase_norm(self):
        parts = split_channel(builtin_cphase_kraus())
        value = input_distance(parts.e_phase, bell_phi0())
        assert value == pytest.approx(4.73e-3, rel=0.15)

    def test_qubit_resolved_norms(self):
        cks = builtin_cphase_kraus()
        bell = bell_phi0()
        value_a = input_distance(split_channel(cks, resolve="A").e_phase, bell)
        value_b = input_distance(split_channel(cks, resolve="B").e_phase, bell)
        assert value_a == pytest.approx(1.96e-3, rel=0.15)
        assert value_b == pytest.approx(4.6e-3, rel=0.15)
        # the B qubit is unparked more deeply and is noisier
        assert value_b > value_a

    def test_resolved_decomposition_still_exact(self):
        for q in ("A", "B"):
            parts = split_channel(builtin_cphase_kraus(), resolve=q)
            assert parts.decomposition_error() < 1e-9

    def test_unpublished_parts_are_zero_maps(self):
        parts = split_channel(builtin_cphase_kraus())
        rho = bell_phi0()
        assert trace_norm(parts.e_other(rho)) == pytest.approx(0.0, abs=1e-15)
        assert trace_norm(parts.e_leak(rho)) == pytest.approx(0.0, abs=1e-15)

    def test_json_round_trip(self):
        cks = builtin_cphase_kraus()
        back = kraus_from_json(kraus_to_json(cks))
        for a, b in zip(cks, back):
            assert np.allclose(a.total, b.total, atol=1e-12)
        parts = split_channel(back)
        assert input_distance(parts.e_phase, bell_phi0()) == pytest.approx(
            4.73e-3, rel=0.15)

    @pytest.mark.parametrize("excess, accepted", [(0.0, True), (1e-7, True),
                                                  (1e-5, False), (8.0, False)])
    def test_json_completeness_enforced(self, excess, accepted):
        # one operator sqrt(1 + excess) * I: sum M^dagger M = (1 + excess) I
        doc = kraus_to_json([ClassifiedKraus.build(
            4, identity=math.sqrt(1.0 + excess) * np.eye(4))])
        if accepted:
            assert len(kraus_from_json(doc)) == 1
        else:
            with pytest.raises(ValueError, match="completeness violated"):
                kraus_from_json(doc)

    def test_unclassified_tags_rejected(self):
        doc = kraus_to_json(builtin_cphase_kraus())
        broken = doc.replace('"diagonal"', '"mystery"', 1)
        with pytest.raises(ValueError, match="unclassified"):
            kraus_from_json(broken)


class TestAmplitudeDamping:
    def test_gamma_zero(self):
        ad = amplitude_damping(0.0)
        assert np.allclose(ad.kraus.operators[0], np.eye(2))
        assert np.allclose(ad.kraus.operators[1], 0.0)
        assert ad.other_rate == 0.0
        assert ad.phase_rate == pytest.approx(0.0, abs=1e-12)

    def test_other_rate_exact(self):
        for gamma in (3.5e-6, 1e-3, 0.2):
            assert amplitude_damping(gamma).other_rate == pytest.approx(
                gamma, rel=1e-12)

    @pytest.mark.parametrize("gamma", [1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9])
    def test_completeness(self, gamma):
        ad = amplitude_damping(gamma)
        gram = sum(m.conj().T @ m for m in ad.kraus.operators)
        assert np.abs(gram - np.eye(2)).max() < 1e-12

    def test_phase_rate_near_half_gamma(self):
        gamma = 1e-2
        ad = amplitude_damping(gamma)
        assert ad.phase_rate == pytest.approx(gamma / 2, rel=0.2)

    def test_phase_rate_against_exact_oracle(self):
        gamma = 1e-2
        ad = amplitude_damping(gamma, random_restarts=24, seed=8)
        s = math.sqrt(1 - gamma)
        m0 = ((1 + s) / 2) * I2 + ((1 - s) / 2) * SZ
        c = (1 + s) ** 2 / 4
        exact = diamond_norm_1q_exact(lambda rho: m0 @ rho @ m0.conj().T
                                      - c * rho, restarts=24)
        assert ad.phase_rate <= exact + 1e-9
        assert ad.phase_rate == pytest.approx(exact, rel=0.05)

    def test_bell_input_is_optimal_for_dephasing_difference(self):
        # for pure dephasing-difference maps the maximally entangled input
        # attains the diamond norm: random search never beats it
        for p in (0.03, 0.17, 0.4):
            emap = PairMap(((p, SZ, SZ), (-p, I2, I2)), 2)
            bell = canonical_inputs(2)[-1]
            bell_value = input_distance(emap, bell[0], bell[1])
            searched = diamond_lower_bound(emap, random_restarts=64, seed=12)
            assert searched <= bell_value + 1e-9

    def test_computational_input_slightly_beats_bell_for_damping(self):
        # the damping phase map is not a pure dephasing difference: the |0>
        # probe attains (1-c) > the Bell value, and the canonical search
        # picks that up
        gamma = 0.05
        s = math.sqrt(1 - gamma)
        m0 = ((1 + s) / 2) * I2 + ((1 - s) / 2) * SZ
        c = (1 + s) ** 2 / 4
        emap = PairMap(((1.0, m0, m0), (-c, I2, I2)), 2)
        bell = canonical_inputs(2)[-1]
        bell_value = input_distance(emap, bell[0], bell[1])
        searched = diamond_lower_bound(emap, random_restarts=64, seed=12)
        assert searched == pytest.approx(1 - c, rel=1e-9)
        assert searched >= bell_value

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            amplitude_damping(-0.1)
        with pytest.raises(ValueError):
            amplitude_damping(1.1)


class TestPrepErrorRates:
    def test_ideal_preparation(self):
        rates = prep_error_rates(projector(KET_PLUS_T))
        assert rates.eps == pytest.approx(0.0, abs=1e-8)
        assert rates.eps_leak == pytest.approx(0.0, abs=1e-12)

    def test_dephasing_mixture_against_grid_oracle(self):
        # rho = (1-p) |+~><+~| + p Z |+~><+~| Z, checked against a direct
        # 2x2 trace-norm minimization over a fine grid of c values
        p = 0.1
        zq = SZQ
        plus = projector(KET_PLUS_T)
        rho = (1 - p) * plus + p * (zq @ plus @ zq)
        rates = prep_error_rates(rho)

        def grid_min():
            best = np.inf
            for c in np.linspace(0.0, 1.0, 20001):
                best = min(best, trace_norm(rho - c * plus))
            return best

        expected = grid_min()
        assert rates.eps == pytest.approx(expected, abs=1e-6)
        assert rates.eps == pytest.approx(p, abs=1e-6)
        assert rates.eps_leak == pytest.approx(0.0, abs=1e-12)

    def test_leak_weight_reported_exactly(self):
        q = 0.07
        leaked = projector(ket(KET_A, KET_P0))
        rho = (1 - q) * projector(KET_PLUS_T) + q * leaked
        rates = prep_error_rates(rho)
        assert rates.eps_leak == pytest.approx(q, abs=1e-12)

    def test_non_density_rejected(self):
        with pytest.raises(ValueError):
            prep_error_rates(np.eye(4))        # trace 4
        with pytest.raises(ValueError):
            prep_error_rates(np.diag([1.5, -0.5, 0, 0]).astype(complex))

    def test_golden_section_finds_quadratic_minimum(self):
        x, fx = golden_section_min(lambda c: (c - 0.3) ** 2 + 1.0, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-7)
        assert fx == pytest.approx(1.0, abs=1e-12)


class TestCanonicalInputs:
    def test_shapes_and_trace_norms(self):
        for state, ref_dim in canonical_inputs(4):
            assert trace_norm(state) == pytest.approx(1.0)
            assert state.shape[0] in (4, 16)
            assert ref_dim in (1, 4)
