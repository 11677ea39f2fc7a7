import math

import numpy as np
import pytest

from biasrep.bounds import (MAX_SIZE, BiasPoint, OptimizeResult,
                            ParameterError, cnot_bound, logical_other_bound,
                            logical_phase_bound, optimize_nk, sweep)
from biasrep.gadgets import build_logical_cnot
from biasrep.montecarlo import estimate_logical_rates
from biasrep.noise_model import (ErrorRateTable, OpKind, Rates, Species,
                                 default_rates)


class TestClosedForms:
    def test_phase_bound_direct_value(self):
        assert logical_phase_bound(7, 1.0, 0.05) == pytest.approx(
            35 * 0.05 ** 4, rel=1e-12)
        assert logical_phase_bound(7, 1.0, 0.05) == pytest.approx(2.1875e-4)

    def test_phase_bound_zero(self):
        for n in (1, 3, 9):
            assert logical_phase_bound(n, 2.0, 0.0) == 0.0

    def test_phase_bound_rejects_even_n(self):
        with pytest.raises(ValueError):
            logical_phase_bound(4, 1.0, 0.01)

    def test_other_bound_values(self):
        assert logical_other_bound(7, 1.0, 5e-5) == pytest.approx(3.5e-4)
        assert logical_other_bound(1, 1.0, 0.123) == pytest.approx(0.123)
        assert logical_other_bound(9, 3.0, 0.0) == 0.0

    def test_break_even_point(self):
        # n=7 at t*eps = 0.05 and bias 1e3 brings both rates under 3.5e-4
        eps_L = logical_phase_bound(7, 1.0, 0.05)
        epsp_L = logical_other_bound(7, 1.0, 0.05 / 1e3)
        assert eps_L < 3.5e-4 + 1e-6
        assert epsp_L < 3.5e-4 + 1e-6

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_log_slope_exact(self, n):
        # d log(phase bound) / d log(eps) is exactly (n+1)/2
        lo, hi = 1e-3, 1e-3 * 1.01
        slope = (math.log(logical_phase_bound(n, 2.0, hi))
                 - math.log(logical_phase_bound(n, 2.0, lo))) \
            / (math.log(hi) - math.log(lo))
        assert slope == pytest.approx((n + 1) / 2, rel=1e-9)


class TestCnotBound:
    def test_unencoded_case(self):
        report = cnot_bound(BiasPoint(eps=0.01, bias=10.0, n=1, k=1, c=1.0))
        assert report.eps_L == pytest.approx(0.01)
        assert report.epsp_L == pytest.approx(0.001)
        assert report.total == pytest.approx(0.011)

    def test_break_even_total(self):
        report = cnot_bound(BiasPoint(eps=0.05, bias=1e3, n=7, k=1, t=1.0))
        assert report.total < 7e-4

    def test_t_defaults_to_ck(self):
        report = cnot_bound(BiasPoint(eps=1e-3, bias=1e3, n=3, k=5, c=2.0))
        assert report.t == 10.0

    def test_table_mode_near_reported_optimum(self):
        # the per-species accounting lands within a factor of 3 of the
        # reported (5, 7) rates; exact closed forms are out of scope
        report = cnot_bound(BiasPoint(0.0, 1.0, 5, 7, c=3.0),
                            table=default_rates())
        assert 4.62e-3 / 3 <= report.eps_L <= 4.62e-3 * 3
        assert 3.98e-3 / 3 <= report.epsp_L <= 3.98e-3 * 3

    def test_table_mode_parts_sum(self):
        report = cnot_bound(BiasPoint(0.0, 1.0, 3, 3, c=3.0),
                            table=default_rates())
        assert report.eps_L == pytest.approx(
            report.parts["blocks"] + report.parts["ancilla_spread"])
        assert report.epsp_L == pytest.approx(
            report.parts["data_other"] + report.parts["ancilla_majority"])

    def test_odd_parameters_enforced(self):
        with pytest.raises(ValueError):
            BiasPoint(1e-3, 1e3, 4, 3)
        with pytest.raises(ValueError):
            BiasPoint(1e-3, -1.0, 3, 3)

    @pytest.mark.parametrize("c", [-3.0, 0.0, math.nan, math.inf])
    def test_step_constant_checked_like_gadget_params(self, c):
        with pytest.raises(ValueError, match="c must be finite and positive"):
            BiasPoint(1e-3, 1e3, 3, 3, c=c)

    @pytest.mark.parametrize("t", [-2.0, math.nan, math.inf])
    def test_pinned_steps_finite_and_non_negative(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            BiasPoint(1e-3, 1e3, 3, 3, t=t)
        assert BiasPoint(1e-3, 1e3, 3, 3, t=0.0).steps == 0.0


class TestOptimizer:
    def test_zero_noise_prefers_no_encoding(self):
        result = optimize_nk(eps=0.0, bias=1e3, c=3.0, n_max=13,
                             constraint="free")
        assert (result.n, result.k) == (1, 1)
        assert result.total == 0.0

    def test_free_search_with_table_prefers_more_repetitions(self):
        # ancillas are the noisier species, so k* exceeds n*
        result = optimize_nk(table=default_rates(), c=3.0, n_max=13,
                             constraint="free")
        assert result.k > result.n

    def test_free_search_reproduces_reported_choice(self):
        result = optimize_nk(table=default_rates(), c=3.0, n_max=13,
                             constraint="free")
        assert (result.n, result.k) == (5, 7)

    def test_curve_monotone_in_eps(self):
        rows = sweep(np.geomspace(1e-4, 3e-3, 10), [1e3], c=3.0, n_max=21)
        totals = [r.total for _, _, r in rows]
        assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_optimal_n_monotone_in_eps(self):
        # grid evaluation of the bound family: the optimal block size grows
        # with the physical phase rate (the linear non-phase term dominates
        # as eps shrinks, favoring small blocks)
        rows = sweep(np.geomspace(1e-4, 3e-3, 10), [1e3], c=3.0, n_max=21)
        ns = [r.n for _, _, r in rows]
        assert all(a <= b for a, b in zip(ns, ns[1:]))
        assert ns[0] < ns[-1]

    def test_higher_bias_gives_lower_totals(self):
        lo = optimize_nk(eps=1e-3, bias=1e3, c=3.0, n_max=21)
        hi = optimize_nk(eps=1e-3, bias=1e4, c=3.0, n_max=21)
        assert hi.total < lo.total

    def test_result_stable_under_larger_search_window(self):
        a = optimize_nk(table=default_rates(), c=3.0, n_max=13,
                        constraint="free")
        b = optimize_nk(table=default_rates(), c=3.0, n_max=17,
                        constraint="free")
        assert (a.n, a.k) == (b.n, b.k)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            optimize_nk(eps=1e-3, bias=1e3, n_max=4)
        with pytest.raises(ValueError):
            optimize_nk(eps=1e-3, bias=1e3, constraint="diagonal")
        with pytest.raises(ValueError):
            optimize_nk()
        with pytest.raises(ValueError, match="c must be"):
            optimize_nk(table=default_rates(), c=-3.0)


class TestBoundDominatesSimulation:
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (3, 1), (3, 3), (3, 5),
                                     (5, 3), (5, 5)])
    def test_monte_carlo_below_bound(self, n, k):
        table = default_rates()
        report = cnot_bound(BiasPoint(0.0, 1.0, n, k, c=3.0), table=table)
        gadget = build_logical_cnot(n, k)
        eps, epsp = estimate_logical_rates(gadget, table, 150_000, seed=60 + n)
        assert eps.mean <= report.eps_L + 3 * eps.stderr, (n, k)
        assert epsp.mean <= report.epsp_L + 3 * epsp.stderr, (n, k)

    def test_reported_optimum_point_at_million_trials(self):
        table = default_rates()
        report = cnot_bound(BiasPoint(0.0, 1.0, 5, 7, c=3.0), table=table)
        gadget = build_logical_cnot(5, 7)
        eps, epsp = estimate_logical_rates(gadget, table, 1_000_000, seed=71)
        assert 0 < eps.mean <= report.eps_L + 3 * eps.stderr
        assert 0 < epsp.mean <= report.epsp_L + 3 * epsp.stderr


def exhaustive_optimum(eps, bias, c, n_max, constraint, table=None):
    """The optimizer's answer by brute force through the public bound: every
    odd (n, k) scored by cnot_bound, the least (max, total, n, k) kept."""
    ns = range(1, n_max + 1, 2)
    reports = [cnot_bound(BiasPoint(eps, bias, n, k, c), table)
               for n in ns for k in ((n,) if constraint == "n=k" else ns)]
    return min(reports, key=lambda r: (max(r.eps_L, r.epsp_L), r.total,
                                       r.n, r.k))


def random_table(rng) -> ErrorRateTable:
    """A valid table with log-uniform rates (some zero), measurement rows
    holding eps alone."""
    def rate(lo):
        return 0.0 if rng.random() < 0.15 else float(10 ** rng.uniform(lo, -1.5))
    entries = {}
    for sp in Species:
        for kind in (OpKind.PREP_PLUS, OpKind.CPHASE):
            entries[(kind, sp)] = Rates(rate(-4), rate(-8), rate(-8))
        entries[(OpKind.MEASURE_X, sp)] = Rates(rate(-4))
    table = ErrorRateTable(entries=entries)
    table.validate()
    return table


def k_tie_table() -> ErrorRateTable:
    """A table whose phase bound ignores k (no data CPHASE noise, no ancilla
    non-phase noise) and dominates the other bound, so every k at the best n
    ties on max(eps_L, epsp_L); the ancilla majority term then makes the
    largest k the one with the least total."""
    table = ErrorRateTable(entries={
        (OpKind.CPHASE, Species.A): Rates(),
        (OpKind.CPHASE, Species.B): Rates(1e-4),
        (OpKind.PREP_PLUS, Species.A): Rates(0.1),
        (OpKind.PREP_PLUS, Species.B): Rates(1e-4),
        (OpKind.MEASURE_X, Species.A): Rates(0.1),
        (OpKind.MEASURE_X, Species.B): Rates(1e-4)})
    table.validate()
    return table


class TestOptimizerEqualsExhaustiveSearch:
    """optimize_nk scores candidates without building a BiasPoint or a
    BoundReport for each; its answer must be the exhaustive search's through
    the public cnot_bound, report and parts included."""

    @staticmethod
    def check(eps, bias, c, n_max, constraint, table=None):
        got = optimize_nk(eps, bias, c, n_max, constraint, table)
        want = exhaustive_optimum(0.0 if eps is None else eps,
                                  1.0 if bias is None else bias,
                                  c, n_max, constraint, table)
        assert got == OptimizeResult(want.n, want.k, want.eps_L, want.epsp_L,
                                     want.total)
        assert (got.total, got.report) == (want.total, want)
        assert repr(got.report.parts) == repr(want.parts)
        return got

    @pytest.mark.parametrize("constraint", ["n=k", "free"])
    @pytest.mark.parametrize("bias", [1.0, 10.0, 1e3, 1e4, math.inf])
    def test_closed_forms_on_a_geomspace_grid(self, constraint, bias):
        for eps in np.geomspace(1e-5, 1e-1, 17):   # np.float64, as in sweeps
            self.check(eps, bias, 3.0, 15, constraint)

    @pytest.mark.parametrize("constraint", ["n=k", "free"])
    def test_zero_eps_ties_everywhere(self, constraint):
        got = self.check(0.0, 1e3, 3.0, 13, constraint)
        assert (got.n, got.k, got.total) == (1, 1, 0.0)

    @pytest.mark.parametrize("constraint", ["n=k", "free"])
    def test_random_points(self, constraint):
        rng = np.random.default_rng(11)
        for _ in range(40):
            eps = float(10 ** rng.uniform(-6, 0))
            bias = float(10 ** rng.uniform(0, 6))
            c = float(rng.uniform(0.5, 4.0))
            self.check(eps, bias, c, int(rng.choice([1, 3, 9, 15, 21])),
                       constraint)

    @pytest.mark.parametrize("constraint", ["n=k", "free"])
    def test_random_rate_tables(self, constraint):
        rng = np.random.default_rng(12)
        for _ in range(30):
            self.check(None, None, float(rng.uniform(1.0, 4.0)),
                       int(rng.choice([3, 9, 15])), constraint,
                       random_table(rng))

    @pytest.mark.parametrize("constraint", ["n=k", "free"])
    def test_default_table(self, constraint):
        for n_max in (13, 15, 21):
            self.check(None, None, 3.0, n_max, constraint, default_rates())

    def test_ties_on_the_maximum_go_to_the_least_total(self):
        got = self.check(None, None, 3.0, 3, "free", k_tie_table())
        first_k = cnot_bound(BiasPoint(0.0, 1.0, got.n, 1), k_tie_table())
        assert (got.n, got.k) == (3, 3)
        assert max(first_k.eps_L, first_k.epsp_L) == max(got.eps_L, got.epsp_L)
        assert first_k.total > got.total

    @pytest.mark.parametrize("constraint", ["n=k", "free"])
    def test_sweep_rows(self, constraint):
        grid = np.geomspace(1e-4, 1e-2, 9)
        rows = sweep(grid, [10.0, 1e3, math.inf], c=2.5, n_max=11,
                     constraint=constraint)
        assert [(eps, bias) for eps, bias, _ in rows] == [
            (eps, bias) for bias in (10.0, 1e3, math.inf) for eps in grid]
        for eps, bias, result in rows:
            want = exhaustive_optimum(eps, bias, 2.5, 11, constraint)
            assert (result.n, result.k, result.eps_L, result.epsp_L,
                    result.total) == (want.n, want.k, want.eps_L,
                                      want.epsp_L, want.total)


class TestBoundRanges:
    """Rates outside [0, 1] and sizes whose bound overflows a float are
    refused with the parameter that caused them."""

    @pytest.mark.parametrize("eps", [1.5, math.inf, math.nan, -1e-3])
    def test_eps_is_a_probability(self, eps):
        with pytest.raises(ParameterError, match=r"eps must be in \[0, 1\]") as exc:
            BiasPoint(eps, 1e3, 5, 1)
        assert exc.value.name == "eps"
        with pytest.raises(ParameterError, match=r"eps must be in \[0, 1\]"):
            optimize_nk(eps, 1e3)

    def test_eps_one_is_allowed(self):
        assert cnot_bound(BiasPoint(1.0, 1e3, 1, 1, c=0.1)).eps_L == \
            pytest.approx(0.1)

    def test_largest_sizes(self):
        assert MAX_SIZE == 1029
        assert math.isfinite(float(math.comb(MAX_SIZE, (MAX_SIZE + 1) // 2)))
        with pytest.raises(OverflowError):
            float(math.comb(MAX_SIZE + 2, (MAX_SIZE + 3) // 2))
        assert cnot_bound(BiasPoint(1e-9, 1e3, MAX_SIZE, 1)).eps_L < 1

    @pytest.mark.parametrize("call,name", [
        (lambda: BiasPoint(1e-3, 1e3, 2001, 1), "n"),
        (lambda: cnot_bound(BiasPoint(0.0, 1.0, 5, 2001), default_rates()), "k"),
        (lambda: optimize_nk(table=default_rates(), n_max=2049), "n_max"),
        (lambda: optimize_nk(1e-3, 1e3, n_max=1031), "n_max")])
    def test_sizes_beyond_a_float(self, call, name):
        with pytest.raises(ParameterError, match=f"{name} must be <= 1029") as exc:
            call()
        assert exc.value.name == name

    @pytest.mark.parametrize("call,name", [
        (lambda: cnot_bound(BiasPoint(1e-3, 1e3, 5, 1, t=1e300)), "t"),
        (lambda: cnot_bound(BiasPoint(1e-3, 1e3, 5, 1, c=1e200)), "c"),
        (lambda: cnot_bound(BiasPoint(0.0, 1.0, 301, 1029), default_rates()), "k"),
        (lambda: optimize_nk(1e-3, 1e3, c=1e200), "c"),
        (lambda: optimize_nk(table=default_rates(), c=1e200), "c")])
    def test_overflowing_bound(self, call, name):
        with pytest.raises(ParameterError, match="overflows a float") as exc:
            call()
        assert exc.value.name == name

    @pytest.mark.parametrize("constraint", ["n=k", "free"])
    def test_numpy_float_inputs_overflow_as_floats(self, constraint):
        grid = np.geomspace(1e-4, 1e-2, 3)
        with pytest.raises(ParameterError, match="overflows a float") as exc:
            sweep(grid, [np.float64(1e3)], c=np.float64(1e200),
                  constraint=constraint)
        assert exc.value.name == "c"
        assert sweep(grid, [np.float64(1e3)], constraint=constraint) == \
            sweep([float(e) for e in grid], [1e3], constraint=constraint)
