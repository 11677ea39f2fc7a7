import math

import numpy as np
import pytest

from biasrep.bounds import (BiasPoint, cnot_bound, logical_other_bound,
                            logical_phase_bound, optimize_nk, sweep)
from biasrep.gadgets import build_logical_cnot
from biasrep.montecarlo import estimate_logical_rates
from biasrep.noise_model import default_rates


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
