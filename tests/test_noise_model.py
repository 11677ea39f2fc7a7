import json
import math

import numpy as np
import pytest

from biasrep.gadgets import build_logical_cnot, build_teleport_identity
from biasrep.noise_model import (ErrorRateTable, FaultEvent, FaultKind,
                                 OpKind, Rates, Species, compose_rates,
                                 default_rates, fault_class_counts,
                                 sample_faults, zero_rates)
from biasrep.streams import FaultStream, uniform, uniform_vector

from conftest import table_with


class TestDefaultRates:
    def test_cphase_entries(self):
        t = default_rates()
        a = t.get(OpKind.CPHASE, Species.A)
        b = t.get(OpKind.CPHASE, Species.B)
        assert a == Rates(1.96e-3, 3.5e-6, 3.5e-6)
        assert b == Rates(4.6e-3, 3.5e-6, 3.5e-6)

    def test_prep_entries(self):
        t = default_rates()
        assert t.get(OpKind.PREP_PLUS, Species.A) == Rates(2.75e-3, 3.5e-7, 3.77e-7)
        assert t.get(OpKind.PREP_PLUS, Species.B) == Rates(2.75e-3, 3.5e-7, 1.5e-5)

    def test_measurement_entries(self):
        t = default_rates()
        for sp in Species:
            assert t.get(OpKind.MEASURE_X, sp) == Rates(1.83e-3, 0.0, 0.0)

    def test_bias_order_of_magnitude(self):
        # phase vs non-phase contrast for the CPHASE is about 10^3
        t = default_rates()
        assert 500 < t.bias(OpKind.CPHASE, Species.A) < 600
        assert t.get(OpKind.CPHASE, Species.B).eps / 3.5e-6 > 1000

    def test_json_round_trip(self):
        t = default_rates()
        back = ErrorRateTable.from_json(t.to_json())
        assert back.entries == t.entries
        assert back.cphase_zz == t.cphase_zz

    def test_json_keys(self):
        doc = json.loads(default_rates().to_json())
        row = doc["rates"][0]
        assert set(row) == {"operation", "species", "eps", "eps_other", "eps_leak"}

    def test_validation_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            Rates(eps=1.5).validate()
        with pytest.raises(ValueError):
            Rates(eps=0.7, eps_other=0.5).validate()
        with pytest.raises(ValueError):
            ErrorRateTable(entries={}, cphase_zz=-0.1).validate()

    @pytest.mark.parametrize("rates", [Rates(1e-3, eps_other=0.3),
                                       Rates(1e-3, eps_leak=0.2)])
    def test_measurement_row_takes_eps_only(self, rates):
        with pytest.raises(ValueError, match=r"\(measx, B\): a measurement"):
            table_with(measx_B=rates).validate()


class TestSampleFaults:
    def test_zero_rates_empty(self):
        t = zero_rates()
        stream = FaultStream(1, 0)
        events = sample_faults(OpKind.CPHASE, (0, 1), (Species.A, Species.B),
                               0, t, stream)
        assert events == []

    def test_probability_one_leak(self):
        t = table_with(prep_B=Rates(eps_leak=1.0))
        for trial in range(25):
            events = sample_faults(OpKind.PREP_PLUS, (3,), (Species.B,), 5, t,
                                   FaultStream(9, trial))
            assert events == [FaultEvent(5, 3, FaultKind.LEAK)]

    def test_rejects_invalid_rates(self):
        bad = table_with(cz_A=Rates(eps=2.0), cz_B=Rates())
        with pytest.raises(ValueError):
            sample_faults(OpKind.CPHASE, (0, 1), (Species.A, Species.B), 0,
                          bad, FaultStream(0, 0))

    def test_table_change_after_use(self):
        t = zero_rates()
        args = ((3,), (Species.B,), 5, t, FaultStream(9, 0))
        assert sample_faults(OpKind.PREP_PLUS, *args) == []
        t.entries[(OpKind.PREP_PLUS, Species.B)] = Rates(eps_leak=1.0)
        assert sample_faults(OpKind.PREP_PLUS, *args) == \
            [FaultEvent(5, 3, FaultKind.LEAK)]
        t.cphase_zz = 2.0
        with pytest.raises(ValueError, match="cphase_zz"):
            sample_faults(OpKind.PREP_PLUS, *args)

    def test_rows_may_leave_out_the_minor_rates(self):
        doc = json.loads(default_rates().to_json())
        for row in doc["rates"]:
            del row["eps_other"], row["eps_leak"]
        table = ErrorRateTable.from_json(json.dumps(doc))
        assert table.entries == {key: Rates(r.eps)
                                 for key, r in default_rates().entries.items()}

    def test_incomplete_table_rejected(self):
        doc = json.loads(default_rates().to_json())
        doc["rates"] = [row for row in doc["rates"]
                        if (row["operation"], row["species"]) != ("measx", "B")]
        with pytest.raises(ValueError, match=r"missing rate rows: \(measx, B\)$"):
            ErrorRateTable.from_json(json.dumps(doc))

    def test_measurement_flip_only(self):
        t = table_with(measx_A=Rates(eps=1.0))
        events = sample_faults(OpKind.MEASURE_X, (2,), (Species.A,), 7, t,
                               FaultStream(0, 0))
        assert events == [FaultEvent(7, 2, FaultKind.MEAS_FLIP)]

    def test_prep_exclusive_single_fault(self):
        t = table_with(prep_A=Rates(eps=0.3, eps_other=0.3, eps_leak=0.3))
        for trial in range(400):
            events = sample_faults(OpKind.PREP_PLUS, (0,), (Species.A,), 2, t,
                                   FaultStream(3, trial))
            assert len(events) <= 1

    def test_determinism_across_calls(self):
        t = default_rates()
        a = [sample_faults(OpKind.CPHASE, (0, 1), (Species.A, Species.B), 11,
                           t, FaultStream(42, i)) for i in range(2000)]
        b = [sample_faults(OpKind.CPHASE, (0, 1), (Species.A, Species.B), 11,
                           t, FaultStream(42, i)) for i in range(2000)]
        assert a == b

    def test_location_keying_independent_of_order(self):
        t = default_rates()
        stream = FaultStream(1, 17)
        first = sample_faults(OpKind.PREP_PLUS, (0,), (Species.A,), 4, t, stream)
        _ = sample_faults(OpKind.PREP_PLUS, (1,), (Species.A,), 9, t, stream)
        again = sample_faults(OpKind.PREP_PLUS, (0,), (Species.A,), 4, t, stream)
        assert first == again


class TestSamplingFrequencies:
    TRIALS = 1_000_000

    def _check(self, kind, species, fault, expected):
        counts = fault_class_counts(kind, species, default_rates(), seed=123,
                                    location_id=0, qubit=0, trials=self.TRIALS)
        observed = counts.get(fault, 0) / self.TRIALS
        sigma = math.sqrt(expected * (1 - expected) / self.TRIALS)
        assert abs(observed - expected) <= 4 * sigma + 1e-12, \
            f"{kind} {species} {fault}: {observed} vs {expected}"

    def test_cphase_a_phase_rate(self):
        # dominant check, 3 sigma as the anchor case
        counts = fault_class_counts(OpKind.CPHASE, Species.A, default_rates(),
                                    seed=7, location_id=3, qubit=1,
                                    trials=self.TRIALS)
        observed = counts[FaultKind.Z] / self.TRIALS
        sigma = math.sqrt(1.96e-3 * (1 - 1.96e-3) / self.TRIALS)
        assert abs(observed - 1.96e-3) <= 3 * sigma

    @pytest.mark.parametrize("species,eps", [(Species.A, 1.96e-3),
                                             (Species.B, 4.6e-3)])
    def test_cphase_all_classes(self, species, eps):
        self._check(OpKind.CPHASE, species, FaultKind.Z, eps)
        self._check(OpKind.CPHASE, species, FaultKind.X, 3.5e-6 / 2)
        self._check(OpKind.CPHASE, species, FaultKind.Y, 3.5e-6 / 2)
        self._check(OpKind.CPHASE, species, FaultKind.LEAK, 3.5e-6)

    @pytest.mark.parametrize("species,leak", [(Species.A, 3.77e-7),
                                              (Species.B, 1.5e-5)])
    def test_prep_all_classes(self, species, leak):
        self._check(OpKind.PREP_PLUS, species, FaultKind.Z, 2.75e-3)
        self._check(OpKind.PREP_PLUS, species, FaultKind.Y, 3.5e-7)
        self._check(OpKind.PREP_PLUS, species, FaultKind.LEAK, leak)

    def test_measurement_flip_rate(self):
        self._check(OpKind.MEASURE_X, Species.A, FaultKind.MEAS_FLIP, 1.83e-3)

    def test_vector_scalar_draw_agreement(self):
        trials = np.arange(500, dtype=np.uint64)
        vec = uniform_vector(99, trials, 12, 3, 0)
        for i in (0, 1, 7, 499):
            assert vec[i] == uniform(99, i, 12, 3, 0)


class TestComposeRates:
    def test_single_cphase_two_h(self):
        # one CPHASE at .45% plus two H gates at .4% each
        out = compose_rates([(0.0045, 0.0), (0.004, 0.0), (0.004, 0.0)])
        assert out.eps == pytest.approx(0.0125, abs=1e-12)

    def test_three_cphase_preps_and_measurements(self):
        # three CPHASEs, two |+> preps at .3%, two X measurements at .2%
        ops = [(0.0045, 0.0)] * 3 + [(0.003, 0.0)] * 2 + [(0.002, 0.0)] * 2
        out = compose_rates(ops)
        assert out.eps == pytest.approx(0.0235, abs=1e-12)

    def test_empty(self):
        assert compose_rates([]) == Rates(0.0, 0.0)

    def test_mapping_and_rates_inputs(self):
        out = compose_rates([{"eps": 0.01, "eps_other": 0.001},
                             Rates(0.02, 0.002)])
        assert out.eps == pytest.approx(0.03)
        assert out.eps_other == pytest.approx(0.003)


class TestSitesCache:
    """``ErrorRateTable.sites`` is built afresh on each call: it follows the
    circuit and the rates, like ``faults()``."""

    @staticmethod
    def fresh(table, circuit):
        faults = table.faults()
        return [op.sites(loc.index, loc.qubits, circuit.species_of)
                if (op := faults.get(loc.kind)) else []
                for loc in circuit.locations]

    def test_same_circuit_returns_the_cached_list(self):
        table, circuit = default_rates(), build_logical_cnot(3, 3)
        first = table.sites(circuit)
        assert first == self.fresh(table, circuit)

    def test_other_circuit_rebuilds(self):
        table = default_rates()
        a, b = build_logical_cnot(3, 3), build_logical_cnot(3, 3)
        sites_a = table.sites(a)
        sites_b = table.sites(b)
        assert sites_b is not sites_a and sites_b == sites_a
        c = build_teleport_identity(3, 1)
        assert table.sites(c) == self.fresh(table, c)
        assert table.sites(a) == sites_a

    def test_rate_change_rebuilds(self):
        table, circuit = default_rates(), build_logical_cnot(3, 3)
        before = table.sites(circuit)
        table.entries[(OpKind.CPHASE, Species.A)] = Rates()
        after = table.sites(circuit)
        assert after is not before
        assert after == self.fresh(table, circuit)
        assert sum(map(len, after)) < sum(map(len, before))
        table.cphase_zz = 0.01
        assert any(s.qubit == -1 for loc in table.sites(circuit) for s in loc)
