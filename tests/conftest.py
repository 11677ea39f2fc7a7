import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from biasrep.noise_model import (ErrorRateTable, OpKind, Rates, Species,
                                 zero_rates)


# circuit text in which ancilla 1 is measured, then prepared and used again
REPREPARED_ANCILLA = ("# qubit 0 A data d\n"
                      "# qubit 1 B ancilla\n"
                      "# block d input 0\n"
                      "PREP 1\nCZ 1 0\nMEASX 1\n"
                      "PREP 1\nCZ 1 0\nMEASX 1\n")


def table_with(**overrides) -> ErrorRateTable:
    """Zero table with selected entries overridden, e.g.
    table_with(cz_A=Rates(eps=1e-3), prep_B=Rates(eps_leak=1e-4))."""
    kinds = {"cz": OpKind.CPHASE, "prep": OpKind.PREP_PLUS,
             "measx": OpKind.MEASURE_X}
    table = zero_rates()
    for key, rates in overrides.items():
        kind_name, species_name = key.rsplit("_", 1)
        table.entries[(kinds[kind_name], Species(species_name))] = rates
    return table


def uniform_table(eps: float, eps_other: float = 0.0) -> ErrorRateTable:
    """Same eps on every operation (phase + measurement flip), with optional
    non-phase noise on preps and CPHASEs.  Leak-free."""
    table = zero_rates()
    for sp in Species:
        table.entries[(OpKind.PREP_PLUS, sp)] = Rates(eps, eps_other)
        table.entries[(OpKind.CPHASE, sp)] = Rates(eps, eps_other)
        table.entries[(OpKind.MEASURE_X, sp)] = Rates(eps)
    return table


def pack(rows: np.ndarray) -> np.ndarray:
    """Boolean rows [..., B] as uint64 words in the engine's layout, written
    out bit by bit."""
    B = rows.shape[-1]
    words = np.zeros(rows.shape[:-1] + ((B + 63) // 64,), dtype=np.uint64)
    for j in range(B):
        words[..., j // 64] |= rows[..., j].astype(np.uint64) << np.uint64(j % 64)
    return words


@pytest.fixture
def make_table():
    return table_with
