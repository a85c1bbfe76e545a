import numpy as np
import pytest

from unicollapse import collapse
from unicollapse.linalg import StateVector


@pytest.fixture
def bell() -> StateVector:
    return StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))


@pytest.fixture
def ghz3() -> StateVector:
    amps = np.zeros(8)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    return StateVector(amps, (2, 2, 2))


@pytest.fixture
def bleach_map():
    """The dense twin of ``collapse.bleach_round_trip_defect``: d -> the
    d^3 x d^3 bleaching map, built through ``collapse._bleach_apply``."""
    def dense(d: int) -> np.ndarray:
        # row j of the mapped identity is the image of basis state j
        return collapse._bleach_apply(np.eye(d ** 3, dtype=complex), d).T
    return dense
