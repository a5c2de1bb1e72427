import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and carry no deadline:
# quadrature time varies with the machine, never with correctness.
settings.register_profile("infobridge", derandomize=True, deadline=None)
settings.load_profile("infobridge")

from infobridge import ExponentialLaw, ModelSpec, PinningLaw, UniformLaw


def pytest_configure(config):
    # A NaN or an overflow inside the quadrature fails the suite.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.fixture(scope="session")
def single_pin_exp():
    """Single pin at the origin, unit-rate exponential length."""
    return ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0]))


@pytest.fixture(scope="session")
def two_pin_symmetric():
    """Symmetric pins, bounded length support."""
    return ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 1.0], [0.5, 0.5]))


@pytest.fixture(scope="session")
def two_pin_asymmetric():
    return ModelSpec(ExponentialLaw(1.0), PinningLaw([-1.0, 2.0], [0.6, 0.4]))
