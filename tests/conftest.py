import numpy as np
import pytest

from seqshift import DistributionSpec, ReferenceSet, draw_reference

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # fixed examples, no example database: every run checks the same cases
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def std_normal():
    return DistributionSpec.gaussian(0.0, 1.0)


@pytest.fixture(scope="session")
def shifted_normal():
    return DistributionSpec.gaussian(1.0, 1.0)


@pytest.fixture(scope="session")
def small_reference(std_normal):
    """500-point standard-normal reference, fixed seed."""
    return ReferenceSet(draw_reference(std_normal, 500, master_seed=101, stream_id=0))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
