import pytest
from hypothesis import settings

import fraclab

# the same examples on every run, with no wall-clock deadline
settings.register_profile("fraclab", derandomize=True, deadline=None)
settings.load_profile("fraclab")


@pytest.fixture(scope="session")
def table6():
    """Shared sieve to 10^6."""
    return fraclab.build_tables(10**6)


@pytest.fixture(scope="session")
def table4():
    """Small shared sieve to 10^4."""
    return fraclab.build_tables(10**4)
