import pytest

# the tests derive their path seeds with the library helper
from levyburgers import GridSpec, derived_seed  # noqa: F401


@pytest.fixture(scope="session")
def grid_standard() -> GridSpec:
    """[-8, 8] with h = 2^-8, the workhorse grid of the statistical tests."""
    return GridSpec(8.0, 4097)


@pytest.fixture(scope="session")
def grid_fixture() -> GridSpec:
    """[-4, 4] with h = 0.01, the grid of the closed-form fixtures."""
    return GridSpec(4.0, 801)
