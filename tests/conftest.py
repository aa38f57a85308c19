import pytest
from hypothesis import strategies as st

# the tests derive their path seeds with the library helper
from levyburgers import GridSpec, LevyParams, derived_seed  # noqa: F401


def adversarial_params():
    """Levy laws at the edges of the admissible regimes: heavy tails near
    alpha = 1/2, scales from 1e-3 to 1e3, and near-zero Brownian sigma."""
    return st.one_of(
        st.builds(
            LevyParams.stable,
            st.floats(0.5, 0.6, exclude_min=True),
            st.floats(-1.0, 1.0),
            st.floats(1e-3, 1e3),
        ),
        st.builds(
            LevyParams.stable,
            st.floats(0.5, 2.0, exclude_min=True).filter(lambda a: a != 1.0),
            st.floats(-1.0, 1.0),
            st.floats(1e-3, 1e3),
        ),
        st.builds(LevyParams.cauchy, st.floats(1e-3, 1e3)),
        st.builds(LevyParams.brownian, st.sampled_from([0.0, 1e-300, 1e-12, 1e-6])),
    )


@pytest.fixture(scope="session")
def grid_standard() -> GridSpec:
    """[-8, 8] with h = 2^-8, the workhorse grid of the statistical tests."""
    return GridSpec(8.0, 4097)


@pytest.fixture(scope="session")
def grid_fixture() -> GridSpec:
    """[-4, 4] with h = 0.01, the grid of the closed-form fixtures."""
    return GridSpec(4.0, 801)
