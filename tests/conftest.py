import pytest

from cubeshadow import moments, quad
from cubeshadow.moments import hull_cross_check


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "oldest_numpy(reason): a test whose result rests on numpy's or "
        "scipy's own bits, which CI also runs on the oldest numpy and scipy "
        "that pyproject.toml allows; reason says why")


@pytest.fixture(scope="session")
def zeta4():
    return quad.zeta4_quadrature()


@pytest.fixture(scope="session")
def moment_suite():
    return quad.moment_integral_suite()


@pytest.fixture(scope="session")
def mc_1e6():
    return moments.mc_estimate(4, 1_000_000, seed=25)


@pytest.fixture(scope="session")
def octagon_1e6():
    return moments.mc_octagon(1_000_000, seed=214)


@pytest.fixture(scope="session")
def hull_check_1e3():
    return hull_cross_check(1000, seed=11)
