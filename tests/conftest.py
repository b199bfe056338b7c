import numpy as np
import pytest

import zoo
from cointssm import discretize, solve_steady_state


@pytest.fixture(scope="session")
def scalar_cf():
    return zoo.scalar()


@pytest.fixture(scope="session")
def scalar_sm(scalar_cf):
    return discretize(scalar_cf, 1.0)


@pytest.fixture(scope="session")
def scalar_ks(scalar_sm, scalar_cf):
    return solve_steady_state(scalar_sm, scalar_cf)


@pytest.fixture(scope="session")
def partial_cf():
    return zoo.partial()


@pytest.fixture(scope="session")
def partial_sm(partial_cf):
    return discretize(partial_cf, 0.5)


@pytest.fixture(scope="session")
def partial_ks(partial_sm, partial_cf):
    return solve_steady_state(partial_sm, partial_cf)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
