import pytest

import polygauss as pg

from oracles import oracle_density

N = 10**6


@pytest.fixture(scope="session")
def x1_samples():
    return pg.sample(pg.monomial(1, (1,)), N, seed=1001)


@pytest.fixture(scope="session")
def x1sq_samples():
    return pg.sample(pg.monomial(1, (2,)), N, seed=1002)


@pytest.fixture(scope="session")
def x1x2_samples():
    return pg.sample(pg.monomial(2, (1, 1)), N, seed=1003)


@pytest.fixture(scope="session")
def normal_oracle():
    return oracle_density("normal", -4.0, 4.0, 2048)


@pytest.fixture(scope="session")
def chisq_oracle():
    return oracle_density("chisq1", 0.0, 16.0, 2048)


@pytest.fixture(scope="session")
def product_oracle():
    return oracle_density("product_normal", -9.0, 9.0, 2048)
