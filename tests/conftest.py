import numpy as np
import pytest

import diskvolterra as dv


@pytest.fixture(scope="session")
def grid():
    """Shared default grid, so each symbol's context for it is reused."""
    return dv.default_grid()


@pytest.fixture(scope="session")
def identity_series():
    return dv.TruncatedSeries([0.0, 1.0])


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)


def random_series(rng, degree, scale=1.0):
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return dv.TruncatedSeries(scale * c)


def random_self_map(rng, degree, margin=0.9):
    s = random_series(rng, degree)
    return s * (margin / s.l1())
