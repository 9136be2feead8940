import numpy as np
import pytest

import diskvolterra as dv
from diskvolterra.criteria import EPS_LADDER_RANGE
from diskvolterra.spaces import one_minus_sq


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


def weighted_table(values, u, beta, form):
    """(1-|z|^2)^beta (F(|phi|) |u|) in one pass over a value provider: the
    order w (F |u|) whose row and segment maxima the criteria read."""
    y = one_minus_sq(values.abs_phi)
    factor = np.log(2.0 / y) if form[0] == "log" else y ** (-form[1])
    return one_minus_sq(values.radius) ** beta * (factor * np.abs(u.formula(values)))


def prefix_max_ladder(table, abs_phi):
    """The boundary ladder read off a full table: sort every grid point by
    |phi| descending, take the running max and read it at each rung."""
    w = abs_phi.ravel()
    order = np.argsort(-w, kind="stable")
    prefix_max = np.maximum.accumulate(table.ravel()[order])
    sups, nonempty = [], []
    for k in range(EPS_LADDER_RANGE[0], EPS_LADDER_RANGE[1] + 1):
        count = int(np.searchsorted(-w[order], -(1.0 - 2.0 ** (-k)), side="left"))
        nonempty.append(count > 0)
        sups.append(float(prefix_max[count - 1]) if count > 0 else 0.0)
    return sups, nonempty
