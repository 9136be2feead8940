import math

import numpy as np
import pytest

import diskvolterra as dv
from diskvolterra import DiskGrid, TruncatedSeries, Weight
from diskvolterra.spaces import golden_max, one_minus_sq

from conftest import random_series


def test_standard_weight_values():
    v = Weight.standard(2.0)
    assert v(0.0) == pytest.approx(1.0)
    assert v(0.5) == pytest.approx(0.75 ** 2)
    r = np.linspace(0, 0.999, 50)
    vals = v(r)
    assert np.all(np.diff(vals) < 0)


def test_log_weight_values():
    v = Weight.logarithmic()
    assert v(0.0) == pytest.approx(1.0 / math.log(2.0))
    r = np.linspace(0, 0.999, 50)
    vals = v(r)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight.standard(0.0)
    with pytest.raises(ValueError):
        Weight("nonsense")


def test_grid_structure(grid):
    r = grid.radii
    assert np.all(np.diff(r) > 0)
    assert r[-1] < 1.0
    assert r[-1] == pytest.approx(1.0 - 2.0 ** -40, abs=0)
    # the octave ladder is included
    for j in range(1, 41):
        assert np.any(np.isclose(r, 1.0 - 2.0 ** -j, rtol=0, atol=0))


def test_grid_validation():
    with pytest.raises(ValueError):
        DiskGrid(angles=32)
    with pytest.raises(ValueError, match="refine_depth"):
        DiskGrid.from_config({"refine_depth": 2})
    g = DiskGrid.from_config({"radii_count": 8, "angles": 64, "j_max": 12})
    assert g.n_angles == 64
    assert g.r_max == pytest.approx(1 - 2.0 ** -12)


def test_golden_max_on_parabola():
    # argmax precision is sqrt(eps) for a quadratic peak; the value is flat
    x, v = golden_max(lambda t: -(t - 0.3) ** 2 + 2.0, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-6)
    assert v == pytest.approx(2.0, abs=1e-12)


def test_weighted_sup_constant(grid):
    est = dv.weighted_sup_norm(TruncatedSeries([1.0]), Weight.standard(1.5), grid)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert abs(est.argmax) < 1e-6


def test_weighted_sup_square(grid):
    est = dv.weighted_sup_norm(TruncatedSeries([0, 0, 1]), Weight.standard(1.0), grid)
    assert est.value == pytest.approx(0.25, abs=1e-10)
    assert abs(est.argmax) == pytest.approx(1 / math.sqrt(2), abs=1e-6)


def test_weighted_sup_log_weight_vs_1d_oracle(grid):
    est = dv.weighted_sup_norm(TruncatedSeries([0, 1]), Weight.logarithmic(), grid)
    _, oracle = golden_max(lambda r: r / math.log(2.0 / (1 - r * r)), 1e-9, 1 - 1e-9)
    assert est.value == pytest.approx(oracle, rel=1e-9)


def test_sup_rejects_non_finite(grid):
    def bad(r, z):
        out = np.abs(z).astype(float)
        out[...] = np.nan
        return out
    with pytest.raises(dv.NonFiniteValueError):
        dv.grid_supremum(bad, grid)


def test_monomial_norm_standard_examples():
    assert dv.monomial_norm(0, Weight.standard(0.7)) == 1.0
    assert dv.monomial_norm(2, Weight.standard(1.0)) == pytest.approx(0.25, abs=1e-15)


def test_monomial_norm_closed_form_matches_grid(grid):
    v = Weight.standard(1.5)
    for n in (1, 7, 33, 64):
        closed = dv.monomial_norm(n, v)
        est = dv.weighted_sup_norm(lambda z, n=n: z ** n, v, grid)
        assert est.value == pytest.approx(closed, abs=1e-8)


def test_monomial_norm_standard_limit():
    # (n+1)^alpha ||z^n|| -> (2 alpha / e)^alpha
    for alpha in (0.5, 1.0, 2.0):
        v = Weight.standard(alpha)
        n = 10_000
        scaled = (n + 1) ** alpha * dv.monomial_norm(n, v)
        assert scaled == pytest.approx((2 * alpha / math.e) ** alpha, rel=0.01)


def test_monomial_scaled_sequence_eventually_monotone():
    # (n+1)^alpha ||z^n|| approaches its limit monotonically for large n
    for alpha in (0.5, 1.0, 2.0):
        v = Weight.standard(alpha)
        vals = [(n + 1) ** alpha * dv.monomial_norm(n, v)
                for n in (1000, 2000, 4000, 8000, 10_000)]
        diffs = np.diff(vals)
        assert np.all(diffs > 0) or np.all(diffs < 0)


def test_monomial_norm_log_weight():
    v = Weight.logarithmic()
    assert dv.monomial_norm(0, v) == pytest.approx(1 / math.log(2))
    vals = [math.log(n) * dv.monomial_norm(n, v) for n in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert vals[0] < vals[1] < vals[2] < 1.0


def test_monomial_norm_rejects_negative():
    with pytest.raises(ValueError):
        dv.monomial_norm(-1, Weight.standard(1.0))


def test_bloch_norm_examples(grid):
    assert dv.bloch_norm(TruncatedSeries([0, 1]), 1.0, grid) == pytest.approx(1.0, abs=1e-10)
    assert dv.bloch_norm(TruncatedSeries([3 - 4j]), 1.0, grid) == pytest.approx(5.0)
    expected = 4.0 / (3.0 * math.sqrt(3.0))  # max of 2r(1-r^2)
    assert dv.bloch_norm(TruncatedSeries([0, 0, 1]), 1.0, grid) == pytest.approx(expected, rel=1e-9)


def test_zygmund_norm_examples(grid):
    assert dv.zygmund_norm(TruncatedSeries([2, -3]), 1.0, grid) == pytest.approx(5.0)
    assert dv.zygmund_norm(TruncatedSeries([0, 0, 1]), 1.0, grid) == pytest.approx(2.0, abs=1e-12)
    expected = 4.0 / math.sqrt(3.0)  # max of 6r(1-r^2)
    assert dv.zygmund_norm(TruncatedSeries([0, 0, 0, 1]), 1.0, grid) == pytest.approx(expected, rel=1e-9)


def test_zygmund_norm_homogeneity(grid, rng):
    for _ in range(10):
        f = random_series(rng, 12)
        c = complex(rng.standard_normal(), rng.standard_normal())
        n1 = dv.zygmund_norm(f * c, 1.0, grid)
        n2 = abs(c) * dv.zygmund_norm(f, 1.0, grid)
        assert n1 == pytest.approx(n2, rel=1e-10)


def test_zygmund_norm_triangle_inequality(grid, rng):
    for _ in range(10):
        f = random_series(rng, 10)
        g = random_series(rng, 10)
        lhs = dv.zygmund_norm(f + g, 1.5, grid)
        rhs = dv.zygmund_norm(f, 1.5, grid) + dv.zygmund_norm(g, 1.5, grid)
        assert lhs <= rhs + 1e-9


def test_growth_bound_square_small_alpha(grid):
    rep = dv.growth_bound_check(TruncatedSeries([0, 0, 1]), 0.5, grid)
    assert rep.all_passed
    # bound holds with a margin of at least a factor 2
    assert all(c.worst_ratio <= 0.5 for c in rep.checks)


def test_growth_bound_constant(grid):
    for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
        rep = dv.growth_bound_check(TruncatedSeries([2.0]), alpha, grid)
        assert rep.all_passed


def test_growth_bound_alpha_three_halves(grid, rng):
    for _ in range(5):
        f = random_series(rng, 20)
        rep = dv.growth_bound_check(f, 1.5, grid)
        clauses = {c.clause for c in rep.checks}
        assert clauses == {"iii", "iv"}
        assert rep.all_passed


def test_growth_bound_alpha_one_records_constant(grid, rng):
    f = random_series(rng, 8)
    rep = dv.growth_bound_check(f, 1.0, grid)
    value_clause = [c for c in rep.checks if c.quantity == "f"][0]
    assert value_clause.observed_constant is not None
    assert value_clause.observed_constant <= 1.0 + 1e-9


def test_growth_bound_rejects_zero(grid):
    with pytest.raises(ValueError):
        dv.growth_bound_check(TruncatedSeries([0]), 1.0, grid)


def test_one_minus_sq_accurate_near_boundary():
    r = 1.0 - 2.0 ** -40
    assert one_minus_sq(r) == pytest.approx(2.0 ** -40 * (2.0 - 2.0 ** -40), rel=1e-15)
