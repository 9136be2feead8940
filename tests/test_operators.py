import numpy as np
import pytest

import diskvolterra as dv
from diskvolterra import SelfMapSymbol, TruncatedSeries
from diskvolterra.operators import g_from_config, phi_from_config

from conftest import random_self_map, random_series


def sym_of(phi_coeffs, g_coeffs, grid):
    return SelfMapSymbol(TruncatedSeries(phi_coeffs), TruncatedSeries(g_coeffs),
                         grid=grid)


def test_self_map_validation(grid):
    sym_of([0, 1], [0, 1], grid)          # identity is fine
    sym_of([0.3, 0.5], [1], grid)         # |0.3| + |0.5| < 1
    with pytest.raises(dv.InvalidSelfMapError):
        sym_of([0, 1.2], [0, 1], grid)
    with pytest.raises(dv.InvalidSelfMapError):
        sym_of([0.5, 0.7], [0, 1], grid)


def test_derivative_caches(grid):
    sym = sym_of([0.1, 0.2, 0.3], [1, 2, 3, 4], grid)
    assert sym.phi_d1 == sym.phi.derivative()
    assert sym.phi_d2 == sym.phi.derivative().derivative()
    assert sym.g_d1 == sym.g.derivative()
    assert sym.g_d2 == sym.g.derivative().derivative()


def test_apply_ug_examples(grid):
    sym = sym_of([0, 0.5], [0, 1], grid)  # g = z, g' = 1
    assert dv.apply_ug(sym, TruncatedSeries([1])) == TruncatedSeries([0, 1])
    assert dv.apply_ug(sym, TruncatedSeries([0])) == TruncatedSeries([0])
    sym2 = sym_of([0, 0.5], [0, 0, 1], grid)  # g = z^2
    out = dv.apply_ug(sym2, TruncatedSeries([0, 1]))
    assert out == TruncatedSeries([0, 0, 0, 2.0 / 3.0])


def test_apply_vg_examples(grid):
    sym = sym_of([0, 0.5], [1], grid)  # g = 1
    f = TruncatedSeries([2, 1, 3])
    assert dv.apply_vg(sym, f) == f - 2
    assert dv.apply_vg(sym, TruncatedSeries([7])) == TruncatedSeries([0])
    sym2 = sym_of([0, 0.5], [0, 1], grid)  # g = z
    assert dv.apply_vg(sym2, TruncatedSeries([0, 0, 1])) == TruncatedSeries([0, 0, 0, 2.0 / 3.0])


def test_apply_product_examples(grid):
    ident = [0, 1]
    sym = sym_of(ident, [1], grid)  # g = 1, phi = z
    f = TruncatedSeries([0, 0, 1])
    assert dv.apply_product("vgcphi", sym, f) == f  # reduces to f - f(0)

    sym2 = sym_of([0, 0.3, 0.3], [0, 1], grid)  # g = z, any phi
    assert dv.apply_product("ugcphi", sym2, TruncatedSeries([1])) == TruncatedSeries([0, 1])

    sym3 = sym_of([0, 0.5], [0, 1], grid)
    assert dv.apply_product("cphiug", sym3, TruncatedSeries([1])) == TruncatedSeries([0, 0.5])


def test_products_vanish_at_zero(grid, rng):
    for _ in range(5):
        sym = SelfMapSymbol(random_self_map(rng, 6), random_series(rng, 6), grid=grid)
        f = random_series(rng, 6)
        for kind in ("vgcphi", "ugcphi"):
            out = dv.apply_product(kind, sym, f)
            assert out.coefficient(0) == 0.0


def test_cphiug_is_composition_of_ug(grid, rng):
    for _ in range(5):
        phi = random_self_map(rng, 5)
        sym = SelfMapSymbol(phi, random_series(rng, 5), grid=grid)
        f = random_series(rng, 5)
        direct = dv.apply_product("cphiug", sym, f)
        composed = dv.apply_ug(sym, f).compose(phi)
        for z in (0.3, -0.2 + 0.4j):
            assert abs(direct(z) - composed(z)) <= 1e-10


def test_integration_by_parts_identity(grid, rng):
    for _ in range(50):
        f = random_series(rng, 16)
        g = random_series(rng, 16)
        sym = SelfMapSymbol(TruncatedSeries([0, 0.5]), g, grid=grid)
        lhs = dv.apply_ug(sym, f) + dv.apply_vg(sym, f)
        rhs = f.mul(g) - f.coefficient(0) * g.coefficient(0)
        n = max(len(lhs.coeffs), len(rhs.coeffs))
        a = np.zeros(n, complex)
        a[:len(lhs.coeffs)] = lhs.coeffs
        b = np.zeros(n, complex)
        b[:len(rhs.coeffs)] = rhs.coeffs
        assert np.max(np.abs(a - b)) < 1e-12


def test_second_derivative_simple_cases(grid):
    sym = sym_of([0, 1], [1], grid)  # g = 1, phi = z: vgcphi image is f - f(0)
    f = TruncatedSeries([1, 2, 3, 4])
    f2 = f.derivative().derivative()
    for z in (0.2, 0.5j, -0.3 + 0.1j):
        assert abs(dv.product_second_derivative("vgcphi", sym, f, z) - f2(z)) < 1e-12

    sym2 = sym_of([0, 0.4, 0.3], [0.5, 1, 1], grid)
    const = TruncatedSeries([3.0])
    for kind in ("vgcphi", "cphivg"):
        assert abs(dv.product_second_derivative(kind, sym2, const, 0.3)) == 0.0


def test_second_derivative_matches_finite_differences(grid, rng):
    h = 1e-4
    for kind in dv.KINDS:
        for _ in range(3):
            sym = SelfMapSymbol(random_self_map(rng, 8),
                                random_series(rng, 8, scale=0.5), grid=grid)
            f = random_series(rng, 8, scale=0.5)
            F = dv.apply_product(kind, sym, f)
            for _ in range(4):
                z = 0.4 * rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
                fd = (F(z + h) - 2 * F(z) + F(z - h)) / h ** 2
                closed = dv.product_second_derivative(kind, sym, f, z)
                assert abs(closed - fd) < 1e-6


def test_operator_norm_estimate_zero_symbol(grid):
    sym = sym_of([0, 0.5], [0], grid)
    for kind in dv.KINDS:
        assert dv.operator_norm_estimate(kind, sym, 1.0, 1.0, grid,
                                         sample_count=3, seed=7) == 0.0


def test_operator_norm_estimate_identity_case(grid):
    # g = 1, phi = z: the operator is f -> f - f(0), so the norm of the
    # image never exceeds the unit source norm
    sym = sym_of([0, 1], [1], grid)
    est = dv.operator_norm_estimate("vgcphi", sym, 1.0, 1.0, grid,
                                    sample_count=20, seed=3)
    assert 0.5 <= est <= 1.0 + 1e-9


def test_operator_norm_estimate_monotone(grid):
    sym = sym_of([0, 0.5], [0, 1, 0.5], grid)
    e1 = dv.operator_norm_estimate("cphivg", sym, 1.0, 1.0, grid,
                                   sample_count=5, seed=11)
    e2 = dv.operator_norm_estimate("cphivg", sym, 1.0, 1.0, grid,
                                   sample_count=15, seed=11)
    assert e2 >= e1


def test_operator_norm_estimate_validation(grid):
    sym = sym_of([0, 0.5], [0, 1], grid)
    with pytest.raises(ValueError):
        dv.operator_norm_estimate("vgcphi", sym, 1.0, 1.0, grid, sample_count=0)


def test_phi_families(grid):
    ident = phi_from_config({"family": "scaled_identity", "params": {"c": 1.0}})
    assert ident == TruncatedSeries([0, 1])

    mob = phi_from_config({"family": "mobius", "params": {"a": 0.5}})
    for z in (0.3, -0.7, 0.2 + 0.6j):
        exact = (0.5 - z) / (1 - 0.5 * z)
        assert abs(mob(z) - exact) < 1e-12

    poly = phi_from_config({"family": "poly", "params": {"coeffs": [0, 0, 1]}})
    assert poly == TruncatedSeries([0, 0, 1])

    with pytest.raises(ValueError):
        phi_from_config({"family": "mobius", "params": {"a": 1.0}})
    with pytest.raises(ValueError):
        phi_from_config({"family": "unknown"})


def test_g_families():
    assert g_from_config({"family": "identity"}) == TruncatedSeries([0, 1])
    ces = g_from_config({"family": "log_cesaro"})
    assert ces.coefficient(0) == 0.0
    assert ces.coefficient(3) == pytest.approx(1.0 / 3.0)
    assert ces.series(dv.N_WORK).degree == dv.N_WORK
    for z in (0.3, -0.4 + 0.2j):
        assert abs(ces(z) - (-np.log(1 - z))) < 1e-12
    with pytest.raises(ValueError):
        g_from_config({"family": "unknown"})


def test_symbol_from_config_complex_params(grid):
    sym = dv.symbol_from_config(
        {"phi": {"family": "scaled_identity", "params": {"c": [0.0, 0.5]}},
         "g": {"family": "identity"}}, grid=grid)
    assert sym.phi.coefficient(1) == 0.5j


def test_symbol_weights_pointwise(grid):
    sym = sym_of([0, 0, 0.5], [0, 1, 2], grid)
    w = dv.symbol_weights("vgcphi", sym)
    z = 0.3 + 0.2j
    assert abs(w["u1"](z) - sym.g(z) * sym.phi_d1(z)) < 1e-14
    assert abs(w["u2"](z) - sym.g_d1(z)) < 1e-14
    wc = dv.symbol_weights("cphiug", sym)
    expected = (sym.g_d2(sym.phi(z)) * sym.phi_d1(z) ** 2
                + sym.g_d1(sym.phi(z)) * sym.phi_d2(z))
    assert abs(wc["u2"](z) - expected) < 1e-13
    # grid tables agree with pointwise evaluation
    tab = wc["u2"].on_grid(grid)
    i, j = 40, 17
    assert abs(tab[i, j] - wc["u2"](grid.points[i, j])) < 1e-12


def test_image_zygmund_norm_vs_series_route(grid):
    # with polynomial symbols and small degrees the series route is exact,
    # so both routes must produce the same norm
    sym = sym_of([0, 0.5], [0, 1, 1], grid)
    f = TruncatedSeries([0.2, 1.0, -0.3, 0.1j])
    direct = dv.image_zygmund_norm("ugcphi", sym, f, 1.0, grid)
    series_route = dv.zygmund_norm(dv.apply_product("ugcphi", sym, f), 1.0, grid)
    assert direct == pytest.approx(series_route, rel=1e-9)


def test_grid_contexts_never_alias():
    # grids built, used and freed in turn: a cache keyed by id(grid) would
    # hand a freed grid's tables to a new grid at the same address
    sym = sym_of([0, 0.5, 0.25], [0, 1, 0.5], dv.default_grid())
    for i in range(200):
        grid = dv.DiskGrid(8, 64, 12) if i % 2 else dv.DiskGrid(20, 128, 20)
        shape = grid.points.shape
        for key in ("phi", "phi1", "g2", "g1_phi", "abs_phi"):
            assert sym.grid_values(grid, key).shape == shape, (i, key)
        assert sym.grid_values(grid, "desc_order").shape == (grid.points.size,)
        for kind in dv.KINDS:
            for u in dv.symbol_weights(kind, sym).values():
                assert u.on_grid(grid).shape == shape, (i, kind, u.label)
        del grid
