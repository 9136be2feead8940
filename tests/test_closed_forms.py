"""Closed-form symbols against 50-digit oracles, the protocol they share with
truncated series, and the self-map certificate that follows the grid."""

import math

import mpmath as mp
import numpy as np
import pytest

import diskvolterra as dv
from diskvolterra import ClosedForm, TruncatedSeries
from diskvolterra.operators import g_from_config, phi_from_config

EPS = np.finfo(float).eps

FORMS = [("log", 0.0), ("mobius", 0.5), ("mobius", 0.3 + 0.4j), ("mobius", -0.6j)]
RADII = (0.1, 0.5, 0.9, 1.0 - 2.0 ** -10, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -30)
#: the small angles approach z = 1, the singular point of the log
ANGLES = (0.0, 2.0 ** -30, 2.0 ** -20, 1e-3, 0.7, 2.0, math.pi, -1.3)


def disk_points():
    return np.array([r * complex(math.cos(t), math.sin(t))
                     for r in RADII for t in ANGLES])


def oracle(kind, a, order, z):
    """50-digit value at the float z itself of the function the closed form
    names, or of its derivative taken numerically by mpmath (so a wrong
    derivative formula in the package cannot hide in the oracle)."""
    with mp.workdps(50):
        a = mp.mpc(a.real, a.imag)
        if kind == "log":
            def f(w):
                return -mp.log(1 - w)
        else:
            def f(w):
                return (a - w) / (1 - mp.conj(a) * w)
        w = mp.mpc(z.real, z.imag)
        return complex(f(w) if order == 0 else mp.diff(f, w, order))


@pytest.mark.parametrize("kind,a", FORMS)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_closed_forms_match_50_digit_oracles(kind, a, order):
    # float64 error only: 1 - conj(a) z is formed once, and |a| <= 0.6
    # bounds its relative error by about 2 ulp; a wrong formula is off by
    # far more than the 1e-14 allowed here
    f = ClosedForm(kind, a, order)
    zs = disk_points()
    arr = f(zs)
    for z, v in zip(zs, arr):
        want = oracle(kind, a, order, z)
        if want == 0:
            continue
        assert abs(f(complex(z)) - want) <= 1e-14 * abs(want), (z, "scalar")
        assert abs(v - want) <= 1e-14 * abs(want), (z, "array")


@pytest.mark.parametrize("kind,a", [("log", 0.0), ("mobius", 0.5), ("mobius", 0.9),
                                    ("mobius", -0.6j)])
def test_scalar_and_array_paths_agree_to_4_ulp(kind, a, rng):
    # a scalar is a 0-d array, which numpy computes through other loops than
    # a long array (np.power's among them), so the two may round apart by an
    # ulp; the oracle test above holds each path to the function itself
    n = 4000
    r = 1.0 - np.concatenate([rng.uniform(0.0, 1.0, n // 2),
                              2.0 ** -rng.uniform(0.0, 40.0, n // 2)])
    zs = r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    for order in (0, 1, 2):
        f = ClosedForm(kind, a, order)
        arr = f(zs)
        scal = np.array([f(complex(z)) for z in zs])
        assert np.all(np.abs(scal - arr) <= 4.0 * EPS * np.abs(arr)), order
        zero_d = f(np.array(0.25 - 0.5j))
        assert isinstance(zero_d, complex)
        assert abs(zero_d - f(0.25 - 0.5j)) <= 4.0 * EPS * abs(zero_d)


def test_log_cesaro_does_not_saturate():
    g = g_from_config({"family": "log_cesaro"})
    r = 1.0 - 2.0 ** -20
    assert abs(g.derivative()(r)) == pytest.approx(2.0 ** 20, rel=1e-12)
    assert abs(g.derivative().derivative()(r)) == pytest.approx(2.0 ** 40, rel=1e-12)
    assert g(r) == pytest.approx(20.0 * math.log(2.0), rel=1e-12)
    sym = dv.symbol_from_config({"phi": {"family": "scaled_identity"},
                                 "g": {"family": "log_cesaro"}})
    assert abs(sym.g_d1(r)) == pytest.approx(2.0 ** 20, rel=1e-12)


def test_closed_forms_reject_points_and_parameters_outside_the_disk():
    for kind, a in FORMS:
        with pytest.raises(ValueError):
            ClosedForm(kind, a)(1.1)
        with pytest.raises(ValueError):
            ClosedForm(kind, a, 1)(np.array([0.5, 1.0 + 1e-9]))
    with pytest.raises(ValueError):
        ClosedForm("mobius", 1.0)
    with pytest.raises(ValueError):
        ClosedForm("exp")


def test_closed_form_coefficients_and_series():
    a = 0.3 + 0.4j
    mob = phi_from_config({"family": "mobius", "params": {"a": [0.3, 0.4]}})
    assert mob.coefficient(0) == a and mob.coefficient(-1) == 0
    for k in (1, 2, 7):
        assert mob.coefficient(k) == pytest.approx(np.conj(a) ** (k - 1) * (abs(a) ** 2 - 1))
    ces = g_from_config({"family": "log_cesaro"})
    assert [ces.derivative().derivative().coefficient(k) for k in range(4)] == \
        pytest.approx([1.0, 2.0, 3.0, 4.0])
    zs = 0.5 * np.exp(2j * np.pi * np.arange(7) / 7)
    for kind, a in FORMS:
        f = ClosedForm(kind, a)
        for order in (0, 1, 2):
            series = f.series(256)
            assert series.degree <= 256
            # the tail beyond degree 256 is below 1e-60 at |z| = 1/2
            assert np.allclose(series(zs), f(zs), rtol=1e-13, atol=0.0), (kind, a, order)
            assert np.allclose(f.derivative().series(255).coeffs, series.derivative().coeffs,
                               rtol=1e-13, atol=0.0)
            f = f.derivative()


def test_truncated_series_is_its_own_series():
    s = TruncatedSeries([1, 2, 3])
    assert s.series(2) is s and s.series(dv.N_WORK) is s


@pytest.mark.parametrize("n", [10 ** 6, 10 ** 7])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, None])
def test_monomial_norm_at_large_n_against_mpmath(n, alpha):
    # the max over r of r^n w(r) in 50 digits: the root of the derivative of
    # the log objective in t = 1 - r, bracketed, by the Illinois method
    with mp.workdps(50):
        def y(t):
            return t * (2 - t)
        if alpha is None:
            weight = dv.Weight.logarithmic()

            def log_obj(t):
                return n * mp.log1p(-t) - mp.log(mp.log(2 / y(t)))

            def slope(t):
                return -n / (1 - t) + (2 - 2 * t) / (y(t) * mp.log(2 / y(t)))
        else:
            weight = dv.Weight.standard(alpha)

            def log_obj(t):
                return n * mp.log1p(-t) + alpha * mp.log(y(t))

            def slope(t):
                return -n / (1 - t) + alpha * (2 - 2 * t) / y(t)
        t = mp.findroot(slope, (mp.mpf(1e-4) / n, mp.mpf(10) / n), solver="illinois")
        want = float(mp.exp(log_obj(t)))
    assert dv.monomial_norm(n, weight) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_mobius_certificate_is_exact(grid):
    for a in (0.5, 0.3 + 0.4j, -0.9):
        sym = dv.symbol_from_config({"phi": {"family": "mobius", "params": {"a": [a.real, a.imag]}},
                                     "g": {"family": "identity"}}, grid=grid)
        r = grid.r_max
        assert sym.phi_sup_modulus == (abs(a) + r) / (1.0 + abs(a) * r)
        # the sampled certificate of the Mobius series agrees
        sampled = dv.SelfMapSymbol(sym.phi.series(dv.N_WORK), sym.g, grid=dv.DiskGrid(j_max=6))
        r6 = 1.0 - 2.0 ** -6
        assert sampled.phi_sup_modulus == pytest.approx(
            (abs(a) + r6) / (1.0 + abs(a) * r6), rel=1e-12)


def test_certification_follows_the_grid(grid):
    small = dv.DiskGrid(j_max=3)
    sym = dv.SelfMapSymbol(TruncatedSeries([0.0, 1.1]), TruncatedSeries([0.0, 1.0]),
                           grid=small)
    assert sym.phi_sup_modulus == pytest.approx(1.1 * small.r_max)   # 0.9625
    sym.context(small)
    with pytest.raises(dv.InvalidSelfMapError):
        dv.check_boundedness("vgcphi", sym, 1.0, 1.0, grid, n_seq=64)
    with pytest.raises(dv.InvalidSelfMapError):
        sym.context(grid)
    assert sym.r_certified == small.r_max

    ok = dv.SelfMapSymbol(TruncatedSeries([0.0, 0.9]), TruncatedSeries([0.0, 1.0]),
                          grid=small)
    ok.context(grid)
    assert ok.r_certified == grid.r_max
    assert ok.phi_sup_modulus == pytest.approx(0.9 * grid.r_max)


def test_log_cesaro_second_derivative_leaves_the_weighted_space(grid):
    # g'' = 1/(1-z)^2, so (1-|z|^2) |g''| grows like 1/(1-|z|): ugcphi at
    # alpha < 1 needs g'' in that space and cannot be certified bounded
    sym = dv.symbol_from_config({"phi": {"family": "scaled_identity", "params": {"c": 0.5}},
                                 "g": {"family": "log_cesaro"}}, grid=grid)
    report = dv.check_boundedness("ugcphi", sym, 0.5, 1.0, grid, n_seq=64)
    assert report.verdict == "not-determined"
    assert not report.memberships[-1].finite
