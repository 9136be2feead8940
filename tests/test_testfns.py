import math

import numpy as np
import pytest

import diskvolterra as dv
from diskvolterra import TestFamily
from diskvolterra.testfns import FAMILY_KINDS, _NEEDS_ALPHA, _NEEDS_OUTER_HALF


def make(kind, a=0.8, alpha=1.5):
    return TestFamily(kind, a, alpha if kind in _NEEDS_ALPHA else None)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TestFamily("f_a", 0.0, 1.0)
    with pytest.raises(ValueError):
        TestFamily("f_a", 1.0, 1.0)
    with pytest.raises(ValueError):
        TestFamily("f_a", 0.8)            # alpha required
    with pytest.raises(ValueError):
        TestFamily("k_a", 0.4)            # requires |a| > 1/2
    with pytest.raises(ValueError):
        TestFamily("no_such", 0.8)
    TestFamily("t_a_log", 0.3)            # unrestricted in a


def test_derivatives_match_finite_differences(rng):
    # step 1e-5 for order 1; order 2 needs 1e-4 to stay above the float64
    # cancellation floor (~4 eps |f| / h^2) while meeting the 1e-6 tolerance
    h1, h2 = 1e-5, 1e-4
    for kind in FAMILY_KINDS:
        fam = make(kind, a=0.8 + 0.05j, alpha=1.5)
        for _ in range(10):
            z = 0.5 * rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform())
            d1 = (fam(z + h1) - fam(z - h1)) / (2 * h1)
            d2 = (fam(z + h2) - 2 * fam(z) + fam(z - h2)) / h2 ** 2
            assert abs(fam.eval(z, 1) - d1) < 1e-6, kind
            assert abs(fam.eval(z, 2) - d2) < 1e-6, kind


def test_h_a_vanishes_at_zero():
    for alpha in (0.5, 1.0, 2.5):
        fam = TestFamily("h_a", 0.7 - 0.2j, alpha)
        assert fam(0.0) == pytest.approx(0.0, abs=1e-15)


def test_h_a_integral_quadrature_oracle():
    # h_a is (1/conj(a)) * integral of (1-|a|^2)/(1-conj(a) w)^alpha along [0, z]
    a, alpha = 0.8, 1.5
    fam = TestFamily("h_a", a, alpha)
    z = 0.4 + 0.3j
    ts = np.linspace(0.0, 1.0, 20001)
    w = ts * z
    integrand = (1 - a * a) / np.exp(alpha * np.log(1 - np.conj(a) * w))
    quad = np.trapezoid(integrand, ts) * z / np.conj(a)
    assert abs(fam(z) - quad) < 1e-8


def test_pinned_identities_exact():
    for a in (0.6, 0.8, 0.95):
        s = 1 - a * a
        h_n = TestFamily("h_n", a)
        assert abs(h_n.eval(a, 1)) < 1e-12
        assert abs(h_n.eval(a, 2) - (-a / s)) < 1e-10

        g_n = TestFamily("g_n", a)
        ell = math.log(1.0 / s)
        assert abs(g_n(a)) < 1e-12
        assert abs(g_n.eval(a, 1) - ell) < 1e-12

        f_n = TestFamily("f_n", a)
        lam = math.log(2.0 / s)
        assert abs(abs(f_n.eval(a, 1)) - lam) < 1e-12

        o_n = TestFamily("O_n", a)
        assert abs(o_n.eval(a, 1) - 2 * a / s) < 1e-10


def test_g_a_derivative_open_question_formula():
    # direct differentiation of the printed formulas gives
    # g_a'(a) = (1-|a|^2)^(1-alpha) (1 - 1/conj(a)), not zero
    for a in (0.6, 0.9):
        for alpha in (0.5, 1.5, 2.0):
            fam = TestFamily("g_a", a, alpha)
            s = 1 - a * a
            predicted = s ** (1 - alpha) * (1 - 1 / a)
            assert abs(fam.eval(a, 1) - predicted) < 1e-10


def test_norm_bounds_over_parameter_grid(grid):
    report = dv.verify_family_claims(a_grid=[0.6, 0.8, 0.9, 0.95, 0.99],
                                     alpha_grid=[0.5, 1.5], grid=grid)
    for kind in FAMILY_KINDS:
        for block in report[kind]["norm_bound"]:
            assert block["max_over_min"] <= 20.0, (kind, block["alpha"])
            # no blowup at the outermost parameter
            norms = block["norms"]
            assert norms[0.99] <= 20.0 * min(norms.values())


def test_claim_report_structure(grid):
    report = dv.verify_family_claims(a_grid=[0.8], alpha_grid=[1.5], grid=grid)
    assert set(report.keys()) == set(FAMILY_KINDS)
    ga = [c for c in report["g_a"]["claims"] if c["claim"] == "g_a'(a) = 0"]
    assert ga and all(c["status"] == "mismatch" for c in ga)
    for c in ga:
        assert "observed" in c and abs(c["observed"]) > 0
    hn = [c for c in report["h_n"]["claims"] if c["claim"].startswith("h_n'")]
    assert hn and all(c["status"] == "verified" for c in hn)


def test_to_series_fit():
    fam = TestFamily("f_a", 0.8, 1.5)
    fitted, residual = dv.to_series(fam, degree=256)
    assert residual < 1e-8
    for z in (0.2, -0.4 + 0.3j):
        assert abs(fitted(z) - fam(z)) < 1e-8


def test_family_zygmund_norm_matches_series_route(grid):
    fam = TestFamily("t_a_log", 0.7)
    fitted, residual = dv.to_series(fam, degree=400)
    assert residual < 1e-7
    closed = dv.family_zygmund_norm(fam, 2.0, grid)
    series_route = dv.zygmund_norm(fitted, 2.0, grid)
    assert closed == pytest.approx(series_route, rel=1e-4)


SMALL = dv.DiskGrid(radii_count=8, angles=64, j_max=16)


def test_eval_with_a_shared_log_gives_the_same_bits():
    for kind in FAMILY_KINDS:
        fam = make(kind, a=0.6 + 0.5j)
        L = dv.testfns.log_kernel(fam.a, SMALL.points)
        for order in (0, 1, 2):
            own = fam.eval(SMALL.points, order)
            shared = fam.eval(SMALL.points, order, L)
            assert np.array_equal(own, shared, equal_nan=True), (kind, order)


def test_verify_norms_equal_each_familys_own_norm():
    # the report takes one grid log per a for all families; each norm must
    # be the one the family computes with its own log, bit for bit
    a_grid, alpha_grid = [0.7, 0.5 + 0.6j], [0.5, 2.0]
    report = dv.verify_family_claims(a_grid=a_grid, alpha_grid=alpha_grid, grid=SMALL)
    for kind in FAMILY_KINDS:
        alphas = alpha_grid if kind in _NEEDS_ALPHA else [None]
        blocks = report[kind]["norm_bound"]
        assert len(blocks) == len(alphas)
        for alpha, block in zip(alphas, blocks):
            assert list(block["norms"]) == [float(abs(a)) for a in a_grid]
            for a in a_grid:
                own = dv.family_zygmund_norm(TestFamily(kind, a, alpha), block["alpha"], SMALL)
                assert block["norms"][float(abs(a))] == own, (kind, a, alpha)


class _CountingNumpy:
    """numpy, with the calls of log on a grid-sized array counted."""

    def __init__(self, size):
        self.size, self.grid_logs = size, 0

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x, *args, **kwargs):
        if np.size(x) == self.size:
            self.grid_logs += 1
        return np.log(x, *args, **kwargs)


def test_verify_takes_one_grid_log_per_a(monkeypatch):
    counting = _CountingNumpy(SMALL.points.size)
    monkeypatch.setattr(dv.testfns, "np", counting)
    dv.verify_family_claims(a_grid=[0.7, 0.9], alpha_grid=[1.0, 2.0], grid=SMALL)
    assert counting.grid_logs == 2


def test_family_without_an_admissible_a_reports_nothing():
    report = dv.verify_family_claims(a_grid=[0.3], alpha_grid=[1.0], grid=SMALL)
    for kind in FAMILY_KINDS:
        if kind in _NEEDS_OUTER_HALF:
            assert report[kind] == {"claims": [], "norm_bound": []}, kind
        else:
            assert [list(b["norms"]) for b in report[kind]["norm_bound"]] == [[0.3]], kind
