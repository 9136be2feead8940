import math

import numpy as np
import pytest

import diskvolterra as dv
from diskvolterra import SelfMapSymbol, TruncatedSeries, Weight, criteria
from diskvolterra.criteria import boundary_form, scan_window
from diskvolterra.essnorm import _trend_design, essnorm_conditions, window_trend
from diskvolterra.operators import SymbolValues

from conftest import prefix_max_ladder, weighted_table


def sym_of(phi_coeffs, g_coeffs, grid):
    return SelfMapSymbol(TruncatedSeries(phi_coeffs), TruncatedSeries(g_coeffs),
                         grid=grid)


def g_prime(sym):
    """The vgcphi weight u2 = g': identically 1 for g = z, 0 for g = 0."""
    return dv.symbol_weights("vgcphi", sym)["u2"]


def test_essnorm_condition_table():
    zero, specs = essnorm_conditions("cphiug", 0.5)
    assert zero and all(d for _, _, d in specs)
    zero, specs = essnorm_conditions("ugcphi", 0.5)
    assert zero
    zero, specs = essnorm_conditions("vgcphi", 0.5)
    assert not zero and specs == [("u1", ("power", 0.5), False)]
    _, specs = essnorm_conditions("vgcphi", 2.0)
    assert specs == [("u1", ("power", 2.0), False), ("u2", ("power", 1.0), False)]
    _, specs = essnorm_conditions("cphiug", 2.0)
    assert specs == [("u1", ("power", 1.0), False), ("u2", ("log",), False)]
    _, specs = essnorm_conditions("ugcphi", 3.0)
    assert specs == [("u1", ("power", 2.0), False), ("u2", ("power", 1.0), False)]


def test_sequence_limsup_monomials(grid):
    sym = sym_of([0, 1], [0, 1], grid)
    for alpha in (0.5, 1.0, 2.0):
        est, trend, extrap, _ = dv.sequence_limsup(
            g_prime(sym), sym, Weight.standard(alpha),
            ("power", alpha), 10_000, grid=grid)
        assert est == pytest.approx((2 * alpha / math.e) ** alpha, rel=0.02)
        assert extrap is None


def test_sequence_limsup_compact_decay(grid):
    sym = sym_of([0, 0.5], [0, 1], grid)
    est, trend, _, _ = dv.sequence_limsup(g_prime(sym), sym,
                                          Weight.standard(1.0), ("power", 3.0),
                                          4096, grid=grid)
    assert est == 0.0  # (1/2)^3072 underflows


def test_sequence_limsup_zero(grid):
    sym = sym_of([0, 0.5], [0], grid)
    est, _, _, _ = dv.sequence_limsup(g_prime(sym), sym,
                                      Weight.standard(1.0), ("power", 1.0),
                                      256, grid=grid)
    assert est == 0.0


@pytest.mark.parametrize("n_seq", [1, 4, 9, 10])
def test_sequence_limsup_of_a_short_scan(grid, n_seq):
    # the tail is the last scan_window(n_seq) + 1 indices, the whole scan
    # when it is short; the log fit reads only n >= 2, where log n > 0
    sym = sym_of([0, 1], [0, 1], grid)
    u = g_prime(sym)
    ns = np.arange(n_seq - scan_window(n_seq), n_seq + 1)
    assert ns[0] == max(n_seq - 8, 0)
    for weight, scale in ((Weight.standard(1.0), ("power", 1.0)),
                          (Weight.logarithmic(), ("log",))):
        est, trend, extrap, scan = dv.sequence_limsup(u, sym, weight, scale, n_seq,
                                                      grid=grid)
        assert est == float(np.max(scan.scaled[ns])) and math.isfinite(trend)
        if scale[0] == "power" or n_seq < 3:
            assert extrap is None
            continue
        fit = ns[ns >= 2]
        x = 1.0 / np.log(fit.astype(float))
        coef, *_ = np.linalg.lstsq(np.vstack([np.ones_like(x), x]).T,
                                   scan.scaled[fit], rcond=None)
        assert extrap == float(coef[0]) and math.isfinite(extrap)


def test_sequence_limsup_log_extrapolation(grid):
    sym = sym_of([0, 1], [0, 1], grid)
    est, trend, extrap, _ = dv.sequence_limsup(
        g_prime(sym), sym, Weight.logarithmic(), ("log",),
        8192, grid=grid)
    # log n * ||z^n||_{v_log} -> 1 slowly from below; the fit looks ahead
    assert 0.5 < est < 1.0
    assert extrap is not None and est < extrap < 1.2


def test_boundary_limsup_empty_for_small_phi(grid):
    sym = sym_of([0, 0.5], [0, 1], grid)
    u = dv.symbol_weights("vgcphi", sym)["u1"]
    scan = dv.boundary_limsup(u, sym, 1.0, ("power", 1.0), grid)
    assert scan.estimate == 0.0
    assert scan.trend == "empty"
    assert not any(scan.nonempty)


def test_boundary_limsup_weight_cancellation(grid):
    sym = sym_of([0, 1], [0, 1], grid)
    scan = dv.boundary_limsup(g_prime(sym), sym, 1.0, ("power", 1.0), grid)
    assert scan.estimate == pytest.approx(1.0, abs=1e-3)


def test_boundary_limsup_zero_u(grid):
    sym = sym_of([0, 1], [0], grid)
    scan = dv.boundary_limsup(g_prime(sym), sym, 1.0, ("power", 1.0), grid)
    assert scan.estimate == 0.0


def test_essential_norm_refuses_unbounded(grid):
    sym = sym_of([0, 1], [0, 1], grid)
    with pytest.raises(dv.OperatorNotBoundedError):
        dv.essential_norm("vgcphi", sym, 2.0, 1.0, grid, n_seq=1024)


def test_essential_norm_rejects_a_report_for_another_operator(grid):
    sym = sym_of([0, 0.5], [0, 1], grid)
    report = dv.check_boundedness("vgcphi", sym, 1.0, 1.0, grid, n_seq=256)
    assert report.verdict == "bounded"
    for kind, alpha, beta in (("cphivg", 1.0, 1.0), ("vgcphi", 2.0, 1.0),
                              ("vgcphi", 1.0, 2.0)):
        with pytest.raises(ValueError, match="boundedness report"):
            dv.essential_norm(kind, sym, alpha, beta, grid, n_seq=256,
                              boundedness=report)
    est = dv.essential_norm("vgcphi", sym, 1, 1, grid, n_seq=256,
                            boundedness=report)
    assert est.kind == "vgcphi"


def test_essential_norm_reuses_the_boundedness_scans(grid, monkeypatch):
    raw_sequence = criteria.raw_sequence
    calls = []

    def counted(*args):
        calls.append(args)
        return raw_sequence(*args)

    monkeypatch.setattr(criteria, "raw_sequence", counted)
    for kind, alpha in (("vgcphi", 1.0), ("cphivg", 2.5), ("cphiug", 1.5),
                        ("ugcphi", 2.0)):
        sym = sym_of([0, 0.9], [0, 1, 0.5], grid)
        before = len(calls)
        report = dv.check_boundedness(kind, sym, alpha, 1.0, grid, n_seq=512)
        assert report.verdict == "bounded"
        scans = len(calls)
        assert scans - before == len(report.quantities)
        est = dv.essential_norm(kind, sym, alpha, 1.0, grid, n_seq=512,
                                boundedness=report)
        assert len(calls) == scans, kind
        assert est.conditions and not any(c.diagnostic_only for c in est.conditions)
        fresh = dv.essential_norm(kind, sym_of([0, 0.9], [0, 1, 0.5], grid), alpha,
                                  1.0, grid, n_seq=512)
        assert est.combined == fresh.combined


def test_essential_norm_reads_the_scans_of_its_report(monkeypatch):
    # given the boundedness report, the essential norm reads each condition's
    # SequenceScan from it and derives only the diagnostic scans the report
    # lacks; every trend is one lstsq, never np.polyfit, and the estimate is
    # the one computed without the report
    grid = dv.DiskGrid(radii_count=8, angles=64, j_max=12)
    made, scan_of = [], criteria.SequenceScan

    def counted(**fields):
        made.append(fields["scale"])
        return scan_of(**fields)

    def refused(*args, **kwargs):
        raise AssertionError("np.polyfit called")

    cells = [(kind, alpha) for kind in dv.KINDS for alpha in (0.5, 1.0, 1.5, 2.0, 2.5)]
    for kind, alpha in cells:
        sym = sym_of([0, 0.5], [0, 1, 0.5], grid)
        report = dv.check_boundedness(kind, sym, alpha, 1.0, grid, n_seq=128)
        assert report.verdict == "bounded"
        with monkeypatch.context() as m:
            m.setattr(criteria, "SequenceScan", counted)
            m.setattr(np, "polyfit", refused)
            del made[:]
            est = dv.essential_norm(kind, sym, alpha, 1.0, grid, n_seq=128,
                                    boundedness=report)
        diagnostic = [c.scale for c in est.conditions if c.diagnostic_only]
        assert made == diagnostic, (kind, alpha)
        reported = {(q.u_label, q.scale): q.scan for q in report.quantities}
        for c in est.conditions:
            if not c.diagnostic_only:
                assert c.scan is reported[c.u_label, c.scale], (kind, alpha)
        fresh = dv.essential_norm(kind, sym_of([0, 0.5], [0, 1, 0.5], grid), alpha,
                                  1.0, grid, n_seq=128)
        assert est == fresh, (kind, alpha)


def test_essential_norm_derives_the_scans_of_another_n_seq():
    # a report taken at another n_seq holds no scan of this one: each
    # condition's scan is derived at the n_seq asked for
    grid = dv.DiskGrid(radii_count=8, angles=64, j_max=12)
    sym = sym_of([0, 0.5], [0, 1, 0.5], grid)
    report = dv.check_boundedness("cphivg", sym, 2.5, 1.0, grid, n_seq=128)
    est = dv.essential_norm("cphivg", sym, 2.5, 1.0, grid, n_seq=64, boundedness=report)
    assert [len(c.scan.scaled) for c in est.conditions] == [65, 65]
    fresh = dv.essential_norm("cphivg", sym_of([0, 0.5], [0, 1, 0.5], grid), 2.5, 1.0,
                              grid, n_seq=64)
    assert est == fresh


def window_of(n_seq):
    return np.arange(n_seq - scan_window(n_seq), n_seq + 1).astype(float)


@pytest.mark.parametrize("n_seq", [1, 2, 3, 8, 64, 4096])
def test_window_trend_is_polyfit_bit_for_bit(n_seq):
    ns = window_of(n_seq)
    rng = np.random.default_rng(n_seq)
    windows = {"zero": np.zeros(len(ns)), "constant": np.full(len(ns), 0.7),
               "random": rng.random(len(ns)),
               "decaying": 3.0 * (ns + 1.0) ** -0.4,
               "large": 1e7 * rng.random(len(ns)) + ns}
    for name, vals in windows.items():
        want = float(np.polyfit(ns, vals, 1)[0])
        assert repr(window_trend(vals, n_seq)) == repr(want), name


def test_window_trend_keeps_one_design_per_window():
    # the designs are kept per n_seq: calls at 64, 65 and 64 again each read
    # their own window, and the second call at 64 reads the first's design.
    # Both windows hold 17 indices, so a design read for the wrong one would
    # not fail on its shape
    rng = np.random.default_rng(7)
    for n_seq in (64, 65, 64):
        ns = window_of(n_seq)
        vals = rng.random(len(ns))
        assert repr(window_trend(vals, n_seq)) == repr(float(np.polyfit(ns, vals, 1)[0]))
        assert np.array_equal(_trend_design(n_seq)[0], ns)
    assert _trend_design(64) is _trend_design(64)
    assert not np.array_equal(_trend_design(64)[1], _trend_design(65)[1])


def test_boundary_limsup_reads_the_pointwise_table(grid, monkeypatch):
    # the ladders read the row and segment maxima kept per (u, form): the
    # essential norm builds |u| F(|phi|) only for the diagnostic conditions,
    # whose (u, form) no sup has read, and each ladder equals the prefix-max
    # ladder of the full table w (F |u|)
    shell_maxima = criteria.shell_maxima
    builds = []

    def counted(vals):
        builds.append(vals.shape)
        return shell_maxima(vals)

    monkeypatch.setattr(criteria, "shell_maxima", counted)
    # phi = 0.9 z reaches only the first rung, |phi| > 1 - 2^-3: the later
    # rungs, and so the shells between them, are empty
    for phi, kind, alpha in [(phi, kind, alpha) for phi in ([0, 0.9, 0.05], [0, 0.9])
                             for kind, alpha in (("vgcphi", 1.0), ("cphivg", 2.5),
                                                 ("cphiug", 0.5), ("ugcphi", 2.0))]:
        del builds[:]
        sym = sym_of(phi, [0, 1, 0.5], grid)
        ctx = sym.context(grid)
        report = dv.check_boundedness(kind, sym, alpha, 1.0, grid, n_seq=256)
        assert report.verdict == "bounded"
        kept = {key for key in ctx._memo if key[0] == "maxima"}
        assert len(builds) == len(kept), kind
        est = dv.essential_norm(kind, sym, alpha, 1.0, grid, n_seq=256,
                                boundedness=report)
        built = {key for key in ctx._memo if key[0] == "maxima"} - kept
        assert len(builds) == len(kept) + len(built), kind
        assert built == {("maxima", c.u_label, boundary_form(c.scale))
                         for c in est.conditions if c.diagnostic_only}, kind
        weights = {u.label: u for u in dv.symbol_weights(kind, sym).values()}
        values = SymbolValues(sym, grid.points, grid.radii[:, None])
        for c in est.conditions:
            table = weighted_table(values, weights[c.u_label], 1.0, boundary_form(c.scale))
            sups, nonempty = prefix_max_ladder(table, ctx.abs_phi)
            assert c.boundary.sups == sups and c.boundary.nonempty == nonempty, kind
            if phi == [0, 0.9]:
                assert nonempty == [True] + [False] * (len(nonempty) - 1), kind


def test_essential_norm_zero_cases(grid):
    sym = sym_of([0, 0.5], [0, 1, 0.25], grid)
    for kind in ("cphiug", "ugcphi"):
        est = dv.essential_norm(kind, sym, 0.5, 1.0, grid, n_seq=1024)
        assert est.theorem_zero
        assert est.combined == 0.0
        assert est.compact_flag
        assert all(c.diagnostic_only for c in est.conditions)
        assert all(c.sequence_estimate <= 1e-3 for c in est.conditions)


def test_essential_norm_compact_for_small_phi(grid):
    # ||phi||_inf <= 0.9 forces geometric decay of every condition
    sym = sym_of([0, 0.9], [0, 1], grid)
    for kind in dv.KINDS:
        for alpha in (0.5, 1.5):
            est = dv.essential_norm(kind, sym, alpha, alpha, grid, n_seq=4096)
            assert est.combined <= 1e-3, (kind, alpha)
            assert est.compact_flag


def test_essential_norm_non_compact_witness(grid):
    sym = sym_of([0, 1], [0, 1], grid)
    est = dv.essential_norm("vgcphi", sym, 1.0, 1.0, grid, n_seq=4096)
    assert est.combined == pytest.approx(2.0 / math.e, rel=0.05)
    assert not est.compact_flag


def test_two_route_agreement(grid):
    cases = [
        sym_of([0, 1], [0, 1], grid),
        dv.symbol_from_config({"phi": {"family": "mobius", "params": {"a": 0.5}},
                               "g": {"family": "identity"}}, grid=grid),
    ]
    for sym in cases:
        est = dv.essential_norm("vgcphi", sym, 1.0, 1.0, grid, n_seq=4096)
        for c in est.conditions:
            seq, bnd = c.sequence_estimate, c.boundary.estimate
            if seq > 1e-6 and bnd > 1e-6:
                ratio = seq / bnd
                assert 1.0 / 50.0 <= ratio <= 50.0


def test_essential_norm_below_operator_norm_proxy(grid):
    sym = sym_of([0, 1], [0, 1], grid)
    est = dv.essential_norm("vgcphi", sym, 1.0, 1.0, grid, n_seq=2048)
    opnorm = dv.operator_norm_estimate("vgcphi", sym, 1.0, 1.0, grid,
                                       sample_count=200, seed=13)
    assert est.combined <= 100.0 * opnorm


def test_essential_norm_scaling_in_g(grid):
    c = 3.5
    sym1 = sym_of([0, 0.4, 0.3], [0, 1, 1], grid)
    sym2 = sym_of([0, 0.4, 0.3], [0, c, c], grid)
    for kind, alpha in (("vgcphi", 1.0), ("cphiug", 2.0)):
        e1 = dv.essential_norm(kind, sym1, alpha, 1.0, grid, n_seq=1024)
        e2 = dv.essential_norm(kind, sym2, alpha, 1.0, grid, n_seq=1024)
        assert e1.compact_flag == e2.compact_flag
        for c1, c2 in zip(e1.conditions, e2.conditions):
            if c1.sequence_estimate > 0:
                assert c2.sequence_estimate == pytest.approx(
                    c * c1.sequence_estimate, rel=1e-9)
            if c1.boundary.estimate > 0:
                assert c2.boundary.estimate == pytest.approx(
                    c * c1.boundary.estimate, rel=1e-9)
