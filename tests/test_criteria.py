import collections
import math
import warnings

import numpy as np
import pytest

import diskvolterra as dv
from diskvolterra import SelfMapSymbol, TruncatedSeries, Weight, criteria, operators
from diskvolterra.criteria import (_pareto_front, apply_scale, conditions_for, expression,
                                   front_sequence, pointwise_quantity, raw_sequence,
                                   sequence_quantity)
from diskvolterra.operators import SymbolValues
from diskvolterra.spaces import one_minus_sq

from conftest import prefix_max_ladder, weighted_table


def sym_of(phi_coeffs, g_coeffs, grid):
    return SelfMapSymbol(TruncatedSeries(phi_coeffs), TruncatedSeries(g_coeffs),
                         grid=grid)


def g_prime(sym):
    """The vgcphi weight u2 = g': identically 1 for g = z, 0 for g = 0."""
    return dv.symbol_weights("vgcphi", sym)["u2"]


def test_conditions_table_v_type():
    for kind in ("vgcphi", "cphivg"):
        mems, conds = conditions_for(kind, 0.7)
        assert mems == ["u2"] and conds == [("u1", ("power", 0.7))]
        mems, conds = conditions_for(kind, 1.0)
        assert mems == [] and conds == [("u1", ("power", 1.0)), ("u2", ("log",))]
        mems, conds = conditions_for(kind, 2.5)
        assert mems == [] and conds == [("u1", ("power", 2.5)), ("u2", ("power", 1.5))]


def test_conditions_table_u_type():
    for kind in ("cphiug", "ugcphi"):
        mems, conds = conditions_for(kind, 0.7)
        assert mems == ["u1", "u2"] and conds == []
        mems, conds = conditions_for(kind, 1.0)
        assert mems == ["u2"] and conds == [("u1", ("log",))]
        mems, conds = conditions_for(kind, 1.5)
        assert mems == ["u2"] and conds == [("u1", ("power", 0.5))]
        mems, conds = conditions_for(kind, 2.0)
        assert mems == [] and conds == [("u1", ("power", 1.0)), ("u2", ("log",))]
        mems, conds = conditions_for(kind, 3.0)
        assert mems == [] and conds == [("u1", ("power", 2.0)), ("u2", ("power", 1.0))]


def test_conditions_validation():
    with pytest.raises(ValueError):
        conditions_for("vgcphi", 0.0)
    with pytest.raises(ValueError):
        conditions_for("nonsense", 1.0)


def test_apply_scale_log_starts_at_two():
    s = np.ones(6)
    scaled = apply_scale(s, ("log",))
    assert scaled[0] == 0.0 and scaled[1] == 0.0
    assert scaled[2] == pytest.approx(math.log(2.0))


def test_sequence_quantity_zero_symbol(grid):
    sym = sym_of([0, 0.5], [0], grid)
    scan = sequence_quantity(g_prime(sym), sym,
                             Weight.standard(1.0), ("power", 1.0), 64, grid)
    assert np.all(scan.raw == 0.0) and scan.sup == 0.0


def test_sequence_quantity_monomial_asymptotics(grid):
    # phi = z, u = 1: s_n is the monomial norm, so the scaled tail
    # approaches (2 alpha / e)^alpha
    sym = sym_of([0, 1], [0, 1], grid)
    for alpha in (0.5, 1.0, 2.0):
        scan = sequence_quantity(g_prime(sym), sym,
                                 Weight.standard(alpha), ("power", alpha),
                                 10_000, grid)
        window_max = float(np.max(scan.scaled[7500:]))
        assert window_max == pytest.approx((2 * alpha / math.e) ** alpha, rel=0.02)


def test_sequence_quantity_geometric_decay(grid):
    sym = sym_of([0, 0.5], [0, 1], grid)
    scan = sequence_quantity(g_prime(sym), sym,
                             Weight.standard(1.0), ("power", 2.0), 512, grid)
    assert scan.raw[200] <= 0.5 ** 199
    assert scan.scaled[-1] < 1e-50
    assert not scan.at_cap


def test_a_two_term_scan_gives_the_verdict_of_its_neighbours(grid):
    # at n_seq 2 the growth test's trailing chunk once wrapped round to the
    # last value alone, so the log-scaled condition read as growing
    sym = sym_of([0, 0.5], [0, 1], grid)
    verdicts = [dv.check_boundedness("vgcphi", sym, 1.0, 1.0, grid, n_seq=n).verdict
                for n in (1, 2, 3)]
    assert verdicts == ["bounded"] * 3


def test_sequence_quantity_raw_matches_direct_max(grid):
    sym = sym_of([0, 0.2, 0.3], [0, 1], grid)
    u = dv.symbol_weights("vgcphi", sym)["u1"]
    scan = sequence_quantity(u, sym, Weight.standard(1.0), ("power", 1.0), 16, grid)
    A = Weight.standard(1.0)(grid.radii[:, None]) * np.abs(u.on_grid(grid))
    p = np.abs(sym.phi(grid.points))
    for n in (0, 3, 16):
        assert scan.raw[n] == pytest.approx(float(np.max(A * p ** n)), rel=1e-12)


def test_raw_sequence_equals_the_full_table_construction(grid):
    # the weight taken per radius and |phi| gathered once per context give
    # the very numbers of the grid-sized weight table and per-scan gather
    sym = sym_of([0, 0.3, 0.6], [0, 1, 0.5], grid)
    ctx = sym.context(grid)
    p = np.abs(sym.phi(grid.points))
    for kind in dv.KINDS:
        for u in dv.symbol_weights(kind, sym).values():
            for w in (Weight.standard(0.5), Weight.standard(2.5), Weight.logarithmic()):
                A = w(grid.radii[:, None]) * np.abs(u.on_grid(grid))
                order = np.argsort(-p.ravel(), kind="stable")
                want = front_sequence(*_pareto_front(A, p.ravel()[order], order), 64)
                assert np.array_equal(raw_sequence(ctx, u, w, 64), want), (kind, u.label)


SMALL_GRID = dict(radii_count=8, angles=64, j_max=12)

TABLE_SYMBOLS = (
    {"phi": {"family": "mobius", "params": {"a": 0.5}}, "g": {"family": "identity"}},
    {"phi": {"family": "scaled_identity", "params": {"c": 1.0}},
     "g": {"family": "log_cesaro"}},
    {"phi": {"family": "poly", "params": {"coeffs": [0, 0.3, 0.6]}},
     "g": {"family": "poly", "params": {"coeffs": [0, 1, 0.5]}}},
)


def direct_expression(values, u, beta, form):
    """(1-|z|^2)^beta |u| F(|phi|) in one pass over a value provider, the
    way every table was built before the context kept per-factor tables."""
    uvals = u.formula(values)
    y = one_minus_sq(values.abs_phi)
    factor = np.log(2.0 / y) if form[0] == "log" else y ** (-form[1])
    return one_minus_sq(values.radius) ** beta * np.abs(uvals) * factor


def test_context_table_equals_the_direct_formula():
    # the weight taken per radius, |u| kept per weight and F computed into
    # the output give the very numbers of the one-pass formula
    grid = dv.DiskGrid(**SMALL_GRID)
    for spec in TABLE_SYMBOLS:
        sym = dv.symbol_from_config(spec, grid=grid)
        ctx = sym.context(grid)
        for kind in dv.KINDS:
            for u in dv.symbol_weights(kind, sym).values():
                for beta in (0.5, 2.5):
                    for form in (("power", 0.0), ("power", 1.5), ("log",)):
                        values = SymbolValues(sym, grid.points, grid.radii[:, None])
                        want = direct_expression(values, u, beta, form)
                        got = expression(ctx, u, beta, form)
                        assert np.array_equal(got, want), (spec, kind, u.label, beta, form)


def grid_arrays(obj, seen=None):
    """Every numpy array reachable from obj through attributes, dicts and
    sequences."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from grid_arrays(key, seen)
            yield from grid_arrays(value, seen)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from grid_arrays(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from grid_arrays(vars(obj), seen)


def test_context_keeps_no_complex_symbol_table():
    grid = dv.DiskGrid(**SMALL_GRID)
    sym = sym_of([0, 0.5, 0.25], [0, 1, 0.5], grid)
    for kind in dv.KINDS:
        for alpha in (0.5, 1.0, 2.5):
            report = dv.check_boundedness(kind, sym, alpha, 1.0, grid, n_seq=64)
            assert report.verdict == "bounded"
            dv.essential_norm(kind, sym, alpha, 1.0, grid, n_seq=64, boundedness=report)
    ctx = sym.context(grid)
    kept = [a for a in grid_arrays(ctx) if a.size >= grid.points.size]
    assert len(kept) >= 8 + 3       # |u| of the eight weights, the |phi| tables
    for a in kept:
        if a is not grid.points:    # the grid's own points, read by providers
            assert not np.iscomplexobj(a), (a.dtype, a.shape)


def test_context_keeps_everything_in_one_memo():
    # the |phi| tables, |u| of every weight, the scans, sups, rung layout and
    # the maxima of |u| F(|phi|) per (u, form) all sit in the memo; outside it
    # the context holds only the grid's own arrays. The grid-sized arrays of
    # the memo are the |phi| tables, |u| and the rung indices: no table of
    # |u| F(|phi|), nor of any beta, is kept
    grid = dv.DiskGrid(**SMALL_GRID)
    sym = sym_of([0, 0.9, 0.05], [0, 1, 0.5], grid)
    for kind in dv.KINDS:
        for alpha in (0.5, 1.0, 2.5):
            report = dv.check_boundedness(kind, sym, alpha, 1.0, grid, n_seq=64)
            assert report.verdict == "bounded"
            dv.essential_norm(kind, sym, alpha, 1.0, grid, n_seq=64, boundedness=report)
    ctx = sym.context(grid)
    memo = ctx._memo
    outside = {key: value for key, value in vars(ctx).items()
               if key not in ("_memo", "_sym")}
    for a in grid_arrays(outside):
        assert a is grid.points or a.base is grid.radii, (a.dtype, a.shape)
    kinds = {key[0] if isinstance(key, tuple) else key for key in memo}
    assert kinds == {"abs_phi", "desc_order", "abs_phi_desc", "abs_u", "scan", "sup",
                     "rungs", "maxima"}
    assert {key[1] for key in memo if key[0] == "abs_u"} == set(dv.KINDS)
    assert ctx.abs_phi is memo["abs_phi"]
    idx = memo["rungs"][1]
    assert 0 < idx.size < grid.points.size
    tables = [memo["abs_phi"], memo["desc_order"], memo["abs_phi_desc"], idx]
    tables += [t for key, pair in memo.items() if key[0] == "abs_u" for t in pair]
    big = [a for a in grid_arrays(memo) if a.size >= idx.size]
    assert len(big) == len(tables) and all(any(a is t for t in tables) for a in big)
    n_segs = len(memo["rungs"][2])
    for key, value in memo.items():
        if key[0] == "maxima":
            row_max, row_col, seg_max = value
            assert row_max.shape == row_col.shape == grid.radii.shape, key
            # a membership table (F = 1) takes its segment maxima in a ladder only
            if key[2] == ("power", 0.0):
                assert seg_max is None, key
            else:
                assert seg_max.shape == (n_segs,), key


FORMS = (("power", 0.0), ("power", 1.5), ("log",))


def test_weighted_maxima_read_the_full_table_exactly():
    # rounding is monotone, so the shell maxima, the zoom's start point and
    # the ladder that each beta reads from the maxima of |u| F(|phi|) are
    # those of the full table w (F |u|), bit for bit
    grid = dv.DiskGrid(**SMALL_GRID)
    for spec in TABLE_SYMBOLS:
        sym = dv.symbol_from_config(spec, grid=grid)
        ctx = sym.context(grid)
        values = SymbolValues(sym, grid.points, grid.radii[:, None])
        for kind in dv.KINDS:
            for u in dv.symbol_weights(kind, sym).values():
                for beta in (0.5, 2.5):
                    for form in FORMS:
                        case = (spec, kind, u.label, beta, form)
                        table = weighted_table(values, u, beta, form)
                        est = pointwise_quantity(u, sym, beta, form, grid)
                        assert np.array_equal(est.shell_max, table.max(axis=1)), case
                        i = int(np.argmax(est.shell_max))
                        row_col = criteria.table_maxima(ctx, u, form)[1]
                        assert table[i, row_col[i]] == table.max(), case
                        assert est.value >= table.max(), case
                        _, sups, nonempty = criteria.boundary_ladder(ctx, u, beta, form)
                        assert (list(sups), list(nonempty)) == prefix_max_ladder(
                            table, ctx.abs_phi), case


def test_boundary_factor_is_taken_once_per_weight_and_form(monkeypatch):
    # the radial weight is applied per radius, so two betas of one (u, form)
    # evaluate F(|phi|) over the grid once, and the form F = 1 never does
    grid = dv.DiskGrid(**SMALL_GRID)
    factor = criteria.boundary_factor
    calls = collections.Counter()

    def counted(abs_phi, form):
        if np.shape(abs_phi) == grid.points.shape:
            calls[form] += 1
        return factor(abs_phi, form)
    monkeypatch.setattr(criteria, "boundary_factor", counted)

    sym = sym_of([0, 0.9, 0.05], [0, 1, 0.5], grid)
    ctx = sym.context(grid)
    u = dv.symbol_weights("cphivg", sym)["u2"]
    for beta in (0.5, 2.5):
        for form in FORMS:
            pointwise_quantity(u, sym, beta, form, grid)
            criteria.boundary_ladder(ctx, u, beta, form)
    assert calls == {("power", 1.5): 1, ("log",): 1}

    calls.clear()
    sym = sym_of([0, 0.9, 0.05], [0, 1, 0.5], grid)
    for kind in dv.KINDS:
        for alpha in (0.5, 1.0, 2.0, 2.5):
            for beta in (1.0, 2.0):
                report = dv.check_boundedness(kind, sym, alpha, beta, grid, n_seq=64)
                dv.essential_norm(kind, sym, alpha, beta, grid, n_seq=64,
                                  boundedness=report)
    forms = [key[2] for key in sym.context(grid)._memo
             if key[0] == "maxima" and key[2] != ("power", 0.0)]
    assert forms and sum(calls.values()) == len(forms)


def test_a_sweep_part_takes_F_once_per_form_of_its_batch(monkeypatch, tmp_path):
    # one sweep part batches the sups of all its cells, and the batch builds
    # its tables grouped by form: F(|phi|) over the grid once per form other
    # than F = 1. Only the essential norm's diagnostic (u, form) pairs, which
    # no sup reads, build a table later, each alone. No membership table
    # (F = 1) takes segment maxima, since no ladder asks for one
    from diskvolterra import cli
    factor = criteria.boundary_factor
    calls = collections.Counter()
    shape = dv.DiskGrid(**SMALL_GRID).points.shape
    contexts = []

    def counted(abs_phi, form):
        if np.shape(abs_phi) == shape:
            calls[form] += 1
        return factor(abs_phi, form)

    def built(spec, grid):
        sym = dv.symbol_from_config(spec, grid=grid)
        contexts.append(sym.context(grid))
        return sym

    monkeypatch.setattr(criteria, "boundary_factor", counted)
    monkeypatch.setattr(cli, "symbol_from_config", built)
    cfg = {"kinds": list(dv.KINDS), "alphas": [0.5, 1.0, 1.5, 2.0, 2.5],
           "betas": [1.0, 2.0], "nseq": 64, "grid": SMALL_GRID,
           "phis": [{"family": "scaled_identity", "params": {"c": 0.5}}],
           "gs": [{"family": "poly", "params": {"coeffs": [0.0, 0.0, 1.0]}}]}
    rows = cli.run_sweep(cfg, tmp_path)
    assert {row[cli.SWEEP_HEADER.index("verdict")] for row in rows} == {"bounded"}
    memo = contexts[0]._memo
    batch = {key[3] for key in memo if key[0] == "sup"} - {("power", 0.0)}
    later = collections.Counter(key[2] for key in memo
                                if key[0] == "maxima" and key[2] not in batch
                                and key[2] != ("power", 0.0))
    assert len(batch) == 6 and sum(later.values()) == 4
    assert calls == collections.Counter(dict.fromkeys(batch, 1)) + later
    memberships = [value for key, value in memo.items()
                   if key[0] == "maxima" and key[2] == ("power", 0.0)]
    assert memberships and all(seg_max is None for *_, seg_max in memberships)


def test_a_symbol_weight_is_its_kind_and_slot():
    # the label a context keys its tables by and the formula the zoom
    # evaluates both come from WEIGHT_FORMULAS, so they cannot disagree:
    # the grid max, the ladder, the scan and the refined sup all read g' = 1
    grid = dv.DiskGrid(**SMALL_GRID)
    sym = sym_of([0, 1], [0, 1], grid)
    with pytest.raises(TypeError):   # a label with a formula of its own
        operators.SymbolWeight("g'", lambda v: 5.0 * np.ones_like(v.z), sym, "vgcphi")
    u = operators.SymbolWeight(sym, "vgcphi", 1)
    assert (u.label, u.formula) == operators.WEIGHT_FORMULAS["vgcphi"][1]
    assert u == dv.symbol_weights("vgcphi", sym)["u2"]
    ctx = sym.context(grid)
    assert np.array_equal(ctx.abs_u(u), np.ones(grid.points.shape))
    est = pointwise_quantity(u, sym, 1.0, ("power", 0.0), grid)
    table = expression(ctx, u, 1.0, ("power", 0.0))
    assert est.value == float(table.max())
    _, sups, _ = dv.criteria.boundary_ladder(ctx, u, 1.0, ("power", 0.0))
    assert max(sups) <= est.value <= 1.0
    scan = sequence_quantity(u, sym, Weight.standard(1.0), ("power", 0.0), 8, grid)
    assert scan.raw[0] == est.value


def test_each_weight_is_evaluated_over_the_grid_once_per_context(monkeypatch):
    grid = dv.DiskGrid(**SMALL_GRID)
    calls = collections.Counter()

    def counted(label, formula):
        def formula_counted(values):
            if np.shape(values.z) == grid.points.shape:
                calls[label] += 1
            return formula(values)
        return formula_counted
    for kind, pair in operators.WEIGHT_FORMULAS.items():
        monkeypatch.setitem(operators.WEIGHT_FORMULAS, kind,
                            tuple((label, counted(label, f)) for label, f in pair))

    sym = sym_of([0, 0.5, 0.25], [0, 1, 0.5], grid)
    for kind in dv.KINDS:
        for alpha in (0.5, 1.0, 2.0, 2.5):
            for beta in (1.0, 2.0):
                report = dv.check_boundedness(kind, sym, alpha, beta, grid, n_seq=64)
                if report.verdict == "bounded":
                    dv.essential_norm(kind, sym, alpha, beta, grid, n_seq=64,
                                      boundedness=report)
    labels = [label for pair in operators.WEIGHT_FORMULAS.values() for label, _ in pair]
    assert calls == collections.Counter(labels)


def loop_sequence(A, p, n_seq):
    """The per-n scan that ``front_sequence`` replaces: max of A * p^n,
    multiplying by p once per step."""
    s = np.empty(n_seq + 1)
    cur = A.copy()
    for n in range(n_seq + 1):
        s[n] = cur.max() if cur.size else 0.0
        cur *= p
    return s


def random_fronts(rng):
    """Pareto fronts of random points with zeros in A and p and ties in p,
    plus a single point and an empty front."""
    yield np.array([0.7]), np.array([0.99])
    yield np.array([]), np.array([])
    for _ in range(60):
        size = int(rng.integers(1, 400))
        A = rng.random(size) * 10.0 ** rng.uniform(-3, 3)
        p = np.round(rng.random(size) ** 0.05, int(rng.integers(1, 5)))
        A[rng.random(size) < 0.1] = 0.0
        p[rng.random(size) < 0.1] = 0.0
        p[int(rng.integers(size))] = rng.choice([0.0, 1.0])
        order = np.argsort(-p, kind="stable")
        yield _pareto_front(A, p[order], order)


def test_front_sequence_matches_the_loop(rng):
    # below the smallest normal float both sides lose relative precision
    tiny = np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A, p in random_fronts(rng):
            for n_seq in (1, 2, 4096):
                want = loop_sequence(A, p, n_seq)
                got = front_sequence(A, p, n_seq)
                assert got.shape == want.shape
                assert got[0] == want[0]
                assert np.all(np.abs(got - want) <= 1e-12 * want + tiny), (A.size, n_seq)


def test_pointwise_quantity_weight_cancellation(grid):
    # phi = z, g = z, alpha = beta: expression reduces to |z| with sup 1
    sym = sym_of([0, 1], [0, 1], grid)
    u = dv.symbol_weights("vgcphi", sym)["u1"]
    est = pointwise_quantity(u, sym, 1.0, ("power", 1.0), grid)
    assert est.value == pytest.approx(1.0, abs=1e-3)
    assert not est.diverging


def test_pointwise_quantity_zero(grid):
    sym = sym_of([0, 0.5], [0], grid)
    est = pointwise_quantity(g_prime(sym), sym, 1.0, ("power", 2.0), grid)
    assert est.value == 0.0


def test_pointwise_quantity_small_phi_bounded(grid):
    # 1 - |phi|^2 >= 3/4 when phi = z/2, so the power factor is <= (4/3)^alpha
    sym = sym_of([0, 0.5], [0, 1], grid)
    u = dv.symbol_weights("vgcphi", sym)["u1"]
    est = pointwise_quantity(u, sym, 1.0, ("power", 2.0), grid)
    assert est.value <= (4.0 / 3.0) ** 2
    assert not est.diverging


def test_pointwise_quantity_divergence_flag(grid):
    # alpha > beta with phi = z: the ratio blows up at the boundary
    sym = sym_of([0, 1], [0, 1], grid)
    u = dv.symbol_weights("vgcphi", sym)["u1"]
    est = pointwise_quantity(u, sym, 1.0, ("power", 2.0), grid)
    assert est.diverging
    assert est.value > 1e6


def test_check_boundedness_identity_like(grid):
    # g = 1, phi = z: the operator is f -> f - f(0)
    sym = sym_of([0, 1], [1], grid)
    rep = dv.check_boundedness("vgcphi", sym, 1.0, 1.0, grid, n_seq=2048)
    assert rep.verdict == "bounded"
    assert len(rep.quantities) == 2


def test_check_boundedness_membership_only_case(grid):
    # 0 < alpha < 1 for ugcphi demands two memberships and nothing else;
    # polynomial symbols always satisfy them
    sym = sym_of([0, 0.5], [0, 0.5, 0.25, 0.1], grid)
    rep = dv.check_boundedness("ugcphi", sym, 0.7, 1.0, grid, n_seq=256)
    assert rep.verdict == "bounded"
    assert len(rep.quantities) == 0
    assert len(rep.memberships) == 2
    assert all(m.finite for m in rep.memberships)


def test_check_boundedness_divergence_evidence(grid):
    sym = sym_of([0, 1], [0, 1], grid)
    rep = dv.check_boundedness("vgcphi", sym, 2.0, 1.0, grid, n_seq=2048)
    assert rep.verdict == "not-determined"
    assert any(q.divergence_evidence for q in rep.quantities)


def test_check_boundedness_validation(grid):
    sym = sym_of([0, 0.5], [0, 1], grid)
    with pytest.raises(ValueError):
        dv.check_boundedness("vgcphi", sym, 1.0, 0.0, grid)


def test_scale_equivariance_in_g(grid):
    c = 2.5
    sym1 = sym_of([0, 0.4, 0.2], [0, 1, 0.5], grid)
    sym2 = sym_of([0, 0.4, 0.2], [0, c, 0.5 * c], grid)
    for alpha, beta in ((1.0, 1.0), (2.5, 1.5)):
        r1 = dv.check_boundedness("vgcphi", sym1, alpha, beta, grid, n_seq=512)
        r2 = dv.check_boundedness("vgcphi", sym2, alpha, beta, grid, n_seq=512)
        assert r1.verdict == r2.verdict
        for q1, q2 in zip(r1.quantities, r2.quantities):
            assert q2.sequence_side == pytest.approx(c * q1.sequence_side, rel=1e-9)
            assert q2.pointwise_side == pytest.approx(c * q1.pointwise_side, rel=1e-9)
        for m1, m2 in zip(r1.memberships, r2.memberships):
            assert m2.norm == pytest.approx(c * m1.norm, rel=1e-9)


def test_consistency_with_sampled_operator_norm(grid):
    # bounded verdict implies the sampled operator norm is dominated by a
    # constant-tracked combination of the finite quantities
    sym = sym_of([0, 0.5], [0, 1, 1], grid)
    for kind, alpha, beta in (("vgcphi", 1.0, 1.0), ("cphiug", 2.0, 1.0)):
        rep = dv.check_boundedness(kind, sym, alpha, beta, grid, n_seq=1024)
        assert rep.verdict == "bounded"
        est = dv.operator_norm_estimate(kind, sym, alpha, beta, grid,
                                        sample_count=50, seed=5)
        total = (sum(q.sequence_side for q in rep.quantities)
                 + sum(m.norm for m in rep.memberships)
                 + abs(sym.g(sym.phi(0.0))) + abs(sym.g(0.0))
                 + abs(sym.g_d1(0.0)) + abs(sym.g_d1(sym.phi(0.0))))
        assert est <= 100.0 * total
