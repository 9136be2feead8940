"""The batched zoom: every pointwise sup of a symbol refined in one loop.

A sup taken in a batch has the value, argmax, divergence flag and coarse
shell maxima it has when taken alone, bit for bit; a sweep makes one
batched magnitude call per zoom level and symbol; and a batch that meets
a non-finite value keeps nothing, so each cell fails as it does alone.
"""

import collections
import math

import numpy as np
import pytest

import diskvolterra as dv
from diskvolterra import cli, criteria
from diskvolterra.cli import run_sweep
from diskvolterra.spaces import ZOOM_PATCH, ZOOM_STOP

#: inner radii 1/16 apart and angles 2 pi / 512 apart, so that zooms at
#: inner radii take more levels than zooms near the cap
GRID = dict(radii_count=8, angles=512, j_max=12)

#: a polynomial, a Mobius and a log_cesaro symbol; phi = z puts the sups of
#: the growing forms on the cap shell, g = z puts the memberships of g' at 0
BATCH_SYMBOLS = (
    {"phi": {"family": "scaled_identity", "params": {"c": 1.0}},
     "g": {"family": "poly", "params": {"coeffs": [0, 1, 0.5]}}},
    {"phi": {"family": "mobius", "params": {"a": 0.5}}, "g": {"family": "identity"}},
    {"phi": {"family": "scaled_identity", "params": {"c": 1.0}},
     "g": {"family": "log_cesaro"}},
)
BETAS = (0.5, 1.0, 2.5)
FORMS = (("power", 0.0), ("power", 1.5), ("log",))


def zoom_levels(grid):
    """The most levels a zoom on ``grid`` takes: its first patch spans two
    grid gaps in r and two in theta, and each level divides the spacing by
    half the patch's gap count."""
    half = (ZOOM_PATCH - 1) // 2
    first = max(np.max(np.diff(grid.radii)), 2.0 * np.pi / grid.n_angles) / half
    return 1 + math.ceil(math.log(first / ZOOM_STOP) / math.log(half))


def every_request(sym):
    return [(u, beta, form) for kind in dv.KINDS
            for u in dv.symbol_weights(kind, sym).values()
            for beta in BETAS for form in FORMS]


@pytest.mark.parametrize("spec", BATCH_SYMBOLS, ids=("poly", "mobius", "log_cesaro"))
def test_a_batched_sup_is_the_sup_taken_alone(spec, monkeypatch):
    grid = dv.DiskGrid(**GRID)
    levels = collections.Counter()
    zoom = criteria.zoom_suprema

    def counting_zoom(magnitude, grid, coarse):
        def counted(rows, r, z):
            levels.update(rows.tolist())
            return magnitude(rows, r, z)
        return zoom(counted, grid, coarse)
    monkeypatch.setattr(criteria, "zoom_suprema", counting_zoom)

    batched = dv.symbol_from_config(spec, grid=grid)
    requests = every_request(batched)
    estimates = criteria.pointwise_suprema(batched, requests, grid)
    batch_levels = [levels[k] for k in range(len(requests))]
    assert len(set(batch_levels)) > 1      # the zooms leave the loop at other levels

    alone = dv.symbol_from_config(spec, grid=grid)
    radii = []
    for (u, beta, form), est in zip(every_request(alone), estimates):
        levels.clear()
        want = criteria.pointwise_quantity(u, alone, beta, form, grid)
        case = (u.label, beta, form)
        assert est.value == want.value and est.argmax == want.argmax, case
        assert est.diverging == want.diverging, case
        assert np.array_equal(est.shell_max, want.shell_max), case
        assert levels[0] == batch_levels[len(radii)], case
        radii.append(int(np.argmax(want.shell_max)))
    # the batch holds sups at inner radii and on the cap shell
    assert min(radii) < GRID["radii_count"] and max(radii) == len(grid.radii) - 1


def test_the_batch_keeps_the_memo_keys_and_takes_nothing_twice():
    grid = dv.DiskGrid(**GRID)
    sym = dv.symbol_from_config(BATCH_SYMBOLS[0], grid=grid)
    u = dv.symbol_weights("cphivg", sym)["u1"]
    first = criteria.pointwise_suprema(sym, [(u, 1.0, ("log",)), (u, 1.0, ("log",))], grid)
    assert first[0] is first[1]
    assert first[0] is sym.context(grid)._memo[("sup", u.label, 1.0, ("log",))]
    assert criteria.pointwise_quantity(u, sym, 1.0, ("log",), grid) is first[0]


SWEEP = {"kinds": list(dv.KINDS),
         "phis": [{"family": "scaled_identity", "params": {"c": 0.5}},
                  {"family": "mobius", "params": {"a": 0.5}}],
         "gs": [{"family": "identity"}],
         "alphas": [0.5, 1.0, 2.0, 2.5], "betas": [1.0, 2.0], "nseq": 64, "grid": GRID}


def test_a_sweep_makes_one_magnitude_call_per_level_and_symbol(tmp_path, monkeypatch):
    grid = dv.DiskGrid(**GRID)
    calls = []
    provider = criteria.SymbolValues

    class Counted(provider):
        def __init__(self, sym, z, radius=None):
            if np.shape(z)[-2:] == (ZOOM_PATCH, ZOOM_PATCH):
                calls.append(np.size(z) // ZOOM_PATCH ** 2)
            super().__init__(sym, z, radius)
    monkeypatch.setattr(criteria, "SymbolValues", Counted)
    run_sweep(SWEEP, tmp_path / "out")
    n_symbols = len(SWEEP["phis"]) * len(SWEEP["gs"])
    assert 0 < len(calls) <= n_symbols * zoom_levels(grid)
    assert max(calls) > 1


def sweep_files(path):
    return {p.relative_to(path): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def test_a_sweep_with_non_finite_cells_reports_as_one_sup_at_a_time(tmp_path, monkeypatch):
    # at alpha 120 the conditions' F(|phi|) = (1-|phi|^2)^-118 overflows near
    # the cap on the phi = z and Mobius cells, which then fail, while their
    # alpha-1 cells and the phi = z/2 cells run
    cfg = dict(SWEEP, phis=[{"family": "scaled_identity", "params": {"c": 1.0}}] + SWEEP["phis"],
               alphas=[1.0, 120.0], betas=[1.0])
    with np.errstate(all="ignore"):
        batched = run_sweep(cfg, tmp_path / "batched")
        # as before the batch: no sups taken ahead, each taken alone in order
        batch = criteria.pointwise_suprema
        monkeypatch.setattr(criteria, "pointwise_suprema", lambda sym, requests, grid=None: [
            batch(sym, [request], grid)[0] for request in requests])
        for module in (criteria, cli):
            monkeypatch.setattr(module, "take_sups", lambda *args: None)
        alone = run_sweep(cfg, tmp_path / "alone")
    errors = [row[-1] for row in batched]
    assert "non-finite value in supremum sweep" in errors and "" in errors
    assert batched == alone
    assert sweep_files(tmp_path / "batched") == sweep_files(tmp_path / "alone")


def test_a_failed_batch_keeps_no_sup(tmp_path):
    grid = dv.DiskGrid(**GRID)
    sym = dv.symbol_from_config(BATCH_SYMBOLS[0], grid=grid)
    u = dv.symbol_weights("vgcphi", sym)["u1"]
    requests = [(u, 1.0, ("power", 0.0)), (u, 1.0, ("power", 400.0))]
    with np.errstate(all="ignore"), pytest.raises(dv.NonFiniteValueError):
        criteria.pointwise_suprema(sym, requests, grid)
    assert not any(key[0] == "sup" for key in sym.context(grid)._memo)
    criteria.take_sups(sym, requests[:1], grid)
    assert ("sup", u.label, 1.0, ("power", 0.0)) in sym.context(grid)
