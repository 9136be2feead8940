"""The refinement rule of ``grid_supremum``'s zoom.

A refined sup is never below the coarse grid max; on the standard sweep's
pointwise sups it falls short of a golden-section reference by at most
REL_TOL relative, and most agree with it to AGREE_TOL; and it calls
``magnitude`` once for the grid and once per zoom level.
"""

import math

import numpy as np
import pytest

import diskvolterra as dv
from diskvolterra.cli import DEFAULT_SWEEP_CONFIG
from diskvolterra.criteria import conditions_for, expression, pointwise_quantity
from diskvolterra.operators import SymbolValues, symbol_from_config, symbol_weights
from diskvolterra.spaces import ZOOM_PATCH, ZOOM_STOP, golden_max

from conftest import random_series

#: largest allowed shortfall of a refined sup against the reference
REL_TOL = 1e-3

#: share of the sups that must agree with the reference to AGREE_TOL; the
#: others mostly sit where |phi| is near 1, so that 1 - |phi|^2 from the
#: modulus of phi(z) carries rounding error, or the two searches climb to
#: different local maxima
AGREE_SHARE = 0.8
AGREE_TOL = 1e-9

#: standard-sweep sups checked against the reference, drawn with SUBSET_SEED
SUBSET_SIZE = 80
SUBSET_SEED = 7


def golden_reference(magnitude, grid, depth=4, tol=1e-14):
    """Sup by alternating golden-section searches around the grid argmax:
    per pass one in r along the argmax ray, then one in theta at that
    radius, each next window a quarter of the last one. This is the
    refinement the zoom replaced, run deeper (4 passes, not 2) and tighter
    (tol 1e-14, not 1e-12). ``magnitude(r, z)`` is called as
    ``grid_supremum`` calls it, with the exact radii of the points."""
    vals = magnitude(grid.radii[:, None], grid.points)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best = float(vals[i, j])
    r_star, th_star = float(grid.radii[i]), float(grid.angles[j])
    last = len(grid.radii) - 1
    r_lo, r_hi = float(grid.radii[max(i - 1, 0)]), float(grid.radii[min(i + 1, last)])
    dth = 2.0 * np.pi / grid.n_angles
    th_lo, th_hi = th_star - dth, th_star + dth
    for _ in range(depth):
        r_new, v1 = golden_max(
            lambda r: float(magnitude(r, r * np.exp(1j * th_star))), r_lo, r_hi, tol=tol)
        if v1 > best:
            best, r_star = v1, r_new
        th_new, v2 = golden_max(
            lambda th: float(magnitude(r_star, r_star * np.exp(1j * th))),
            th_lo, th_hi, tol=tol)
        if v2 > best:
            best, th_star = v2, th_new
        w_r, w_th = (r_hi - r_lo) / 4.0, (th_hi - th_lo) / 4.0
        r_lo, r_hi = max(r_star - w_r, 0.0), min(r_star + w_r, grid.r_max)
        th_lo, th_hi = th_star - w_th, th_star + w_th
    return best


def standard_sweep_sups():
    """Every distinct pointwise sup of the default ``sweep`` config, as
    (symbol index, kind, u key, beta, form), and the symbol specs."""
    cfg = DEFAULT_SWEEP_CONFIG
    specs = [{"phi": p, "g": g} for p in cfg["phis"] for g in cfg["gs"]]
    sups, seen = [], set()
    for s, spec in enumerate(specs):
        for kind in cfg["kinds"]:
            for alpha in cfg["alphas"]:
                mem_keys, cond_specs = conditions_for(kind, alpha)
                pairs = [(key, ("power", 0.0)) for key in mem_keys]
                pairs += [(key, ("log",) if scale[0] == "log" else ("power", scale[1]))
                          for key, scale in cond_specs]
                for beta in cfg["betas"]:
                    for key, form in pairs:
                        if (s, kind, key, beta, form) not in seen:
                            seen.add((s, kind, key, beta, form))
                            sups.append((s, kind, key, float(beta), form))
    return specs, sups


def refined_and_reference(sym, kind, key, beta, form, grid):
    """The refined sup ``pointwise_quantity`` takes and the reference sup
    of the same expression."""
    u = symbol_weights(kind, sym)[key]
    est = pointwise_quantity(u, sym, beta, form, grid)
    ref = golden_reference(
        lambda r, z: expression(SymbolValues(sym, z, r), u, beta, form), grid)
    return est, ref


def test_refined_sups_of_the_standard_sweep_meet_the_reference(grid):
    specs, sups = standard_sweep_sups()
    rng = np.random.default_rng(SUBSET_SEED)
    symbols, agree = {}, []
    for idx in sorted(rng.choice(len(sups), SUBSET_SIZE, replace=False)):
        s, kind, key, beta, form = sups[idx]
        if s not in symbols:
            symbols[s] = symbol_from_config(specs[s], grid=grid)
        est, ref = refined_and_reference(symbols[s], kind, key, beta, form, grid)
        assert est.value >= est.shell_max.max()
        assert ref - est.value <= REL_TOL * ref, (sups[idx], est.value, ref)
        agree.append(abs(ref - est.value) <= AGREE_TOL * ref)
    assert np.mean(agree) >= AGREE_SHARE


def test_refined_sup_is_never_below_the_grid_max(grid, rng):
    weight = dv.Weight.standard(1.5)
    for degree in (1, 3, 8, 20):
        f = random_series(rng, degree)
        est = dv.weighted_sup_norm(f, weight, grid)
        coarse = np.max(weight(grid.radii[:, None]) * np.abs(f(grid.points)))
        assert est.refined and est.value >= coarse


@pytest.mark.parametrize("angles,j_max", [(512, 40), (64, 12)])
def test_one_magnitude_call_per_zoom_level(angles, j_max):
    grid = dv.DiskGrid(angles=angles, j_max=j_max)
    calls = []

    def magnitude(r, z):
        calls.append((r, z))
        return dv.Weight.standard(1.0)(r) * np.abs(z) ** 3

    dv.grid_supremum(magnitude, grid)
    shapes = [z.shape for _, z in calls]
    # the first patch spans two grid gaps in r and two in theta; each
    # level divides the spacing by half the patch's gap count
    half = (ZOOM_PATCH - 1) // 2
    first = max(np.max(np.diff(grid.radii)), 2.0 * np.pi / grid.n_angles) / half
    levels = 1 + math.ceil(math.log(first / ZOOM_STOP) / math.log(half))
    assert shapes[0] == grid.points.shape
    assert shapes[1:] == [(ZOOM_PATCH, ZOOM_PATCH)] * (len(shapes) - 1)
    assert 1 < len(shapes) <= 1 + levels
    # every call gets the exact radii of its points: the grid radii on the
    # coarse pass, the clipped patch radii in the zoom, with z = r e^{i theta}
    r, z = calls[0]
    assert np.array_equal(r, grid.radii[:, None]) and np.array_equal(z, grid.points)
    for r, z in calls[1:]:
        assert r.shape == (ZOOM_PATCH, 1)
        assert np.all((0.0 <= r) & (r <= grid.r_max))
        unit = z[-1] / r[-1]
        assert np.allclose(np.abs(unit), 1.0, rtol=0, atol=1e-15)
        assert np.allclose(z, r * unit, rtol=1e-14, atol=0)


def test_cap_shell_sup_meets_the_exact_radius_reference(grid):
    # the argmax of this sup lies on the outermost shell, r = 1 - 2^-40,
    # where 1 - |z|^2 taken from the modulus of a complex point overshot
    # the exact-radius reference by 1.7e-4 relative
    spec = {"phi": {"family": "poly", "params": {"coeffs": [0.0, 0.0, 1.0]}},
            "g": {"family": "identity"}}
    sym = symbol_from_config(spec, grid=grid)
    est, ref = refined_and_reference(sym, "cphivg", "u2", 1.5, ("power", 1.5), grid)
    assert int(np.argmax(est.shell_max)) == len(grid.radii) - 1
    assert abs(est.value - ref) <= 1e-12 * ref, (est.value, ref)
