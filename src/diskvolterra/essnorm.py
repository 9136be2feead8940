"""Essential-norm estimators: tail limsups and boundary concentration.

For a bounded operator the essential norm is comparable to a max of scaled
limsups of the sequence quantities; each is estimated here as the max over
a trailing window of n, with the window trend reported, and cross-checked
by the boundary route: the sup of the matching pointwise expression over
the region |phi(z)| > 1 - eps for a shrinking eps ladder. Operators whose
theorem value is identically zero (the U-type products with source
exponent below 1) return exactly 0 alongside the diagnostics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .criteria import (CriterionReport, SequenceScan, boundary_form, boundary_ladder,
                       check_boundedness, conditions_for, form_label, scale_label,
                       scan_window, sequence_quantity)
from .operators import CPHIUG, UGCPHI, SelfMapSymbol, symbol_weights
from .spaces import DiskGrid, Weight, default_grid

#: combined estimate below this is flagged compact
COMPACT_TOL = 1e-3


class OperatorNotBoundedError(ValueError):
    """Essential norms are only defined for operators certified bounded."""


def essnorm_conditions(kind: str, alpha: float):
    """(theorem_zero, [(u_key, scale, diagnostic_only), ...]) per case."""
    if kind in (CPHIUG, UGCPHI) and alpha < 1.0:
        # theorem value is exactly zero; diagnostics use the negative-power
        # continuation of the alpha>1 scalings, which decay for bounded symbols
        return True, [("u1", ("power", alpha - 1.0), True),
                      ("u2", ("power", alpha - 2.0), True)]
    _, cond_specs = conditions_for(kind, alpha)
    return False, [(key, scale, False) for key, scale in cond_specs]


@dataclass
class BoundaryScan:
    """Boundary-concentration sups over the eps ladder."""
    eps: list
    sups: list
    nonempty: list
    estimate: float
    trend: str            # "increasing" / "decreasing" / "flat" / "empty"


def inverse_log_fit(ns, values) -> tuple:
    """Least-squares (a, b) of a + b/log(n) over ``ns``, each n >= 2."""
    x = 1.0 / np.log(np.asarray(ns, dtype=float))
    coef, *_ = np.linalg.lstsq(np.vstack([np.ones_like(x), x]).T, values, rcond=None)
    return float(coef[0]), float(coef[1])


@functools.cache
def _trend_design(n_seq: int) -> tuple:
    """(ns, lhs, scale, rcond) of ``np.polyfit(ns, vals, 1)`` over the
    ``criteria.scan_window(n_seq)`` + 1 trailing indices ns of an n_seq
    scan: the two-column Vandermonde matrix of ns with each column divided
    by its norm, those norms, and polyfit's default rcond. Built once per
    n_seq, read-only."""
    ns = np.arange(n_seq - scan_window(n_seq), n_seq + 1)
    lhs = np.vander(ns.astype(float), 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    for a in (ns, lhs, scale):
        a.flags.writeable = False
    return ns, lhs, scale, len(ns) * np.finfo(float).eps


def window_trend(vals, n_seq: int) -> float:
    """Least-squares slope of ``vals``, the scaled values at the trailing
    window of an n_seq scan, against n: ``np.polyfit(ns, vals, 1)[0]`` bit
    for bit, as one ``lstsq`` on the design kept per n_seq."""
    _, lhs, scale, rcond = _trend_design(n_seq)
    return float(np.linalg.lstsq(lhs, vals, rcond)[0][0] / scale[0])


def scan_tail(scan: SequenceScan) -> tuple:
    """(estimate, trend_slope, extrapolated) of a scan: the estimate is the
    max over the last ``criteria.scan_window(n_seq)`` + 1 indices, the
    trend is their ``window_trend``, and for log scalings an a + b/log(n)
    fit over those n >= 2 (None if fewer than two) is additionally
    reported because that convergence is O(1/log n)."""
    n_seq = len(scan.scaled) - 1
    ns = _trend_design(n_seq)[0]
    vals = scan.scaled[ns]
    extrapolated = None
    fit = ns >= 2
    if scan.scale[0] == "log" and np.count_nonzero(fit) >= 2:
        extrapolated = inverse_log_fit(ns[fit], vals[fit])[0]
    return float(np.max(vals)), window_trend(vals, n_seq), extrapolated


def sequence_limsup(u, sym: SelfMapSymbol, weight: Weight, scale: tuple,
                    n_seq: int, grid: DiskGrid | None = None):
    """Tail estimate of the scaled sequence quantity: (estimate,
    trend_slope, extrapolated, scan), the ``scan_tail`` of its scan."""
    scan = sequence_quantity(u, sym, weight, scale, n_seq, grid)
    return (*scan_tail(scan), scan)


def boundary_limsup(u, sym: SelfMapSymbol, beta: float, form: tuple,
                    grid: DiskGrid | None = None) -> BoundaryScan:
    """Sups of the pointwise expression over {z : |phi(z)| > 1 - eps}, for
    eps = 2^-k with k in ``criteria.EPS_LADDER_RANGE``.

    The sups are ``criteria.boundary_ladder``, read from the row and
    segment maxima the grid context keeps per (u, form): no table is built
    per beta, and a (u, form) whose sup ``pointwise_suprema`` has taken
    needs none at all. Empty rungs (the compact case ||phi|| < 1)
    contribute 0. The estimate is the max over the last three nonempty
    rungs, annotated with their trend.
    """
    ctx = sym.context(grid or default_grid())
    eps, sups, nonempty = map(list, boundary_ladder(ctx, u, beta, form))

    live = [s for s, ne in zip(sups, nonempty) if ne]
    if not live:
        return BoundaryScan(eps, sups, nonempty, 0.0, "empty")
    tail = live[-3:]
    estimate = max(tail)
    if len(tail) >= 2 and tail[-1] > tail[0] * (1.0 + 1e-12):
        trend = "increasing"
    elif len(tail) >= 2 and tail[-1] < tail[0] * (1.0 - 1e-12):
        trend = "decreasing"
    else:
        trend = "flat"
    return BoundaryScan(eps, sups, nonempty, estimate, trend)


@dataclass
class ConditionEstimate:
    label: str
    u_label: str
    scale: tuple
    diagnostic_only: bool
    sequence_estimate: float
    sequence_trend: float
    sequence_extrapolated: float | None
    boundary: BoundaryScan
    scan: object = field(repr=False, compare=False)


@dataclass
class EssNormEstimate:
    kind: str
    alpha: float
    beta: float
    conditions: list
    combined: float
    compact_flag: bool
    theorem_zero: bool


def essential_norm(kind: str, sym: SelfMapSymbol, alpha: float, beta: float,
                   grid: DiskGrid | None = None, n_seq: int = 4096,
                   compact_tol: float = COMPACT_TOL,
                   boundedness: CriterionReport | None = None) -> EssNormEstimate:
    """Estimate the essential norm of a bounded product operator.

    Refuses (OperatorNotBoundedError) unless boundedness is established:
    pass a precomputed CriterionReport for the same symbol, grid and
    (kind, alpha, beta), else ValueError, or one is computed here. Each
    condition's tail reads the report's ``SequenceScan`` of the same u,
    scale and n_seq; only a scan the report lacks is derived here. The
    combined estimate is the max over the case's scaled sequence limsups;
    the boundary route rides along per condition for cross-checking.
    """
    if boundedness is not None and ((boundedness.kind, boundedness.alpha,
                                     boundedness.beta) != (kind, alpha, beta)):
        raise ValueError(f"boundedness report is for another operator: {boundedness.kind} "
                         f"(alpha={boundedness.alpha:g}, beta={boundedness.beta:g})")
    report = boundedness or check_boundedness(kind, sym, alpha, beta, grid,
                                              n_seq=n_seq)
    if report.verdict != "bounded":
        raise OperatorNotBoundedError(
            f"boundedness of {kind} (alpha={alpha:g}, beta={beta:g}) is not "
            "established; essential-norm estimates assume a bounded operator")

    theorem_zero, specs = essnorm_conditions(kind, alpha)
    weights = symbol_weights(kind, sym)
    v_beta = Weight.standard(beta)

    scans = {(q.u_label, q.scale): q.scan for q in report.quantities
             if len(q.scan.scaled) == n_seq + 1}
    conditions = []
    for key, scale, diagnostic in specs:
        u = weights[key]
        scan = scans.get((u.label, scale))
        if scan is None:
            scan = sequence_quantity(u, sym, v_beta, scale, n_seq, grid)
        est, trend, extrap = scan_tail(scan)
        form = boundary_form(scale)
        bscan = boundary_limsup(u, sym, beta, form, grid)
        conditions.append(ConditionEstimate(
            label=f"limsup {scale_label(scale)} ||({u.label}) phi^n||  ~  "
                  f"boundary sup (1-|z|^2)^{beta:g} {form_label(form)} |{u.label}|",
            u_label=u.label, scale=scale, diagnostic_only=diagnostic,
            sequence_estimate=est, sequence_trend=trend,
            sequence_extrapolated=extrap, boundary=bscan, scan=scan))

    if theorem_zero:
        combined = 0.0
    else:
        combined = max((c.sequence_estimate for c in conditions
                        if not c.diagnostic_only), default=0.0)
    return EssNormEstimate(kind=kind, alpha=float(alpha), beta=float(beta),
                           conditions=conditions, combined=combined,
                           compact_flag=combined < compact_tol,
                           theorem_zero=theorem_zero)
