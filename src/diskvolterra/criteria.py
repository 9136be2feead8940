"""Boundedness criteria: scaled sequence suprema vs pointwise suprema.

Each operator kind and source exponent alpha selects a small set of
conditions on the symbol weights u1, u2. A condition has two comparable
sides: the sup over n of a scaled monomial-image norm
sup_z v(z) |u(z)| |phi(z)|^n, and the sup over the disk of the matching
pointwise expression. Both are computed for every condition; the verdict
is "bounded" when all required quantities are finite under the caps, and
"not-determined" when divergence evidence appears (numerics never certify
unboundedness). Scans and sups are computed once per (symbol, grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (KINDS, V_KINDS, GridContext, SelfMapSymbol, SymbolValues,
                        SymbolWeight, symbol_weights)
from .spaces import (DiskGrid, SupEstimate, Weight, default_grid, grid_supremum,
                     one_minus_sq)

#: sequence divergence evidence: >= this growth across the trailing window
SEQUENCE_GROWTH_RATIO = 1.10

#: quantities above this cap are treated as not finite
FINITE_CAP = 1e8

#: eps ladder 2^-k for the boundary-concentration filter |phi| > 1 - eps
EPS_LADDER_RANGE = (3, 20)


def scale_label(scale: tuple) -> str:
    if scale[0] == "log":
        return "log(n)"
    return f"(n+1)^{scale[1]:g}"


def form_label(form: tuple) -> str:
    if form[0] == "log":
        return "log(2/(1-|phi|^2))"
    if form[1] == 0.0:
        return "1"
    return f"(1-|phi|^2)^-{form[1]:g}"


def conditions_for(kind: str, alpha: float):
    """Membership checks and scaled conditions demanded by each theorem case.

    Returns (membership_u_keys, [(u_key, scale), ...]) with scale either
    ("power", gamma) or ("log",). The V-type products (vgcphi, cphivg) have
    three alpha cases; the U-type products (cphiug, ugcphi) have five.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if kind in V_KINDS:
        if alpha < 1.0:
            return ["u2"], [("u1", ("power", alpha))]
        if alpha == 1.0:
            return [], [("u1", ("power", 1.0)), ("u2", ("log",))]
        return [], [("u1", ("power", alpha)), ("u2", ("power", alpha - 1.0))]
    if alpha < 1.0:
        return ["u1", "u2"], []
    if alpha == 1.0:
        return ["u2"], [("u1", ("log",))]
    if alpha < 2.0:
        return ["u2"], [("u1", ("power", alpha - 1.0))]
    if alpha == 2.0:
        return [], [("u1", ("power", 1.0)), ("u2", ("log",))]
    return [], [("u1", ("power", alpha - 1.0)), ("u2", ("power", alpha - 2.0))]


@dataclass
class SequenceScan:
    """Per-n values of sup_z v(z)|u(z)||phi(z)|^n with their scaling."""
    raw: np.ndarray = field(repr=False)
    scaled: np.ndarray = field(repr=False)
    scale: tuple
    sup: float
    n_at_sup: int
    at_cap: bool          # sup attained at n = N_seq
    growing: bool         # trailing-window growth beyond the evidence ratio


def _pareto_front(A: np.ndarray, ps: np.ndarray, order: np.ndarray):
    """Grid points that can realize max A * p**n for some n >= 0, from
    ``ps``, the p values sorted descending by ``order``.

    With points sorted by p descending, a point survives iff its A exceeds
    every A seen at larger p. The survivors are what every n-scan needs.
    """
    As = A.ravel()[order]
    running = np.maximum.accumulate(np.concatenate(([-np.inf], As[:-1])))
    keep = As > running
    return As[keep], ps[keep]


def apply_scale(s: np.ndarray, scale: tuple) -> np.ndarray:
    """Scaled sequence values; the log scaling starts at n = 2 (rows 0 and 1
    carry 0 so that emitted tables stay finite)."""
    n = np.arange(len(s), dtype=float)
    if scale[0] == "power":
        return (n + 1.0) ** scale[1] * s
    out = np.zeros_like(s)
    if len(s) > 2:
        out[2:] = np.log(n[2:]) * s[2:]
    return out


def u_values(u, values: SymbolValues):
    """u at a provider's points: a symbol weight's formula, or a plain
    function of z (whose results the grid context does not keep)."""
    return u.formula(values) if isinstance(u, SymbolWeight) else u(values.z)


def front_sequence(A: np.ndarray, p: np.ndarray, n_seq: int) -> np.ndarray:
    """s_n = max_i A_i p_i^n for n = 0..n_seq over a Pareto front (p
    descending, A ascending), from the upper envelope of the lines
    log A_i + n log p_i: O(front + n_seq log hull).

    Points with A = 0 or p = 0 give 0 for n >= 1 and are dropped there. The
    maximiser moves toward larger p as n grows, so only the front slice
    between the maximisers at n = 1 and n = n_seq can carry the envelope.
    """
    s = np.zeros(n_seq + 1)
    if A.size:
        s[0] = A.max()
    live = (A > 0) & (p > 0)
    if not live.any():
        return s
    A, p = A[live], p[live]
    b, m = np.log(A), np.log(p)
    lo, hi = sorted((int(np.argmax(b + n_seq * m)), int(np.argmax(b + m))))
    hull: list[int] = []      # front indices by increasing slope log p
    for i in range(hi, lo - 1, -1):
        if hull and m[i] == m[hull[-1]]:
            if b[i] <= b[hull[-1]]:
                continue
            hull.pop()
        # the top line lies below where its two neighbours cross: drop it
        while len(hull) >= 2 and ((b[hull[-2]] - b[hull[-1]]) * (m[i] - m[hull[-1]])
                                  >= (b[hull[-1]] - b[i]) * (m[hull[-1]] - m[hull[-2]])):
            hull.pop()
        hull.append(i)
    h = np.array(hull)
    breaks = (b[h[:-1]] - b[h[1:]]) / (m[h[1:]] - m[h[:-1]])
    n = np.arange(1, n_seq + 1)
    k = h[np.searchsorted(breaks, n)]
    s[1:] = A[k] * p[k] ** n
    return s


def raw_sequence(ctx: GridContext, u, weight: Weight, n_seq: int) -> np.ndarray:
    """Read-only s_n = max over the grid of v(z)|u(z)||phi(z)|^n, n = 0..n_seq:
    ``front_sequence`` over the Pareto front of (|phi|, v|u|), in
    O(grid + front + n_seq log hull) once the context has sorted |phi|.
    The radial weight v is taken per radius and broadcast along the rows."""
    # u before any other grid-sized array: one allocated first made glibc
    # re-fault the heap in each Horner step of u's series tables (2.7x slower)
    uvals = u_values(u, ctx)
    A = weight(ctx.radii)[:, None] * np.abs(uvals)
    s = front_sequence(*_pareto_front(A, ctx.abs_phi_desc, ctx.desc_order), n_seq)
    s.flags.writeable = False
    return s


def sequence_quantity(u, sym: SelfMapSymbol, weight: Weight, scale: tuple,
                      n_seq: int, grid: DiskGrid | None = None) -> SequenceScan:
    """Scan n = 0..n_seq of the scaled sequence quantity. The raw values
    do not depend on the scale: for a symbol weight the grid context keeps
    them per (u, weight, n_seq)."""
    if n_seq < 1:
        raise ValueError("n_seq must be >= 1")
    ctx = sym.context(grid or default_grid())
    key = (("scan", u.label, weight.kind, weight.alpha, n_seq)
           if isinstance(u, SymbolWeight) else None)
    s = ctx.cached(key, lambda: raw_sequence(ctx, u, weight, n_seq))
    scaled = apply_scale(s, scale)
    n_at_sup = int(np.argmax(scaled))
    sup = float(scaled[n_at_sup])

    window = min(max(n_seq // 4, 8), n_seq)
    chunk = max(window // 8, 4)
    head = scaled[n_seq - window: n_seq - window + chunk]
    tail = scaled[n_seq + 1 - chunk: n_seq + 1]
    head_mean, tail_mean = float(np.mean(head)), float(np.mean(tail))
    growing = head_mean > 0 and tail_mean >= SEQUENCE_GROWTH_RATIO * head_mean
    return SequenceScan(raw=s, scaled=scaled, scale=scale, sup=sup,
                        n_at_sup=n_at_sup, at_cap=(n_at_sup == n_seq),
                        growing=growing)


def expression(values: SymbolValues, u, beta: float, form: tuple):
    """(1-|z|^2)^beta |u(z)| F(|phi(z)|) from a value provider.

    F is (1-w^2)^-gamma for form ("power", gamma) or log(2/(1-w^2)) for
    form ("log",).
    """
    uvals = u_values(u, values)  # first, as in raw_sequence
    y = one_minus_sq(values.abs_phi)
    factor = np.log(2.0 / y) if form[0] == "log" else y ** (-form[1])
    return one_minus_sq(values.abs_z) ** beta * np.abs(uvals) * factor


def pointwise_quantity(u, sym: SelfMapSymbol, beta: float, form: tuple,
                       grid: DiskGrid | None = None) -> SupEstimate:
    """sup over the disk of ``expression``: the coarse pass reads the grid
    context's tables, the zoom evaluates the same formula on small patches,
    and for a symbol weight the context keeps the estimate and,
    from the same table, the ``boundary_ladder``. It carries divergence
    evidence when the sup sits on the outermost shells and still grows
    there."""
    grid = grid or default_grid()
    ctx = sym.context(grid)
    kept = isinstance(u, SymbolWeight)

    def estimate():
        table = expression(ctx, u, beta, form)
        est = grid_supremum(lambda z: expression(SymbolValues(sym, z), u, beta, form),
                            grid, grid_values=table)
        if kept:
            boundary_ladder(ctx, u, beta, form, table=table)
        return est
    return ctx.cached(("sup", u.label, beta, form) if kept else None, estimate)


def boundary_ladder(ctx: GridContext, u, beta: float, form: tuple,
                    eps_range: tuple = EPS_LADDER_RANGE,
                    table: np.ndarray | None = None) -> tuple:
    """(eps, sups, nonempty) of ``expression`` over the rungs
    {z : |phi(z)| > 1 - eps}, eps = 2^-k for k in eps_range; an empty rung
    has sup 0. Once per context the grid indices with |phi| > 1 - max eps
    are sorted by |phi| descending and counted per rung; then each ladder
    is one gather of ``table`` (built here when not given) and one running
    max. For a symbol weight the context keeps the ladder per
    (u, beta, form, eps_range)."""
    def rungs():
        eps = tuple(2.0 ** (-k) for k in range(eps_range[0], eps_range[1] + 1))
        outer = np.count_nonzero(ctx.abs_phi > 1.0 - max(eps, default=0.0))
        idx = ctx.desc_order[:outer]
        counts = np.searchsorted(-ctx.abs_phi_desc[:outer],
                                 -(1.0 - np.array(eps)), side="left")
        return eps, idx, counts.tolist()

    def ladder():
        eps, idx, counts = ctx.cached(("rungs", eps_range), rungs)
        vals = expression(ctx, u, beta, form) if table is None else table
        prefix_max = np.maximum.accumulate(vals.ravel()[idx])
        return (eps, tuple(float(prefix_max[c - 1]) if c > 0 else 0.0 for c in counts),
                tuple(c > 0 for c in counts))
    key = (("ladder", u.label, beta, form, eps_range)
           if isinstance(u, SymbolWeight) else None)
    return ctx.cached(key, ladder)


@dataclass
class MembershipCheck:
    """A weighted-sup-norm finiteness check, e.g. u2 in the target space."""
    label: str
    norm: float
    diverging: bool

    @property
    def finite(self) -> bool:
        return (not self.diverging) and self.norm <= FINITE_CAP


@dataclass
class CriterionQuantity:
    """Both sides of one scaled condition with their comparability ratio."""
    label: str
    u_label: str
    scale: tuple
    sequence_side: float
    pointwise_side: float
    ratio: float | None
    n_at_sup: int
    sequence_at_cap: bool
    sequence_growing: bool
    pointwise_diverging: bool
    scan: SequenceScan = field(repr=False, compare=False)
    sup_estimate: SupEstimate = field(repr=False, compare=False)

    @property
    def divergence_evidence(self) -> bool:
        return (self.pointwise_diverging
                or (self.sequence_at_cap and self.sequence_growing)
                or self.sequence_side > FINITE_CAP
                or self.pointwise_side > FINITE_CAP)


@dataclass
class CriterionReport:
    kind: str
    alpha: float
    beta: float
    quantities: list
    memberships: list
    verdict: str          # "bounded" or "not-determined"


def check_boundedness(kind: str, sym: SelfMapSymbol, alpha: float, beta: float,
                      grid: DiskGrid | None = None, n_seq: int = 4096) -> CriterionReport:
    """Evaluate the boundedness characterization for one operator.

    Assembles exactly the membership checks and scaled conditions the
    relevant theorem case demands, computes both sides of every condition,
    and issues the verdict.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    mem_keys, cond_specs = conditions_for(kind, alpha)
    weights = symbol_weights(kind, sym)
    v_beta = Weight.standard(beta)

    memberships = []
    for key in mem_keys:
        u = weights[key]
        est = pointwise_quantity(u, sym, beta, ("power", 0.0), grid)
        memberships.append(MembershipCheck(
            label=f"{u.label} in weighted-sup space (beta={beta:g})",
            norm=est.value, diverging=est.diverging))

    quantities = []
    for key, scale in cond_specs:
        u = weights[key]
        form = ("log",) if scale[0] == "log" else ("power", scale[1])
        scan = sequence_quantity(u, sym, v_beta, scale, n_seq, grid)
        est = pointwise_quantity(u, sym, beta, form, grid)
        ratio = scan.sup / est.value if est.value > 0.0 else None
        quantities.append(CriterionQuantity(
            label=f"sup_n {scale_label(scale)} ||({u.label}) phi^n||  ~  "
                  f"sup_z (1-|z|^2)^{beta:g} {form_label(form)} |{u.label}|",
            u_label=u.label, scale=scale,
            sequence_side=scan.sup, pointwise_side=est.value, ratio=ratio,
            n_at_sup=scan.n_at_sup, sequence_at_cap=scan.at_cap,
            sequence_growing=scan.growing, pointwise_diverging=est.diverging,
            scan=scan, sup_estimate=est))

    ok = (all(m.finite for m in memberships)
          and all(not q.divergence_evidence for q in quantities))
    return CriterionReport(kind=kind, alpha=float(alpha), beta=float(beta),
                           quantities=quantities, memberships=memberships,
                           verdict="bounded" if ok else "not-determined")
