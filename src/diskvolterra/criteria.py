"""Boundedness criteria: scaled sequence suprema vs pointwise suprema.

Each operator kind and source exponent alpha selects a small set of
conditions on the symbol weights u1, u2. A condition has two comparable
sides: the sup over n of a scaled monomial-image norm
sup_z v(z) |u(z)| |phi(z)|^n, and the sup over the disk of the matching
pointwise expression. Both are computed for every condition; the verdict
is "bounded" when all required quantities are finite under the caps, and
"not-determined" when divergence evidence appears (numerics never certify
unboundedness). Each u is a ``SymbolWeight``, whose scans and sups are
computed once per (symbol, grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (KINDS, V_KINDS, GridContext, SelfMapSymbol, SymbolValues,
                        symbol_weights)
from .spaces import (DiskGrid, NonFiniteValueError, SupEstimate, Weight, default_grid,
                     one_minus_sq, shell_maxima, zoom_suprema)

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


def scan_window(n_seq: int) -> int:
    """Trailing indices of an n_seq scan that its growth test and its tail
    limsup read: the final quarter, at least 8, at most n_seq."""
    return min(max(n_seq // 4, 8), n_seq)


def boundary_form(scale: tuple) -> tuple:
    """The form of F(|phi|) that matches a sequence scaling."""
    return ("log",) if scale[0] == "log" else ("power", scale[1])


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
    |u| is the context's table, the one ``expression`` reads; the radial
    weight v is taken at the grid radii and broadcast along the rows."""
    # |u| before any other grid-sized array: one allocated first made glibc
    # re-fault the heap in each Horner step of u's series tables (2.7x slower)
    abs_u = ctx.abs_u(u)
    A = weight(ctx.radius) * abs_u
    s = front_sequence(*_pareto_front(A, ctx.abs_phi_desc, ctx.desc_order), n_seq)
    s.flags.writeable = False
    return s


def sequence_quantity(u, sym: SelfMapSymbol, weight: Weight, scale: tuple,
                      n_seq: int, grid: DiskGrid | None = None) -> SequenceScan:
    """Scan n = 0..n_seq of the scaled sequence quantity. The raw values
    do not depend on the scale: the grid context keeps them per
    (u, weight, n_seq). Growth is tested across the ``scan_window``."""
    if n_seq < 1:
        raise ValueError("n_seq must be >= 1")
    ctx = sym.context(grid or default_grid())
    s = ctx.cached(("scan", u.label, weight.kind, weight.alpha, n_seq),
                   lambda: raw_sequence(ctx, u, weight, n_seq))
    scaled = apply_scale(s, scale)
    n_at_sup = int(np.argmax(scaled))
    sup = float(scaled[n_at_sup])

    window = scan_window(n_seq)
    chunk = max(window // 8, 4)
    head = scaled[n_seq - window: n_seq - window + chunk]
    tail = scaled[max(n_seq + 1 - chunk, 0): n_seq + 1]
    head_mean, tail_mean = float(np.mean(head)), float(np.mean(tail))
    growing = head_mean > 0 and tail_mean >= SEQUENCE_GROWTH_RATIO * head_mean
    return SequenceScan(raw=s, scaled=scaled, scale=scale, sup=sup,
                        n_at_sup=n_at_sup, at_cap=(n_at_sup == n_seq),
                        growing=growing)


def boundary_factor(abs_phi, form: tuple):
    """F(|phi|): (1-|phi|^2)^-gamma for form ("power", gamma) or
    log(2/(1-|phi|^2)) for form ("log",); an array comes back in a new
    buffer, which the caller may overwrite."""
    y = one_minus_sq(abs_phi)
    if not isinstance(y, np.ndarray):  # a single point
        return np.log(2.0 / y) if form[0] == "log" else y ** (-form[1])
    if form[0] == "log":
        np.divide(2.0, y, out=y)
        return np.log(y, out=y)
    with np.errstate(over="ignore"):  # every sup raises NonFiniteValueError on an inf
        y **= -form[1]
    return y


def expression(values: SymbolValues, u, beta: float, form: tuple):
    """(1-|z|^2)^beta |u(z)| F(|phi(z)|) with F ``boundary_factor`` and the
    weight ``Weight.standard(beta)`` at the exact radii ``values.radius``,
    over a value provider: the batch of one of ``stacked_expression``. A
    grid context has the same attributes, so this is also its full table;
    the criteria read only ``table_maxima`` of the grid."""
    return stacked_expression(values, [(u, beta, form)])


def _by_request(requests: list, field: int, table):
    """One array whose row k is row k of ``table(value, pick)``, value the
    entry ``field`` of ``requests[k]``. The table is taken once per distinct
    value, pick(a) giving the rows of a that hold it; when one value holds
    every request, the result is the table over all of a."""
    rows: dict = {}
    for k, request in enumerate(requests):
        rows.setdefault(request[field], []).append(k)
    if len(rows) == 1:
        return table(next(iter(rows)), lambda a: a)
    out = None
    for value, ks in rows.items():
        part = table(value, lambda a: a[ks])
        if out is None:
            out = np.empty((len(requests),) + part.shape[1:])
        out[ks] = part
    return out


def stacked_expression(values, requests: list):
    """``expression`` of the request (u, beta, form) ``requests[k]`` at the
    points ``values.z[k]``, for each k of the provider's leading axis. |u|
    is taken once per distinct weight, F(|phi|) once per form and the
    radial weight once per beta, each with its scalar exponent, since numpy
    takes some exponents (0.5, 2) by other routines; then F (w |u|) is
    multiplied per element."""
    abs_u = _by_request(requests, 0, lambda u, pick: pick(values.abs_u(u)))  # first, as in raw_sequence
    out = _by_request(requests, 2, lambda form, pick: boundary_factor(pick(values.abs_phi), form))
    out *= _by_request(requests, 1, lambda beta, pick: Weight.standard(beta)(
        pick(values.radius))) * abs_u
    return out


def rung_layout(ctx: GridContext) -> tuple:
    """(eps, idx, seg_starts, seg_rows, shell_segs, n_live) of the rungs
    {z : |phi(z)| > 1 - eps}, eps = 2^-k for k in EPS_LADDER_RANGE, kept
    once per context.

    The rungs are nested, so each is a union of shells, the points between
    it and the next smaller rung. ``idx`` holds the grid indices with
    |phi| > 1 - max eps ordered by shell, outermost first and ascending
    within a shell, so each shell splits into runs of one grid row: the
    segments, which start at ``seg_starts`` in ``idx`` and lie in rows
    ``seg_rows``. ``shell_segs`` is the first segment of each non-empty
    shell, and rung i holds the ``n_live[i]`` outermost of them.
    """
    def layout():
        lo, hi = EPS_LADDER_RANGE
        eps = tuple(2.0 ** (-k) for k in range(lo, hi + 1))
        # points per rung, non-increasing; reversed, the ends of the shells
        counts = np.searchsorted(-ctx.abs_phi_desc, -(1.0 - np.array(eps)),
                                 side="left")
        ends = counts[::-1]
        starts = np.concatenate(([0], ends))[:-1]
        idx = np.concatenate([np.sort(ctx.desc_order[a:b]) for a, b in zip(starts, ends)])
        live = ends > starts
        rows = idx // ctx.z.shape[1]
        first = np.ones(len(idx), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        first[starts[live]] = True
        seg_starts = np.flatnonzero(first)
        shell_segs = np.searchsorted(seg_starts, starts[live])
        n_live = np.cumsum(live)[::-1].tolist()
        return eps, idx, seg_starts, rows[seg_starts], shell_segs, n_live
    return ctx.cached("rungs", layout)


def segment_maxima(ctx: GridContext, h: np.ndarray) -> np.ndarray:
    """The max of a grid table h over each segment of ``rung_layout``."""
    _, idx, seg_starts, *_ = rung_layout(ctx)
    return np.maximum.reduceat(h.ravel()[idx], seg_starts)


def _keep_form_maxima(ctx: GridContext, form: tuple, group: dict) -> None:
    """Keep the maxima of h = F |u| for each u of ``group`` (label -> u),
    F(|phi|) of ``form`` taken over the grid once. h takes one reused
    buffer, and for the last u F's own, so that a form with one u
    allocates only F; both are dropped on return, before the next form."""
    f = boundary_factor(ctx.abs_phi, form)
    h = None
    for k, (label, u) in enumerate(group.items(), start=1):
        h = np.multiply(f, ctx.abs_u(u), out=f if k == len(group) else h)
        ctx.cached(("maxima", label, form),
                   lambda: (*shell_maxima(h), segment_maxima(ctx, h)))


def batch_maxima(ctx: GridContext, pairs: list) -> list:
    """``table_maxima`` of each (u, form) of ``pairs``, kept per (u, form).

    The tables not yet kept are built grouped by form: every |u| first, as
    in ``raw_sequence``, then each form's tables (``_keep_form_maxima``).
    For the form F = 1, h is the context's |u| table itself: its segment
    maxima are left to the ladder that asks for them (``boundary_ladder``),
    and the entry holds None there.
    """
    todo: dict = {}
    for u, form in pairs:
        if ("maxima", u.label, form) not in ctx:
            todo.setdefault(form, {})[u.label] = u
    for group in todo.values():
        for u in group.values():
            ctx.abs_u(u)
    for form, group in todo.items():
        if form != ("power", 0.0):
            _keep_form_maxima(ctx, form, group)
            continue
        for label, u in group.items():
            ctx.cached(("maxima", label, form),
                       lambda: (*shell_maxima(ctx.abs_u(u)), None))
    return [ctx[("maxima", u.label, form)] for u, form in pairs]


def table_maxima(ctx: GridContext, u, form: tuple) -> tuple:
    """(row_max, row_col, seg_max) of h = |u| F(|phi|) over the grid, kept
    per (u, form): per grid row the max of h and the first column holding
    it (``spaces.shell_maxima``, which raises on a non-finite h), and per
    segment of ``rung_layout`` the max of h, None for the form F = 1. The
    batch of one of ``batch_maxima``.

    Rounding is monotone, so for a radial weight w > 0 the max of
    fl(w h) over a row or a segment is fl(w max h): every beta's coarse
    sup, shell maxima and boundary ladder read exactly from these vectors
    and the radial weight at the grid radii, as from the table w (F |u|).
    """
    return batch_maxima(ctx, [(u, form)])[0]


def pointwise_suprema(sym: SelfMapSymbol, requests: list,
                      grid: DiskGrid | None = None) -> list:
    """The sup over the disk of ``expression`` for each request
    (u, beta, form), all refined in one ``zoom_suprema`` loop.

    Each coarse pass reads the shell maxima w * row_max of ``batch_maxima``,
    w the weight at the grid radii; each zoom level evaluates the patches
    of every sup still zooming through one ``stacked_expression`` over one
    ``SymbolValues``, at their exact radii. The context keeps each estimate
    under ("sup", label, beta, form), and a request it already holds is
    not taken again. An estimate carries divergence evidence when the sup
    sits on the outermost shells and still grows there. A non-finite value
    raises NonFiniteValueError and leaves no estimate of the batch kept.
    """
    grid = grid or default_grid()
    ctx = sym.context(grid)
    keys = [("sup", u.label, beta, form) for u, beta, form in requests]
    todo = {key: request for key, request in zip(keys, requests) if key not in ctx}
    if todo:
        batch = list(todo.values())
        maxima = batch_maxima(ctx, [(u, form) for u, _, form in batch])
        coarse = [(Weight.standard(beta)(grid.radii) * row_max, row_col)
                  for (_, beta, _), (row_max, row_col, _) in zip(batch, maxima)]
        todo = dict(zip(todo, zoom_suprema(
            lambda rows, r, z: stacked_expression(SymbolValues(sym, z, r),
                                                  [batch[k] for k in rows]),
            grid, coarse)))
    return [ctx.cached(key, lambda key=key: todo[key]) for key in keys]


def pointwise_quantity(u, sym: SelfMapSymbol, beta: float, form: tuple,
                       grid: DiskGrid | None = None) -> SupEstimate:
    """sup over the disk of ``expression``: the batch of one of
    ``pointwise_suprema``."""
    return pointwise_suprema(sym, [(u, beta, form)], grid)[0]


def cell_sups(kind: str, sym: SelfMapSymbol, alpha: float, beta: float) -> list:
    """The requests (u, beta, form) of the pointwise sups that
    ``check_boundedness`` reads for one cell, in its order: the memberships
    (form F = 1), then the conditions."""
    mem_keys, cond_specs = conditions_for(kind, alpha)
    weights = symbol_weights(kind, sym)
    return ([(weights[key], beta, ("power", 0.0)) for key in mem_keys]
            + [(weights[key], beta, boundary_form(scale)) for key, scale in cond_specs])


def take_sups(sym: SelfMapSymbol, requests: list, grid: DiskGrid | None = None) -> None:
    """Have the context keep every requested sup, refined in one batch. A
    non-finite value keeps none: each sup is then taken alone where it is
    read, and fails there as it does alone."""
    try:
        pointwise_suprema(sym, requests, grid)
    except NonFiniteValueError:
        pass


def boundary_ladder(ctx: GridContext, u, beta: float, form: tuple) -> tuple:
    """(eps, sups, nonempty) of the grid table w (F |u|) over the rungs of
    ``rung_layout``; an empty rung has sup 0. A segment's max is the radial
    weight at its row's radius times its ``table_maxima`` entry, a shell's
    the max over its segments (one ``maximum.reduceat``), and a rung's the
    running max over its shells."""
    eps, _, _, seg_rows, shell_segs, n_live = rung_layout(ctx)
    seg_max = table_maxima(ctx, u, form)[2]
    if seg_max is None:   # F = 1: h is the kept |u| table
        seg_max = segment_maxima(ctx, ctx.abs_u(u))
    sups = np.maximum.accumulate(np.maximum.reduceat(
        Weight.standard(beta)(ctx.radius[seg_rows, 0]) * seg_max, shell_segs))
    return (eps, tuple(float(sups[k - 1]) if k > 0 else 0.0 for k in n_live),
            tuple(k > 0 for k in n_live))


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
    take_sups(sym, cell_sups(kind, sym, alpha, beta), grid)

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
        form = boundary_form(scale)
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
