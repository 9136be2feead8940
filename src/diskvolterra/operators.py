"""Volterra-type operators, composition products, and symbol machinery.

Symbols phi and g are read through the ``series.Analytic`` protocol: the
Mobius map and log(1/(1-z)) are closed forms, the other families are
polynomials. Two routes exist for every product operator: a
series-to-series transform (used to serialize images and to
cross-validate), which reads each symbol's ``series(n_work)`` and is the
only place the working degree n_work enters; and pointwise evaluators for
the first/second derivatives assembled from the symbol derivatives, which
carry no truncation error and therefore feed all norm estimates near the
boundary. Symbol weights are formulas over ``SymbolValues``.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .series import N_WORK, Analytic, ClosedForm, TruncatedSeries
from .spaces import (DiskGrid, Weight, default_grid, golden_max, weighted_sup_norm,
                     zygmund_norm)

#: the four product-operator kinds
VGCPHI = "vgcphi"   # f -> integral_0^z f'(phi(s)) g(s) ds
CPHIVG = "cphivg"   # f -> integral_0^phi(z) f'(s) g(s) ds
CPHIUG = "cphiug"   # f -> integral_0^phi(z) f(s) g'(s) ds
UGCPHI = "ugcphi"   # f -> integral_0^z f(phi(s)) g'(s) ds
KINDS = (VGCPHI, CPHIVG, CPHIUG, UGCPHI)
#: the V-type products, whose images involve f' and f''; U-type ones f and f'
V_KINDS = (VGCPHI, CPHIVG)

#: self-map certificates may brush the unit circle by this much
SELF_MAP_TOL = 1e-9


class InvalidSelfMapError(ValueError):
    """The candidate inner symbol is not a self-map of the disk."""


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(value[0], value[1])
    return complex(value)


#: value-provider name -> (symbol attribute, evaluated at phi(z))
_SYMBOL_ATTRS = {
    "phi": ("phi", False), "phi1": ("phi_d1", False), "phi2": ("phi_d2", False),
    "g": ("g", False), "g1": ("g_d1", False), "g2": ("g_d2", False),
    "g_phi": ("g", True), "g1_phi": ("g_d1", True), "g2_phi": ("g_d2", True),
}


class SymbolValues:
    """Values of a symbol at fixed points z, each computed on first access:
    phi, phi1, phi2, g, g1, g2 (at z), g_phi, g1_phi, g2_phi (at phi(z)),
    abs_phi = |phi(z)| and, like a ``GridContext``, |u| of a symbol weight
    (``abs_u``); ``radius`` holds the exact radii of the points, as given.
    A provider is transient: nothing keeps one over a whole grid."""

    def __init__(self, sym, z, radius=None):
        self.z = z
        self.radius = radius
        self._sym = sym

    def __getattr__(self, key):
        if key == "abs_phi":
            val = np.abs(self.phi)
        elif key in _SYMBOL_ATTRS:
            name, at_phi = _SYMBOL_ATTRS[key]
            val = getattr(self._sym, name)(self.phi if at_phi else self.z)
        else:
            raise AttributeError(key)
        setattr(self, key, val)
        return val

    def abs_u(self, u: SymbolWeight):
        """|u| at the points."""
        return np.abs(u.formula(self))


class GridContext:
    """Everything one symbol keeps for one grid, in one memo filled through
    ``cached``: abs_phi = |phi|, desc_order (the argsort of -|phi| over the
    flattened points), abs_phi_desc (|phi| in that order), |u| per operator
    kind (``abs_u``), and from ``criteria`` the sequence scans, the refined
    sups, the boundary rung layout and, per (u, form), the row and segment
    maxima of |u| F(|phi|) (``table_maxima``). The grid-sized tables it
    keeps are the |phi| ones and |u|, all float: no table depends on a
    target exponent, and complex symbol values come from transient
    ``values()`` providers, which carry its ``radius``: the exact grid radii
    as a column, from which every radial weight is taken."""

    def __init__(self, sym, grid: DiskGrid):
        self.z = grid.points
        self.radius = grid.radii[:, None]
        self._sym = sym
        self._memo: dict = {}

    def values(self) -> SymbolValues:
        """A transient provider over the grid's points and radii."""
        return SymbolValues(self._sym, self.z, self.radius)

    def __contains__(self, key) -> bool:
        return key in self._memo

    def __getitem__(self, key):
        return self._memo[key]

    def cached(self, key, compute):
        """compute() on the first use of ``key``, then kept in the memo."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def abs_phi(self) -> np.ndarray:
        return self.cached("abs_phi", lambda: self.values().abs_phi)

    @property
    def desc_order(self) -> np.ndarray:
        return self.cached("desc_order",
                           lambda: np.argsort(-self.abs_phi.ravel(), kind="stable"))

    @property
    def abs_phi_desc(self) -> np.ndarray:
        return self.cached("abs_phi_desc", lambda: self.abs_phi.ravel()[self.desc_order])

    def abs_u(self, u: SymbolWeight) -> np.ndarray:
        """|u| over the grid. Both weights of u's kind are built together
        from one transient provider, which also gives abs_phi when it has
        evaluated phi."""
        def pair():
            values = self.values()
            tables = tuple(np.abs(formula(values))
                           for _, formula in WEIGHT_FORMULAS[u.kind])
            if "phi" in vars(values):
                self.cached("abs_phi", lambda: values.abs_phi)
            return tables
        return self.cached(("abs_u", u.kind), pair)[u.slot]


class SelfMapSymbol:
    """A validated analytic self-map phi together with an outer symbol g,
    both ``Analytic``.

    The sup-modulus ``phi_sup_modulus`` of phi over the circle
    |z| = ``r_certified`` is certified at construction, with r_certified
    the grid's r_max; by the maximum principle it bounds |phi| on the
    capped disk. Candidates exceeding 1 + 1e-9 are rejected with
    ``InvalidSelfMapError``. The symbols and their first and second
    derivatives are fixed at construction. Per grid, the symbol keeps one
    ``GridContext``, made on first use and keyed weakly by the grid object
    itself: it lives as long as the grid does and can never serve another
    grid. A grid reaching past r_certified is certified first.
    """

    def __init__(self, phi: Analytic, g: Analytic, grid: DiskGrid | None = None):
        self.phi = phi
        self.g = g
        self.phi_d1 = phi.derivative()
        self.phi_d2 = self.phi_d1.derivative()
        self.g_d1 = g.derivative()
        self.g_d2 = self.g_d1.derivative()
        self._certify((grid or default_grid()).r_max)
        self._contexts = weakref.WeakKeyDictionary()

    def _certify(self, r_max: float, n_angles: int = 4096) -> None:
        """Set phi_sup_modulus to sup |phi| over |z| = r_max: exact for a
        Mobius map, else the max over n_angles equispaced angles refined by
        golden section. Raises InvalidSelfMapError above 1 + SELF_MAP_TOL."""
        phi = self.phi
        if isinstance(phi, ClosedForm) and phi.kind == "mobius" and phi.order == 0:
            # attained where z points away from a
            sup = (abs(phi.a) + r_max) / (1.0 + abs(phi.a) * r_max)
        else:
            def modulus(t):
                return abs(phi(r_max * np.exp(1j * t)))
            th = 2.0 * np.pi * np.arange(n_angles) / n_angles
            vals = modulus(th)
            j = int(np.argmax(vals))
            dth = 2.0 * np.pi / n_angles
            _, refined = golden_max(modulus, th[j] - dth, th[j] + dth)
            sup = max(float(vals[j]), float(refined))
        if sup > 1.0 + SELF_MAP_TOL:
            raise InvalidSelfMapError(
                f"sup |phi| = {sup:.12g} on |z| = {r_max} "
                "exceeds 1; phi is not a self-map of the disk")
        self.phi_sup_modulus, self.r_certified = sup, r_max

    def context(self, grid: DiskGrid) -> GridContext:
        """The evaluation context of this symbol on ``grid``."""
        if grid not in self._contexts:
            if grid.r_max > self.r_certified:
                self._certify(grid.r_max)
            # through a proxy, so the symbol and its contexts form no cycle
            self._contexts[grid] = GridContext(weakref.proxy(self), grid)
        return self._contexts[grid]

    def grid_values(self, grid: DiskGrid, key: str) -> np.ndarray:
        """Table of a grid quantity: a ``GridContext`` table such as
        "abs_phi", or a ``SymbolValues`` one such as "g1_phi", which a
        transient provider computes."""
        ctx = self.context(grid)
        return getattr(ctx if hasattr(GridContext, key) else ctx.values(), key)


# -- series route ------------------------------------------------------------


def apply_ug(sym: SelfMapSymbol, f: TruncatedSeries,
             n_work: int = N_WORK) -> TruncatedSeries:
    """integral from 0 to z of f * g'; vanishes at 0."""
    return f.mul(sym.g_d1.series(n_work), n_work).integrate()


def apply_vg(sym: SelfMapSymbol, f: TruncatedSeries,
             n_work: int = N_WORK) -> TruncatedSeries:
    """integral from 0 to z of f' * g; vanishes at 0."""
    return f.derivative().mul(sym.g.series(n_work), n_work).integrate()


def apply_product(kind: str, sym: SelfMapSymbol, f: TruncatedSeries,
                  n_work: int = N_WORK) -> TruncatedSeries:
    """Series form of the four composition products, with every symbol
    read as its ``series(n_work)``."""
    phi = sym.phi.series(n_work)
    if kind == VGCPHI:
        inner = f.derivative().compose(phi, n_work)
        return inner.mul(sym.g.series(n_work), n_work).integrate()
    if kind == UGCPHI:
        inner = f.compose(phi, n_work)
        return inner.mul(sym.g_d1.series(n_work), n_work).integrate()
    if kind == CPHIUG:
        return apply_ug(sym, f, n_work).compose(phi, n_work)
    if kind == CPHIVG:
        return apply_vg(sym, f, n_work).compose(phi, n_work)
    raise ValueError(f"unknown operator kind {kind!r}")


# -- pointwise route ----------------------------------------------------------


def product_second_derivative(kind: str, sym: SelfMapSymbol,
                              f: TruncatedSeries, z):
    """Second derivative of the product operator image, evaluated pointwise.

    It is u1 f^(k+1)(phi) + u2 f^(k)(phi) with the kind's symbol weights,
    k = 1 for the V-type and k = 0 for the U-type products. Every factor is
    a symbol evaluated at z or phi(z), so there is no composition-truncation
    error. Accepts scalars or arrays.
    """
    u1, u2 = symbol_weights(kind, sym).values()
    v = SymbolValues(sym, z)
    fk = f.derivative() if kind in V_KINDS else f
    return u1.formula(v) * fk.derivative()(v.phi) + u2.formula(v) * fk(v.phi)


def _image_at_zero(kind: str, sym: SelfMapSymbol, f: TruncatedSeries,
                   n_work: int = N_WORK) -> tuple[complex, complex]:
    """(Tf)(0) and (Tf)'(0) from (V_g f)' = f' g and (U_g f)' = f g'; the
    values (V_g f)(phi(0)) and (U_g f)(phi(0)) take the series route."""
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    fk, h, volterra = ((f.derivative(), sym.g, apply_vg) if kind in V_KINDS
                       else (f, sym.g_d1, apply_ug))
    w0 = sym.phi(0.0)
    if kind in (VGCPHI, UGCPHI):
        return 0.0, fk(w0) * h(0.0)
    return volterra(sym, f, n_work)(w0), fk(w0) * h(w0) * sym.phi_d1(0.0)


def image_zygmund_norm(kind: str, sym: SelfMapSymbol, f: TruncatedSeries,
                       beta: float, grid: DiskGrid | None = None) -> float:
    """Zygmund-type norm of the operator image via the pointwise route."""
    grid = grid or default_grid()
    v0, d0 = _image_at_zero(kind, sym, f)
    sup = weighted_sup_norm(lambda z: product_second_derivative(kind, sym, f, z),
                            Weight.standard(beta), grid)
    return abs(v0) + abs(d0) + sup.value


def operator_norm_estimate(kind: str, sym: SelfMapSymbol, alpha: float,
                           beta: float, grid: DiskGrid | None = None,
                           sample_count: int = 50, seed: int = 0,
                           max_degree: int = 32) -> float:
    """Lower bound on the operator norm by sampling random unit-norm inputs.

    Draws ``sample_count`` random polynomials of degree <= max_degree,
    normalizes each to unit Zygmund-type norm on the source side, and takes
    the max of the image norms (pointwise derivative route). Monotone
    non-decreasing in sample_count for a fixed seed.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(sample_count):
        c = rng.standard_normal(max_degree + 1) + 1j * rng.standard_normal(max_degree + 1)
        f = TruncatedSeries(c)
        nf = zygmund_norm(f, alpha, grid)
        if nf == 0.0:
            continue
        best = max(best, image_zygmund_norm(kind, sym, f / nf, beta, grid))
    return best


# -- symbol weights for the characterizations ---------------------------------


#: the symbol weights (u1, u2) of each kind: (label, formula over a
#: value provider with the attributes of ``SymbolValues``)
WEIGHT_FORMULAS = {
    VGCPHI: (("g*phi'", lambda v: v.g * v.phi1),
             ("g'", lambda v: v.g1)),
    UGCPHI: (("g'*phi'", lambda v: v.g1 * v.phi1),
             ("g''", lambda v: v.g2)),
    CPHIVG: (("g(phi)*phi'^2", lambda v: v.g_phi * v.phi1 ** 2),
             ("g'(phi)*phi'^2+g(phi)*phi''",
              lambda v: v.g1_phi * v.phi1 ** 2 + v.g_phi * v.phi2)),
    CPHIUG: (("g'(phi)*phi'^2", lambda v: v.g1_phi * v.phi1 ** 2),
             ("g''(phi)*phi'^2+g'(phi)*phi''",
              lambda v: v.g2_phi * v.phi1 ** 2 + v.g1_phi * v.phi2)),
}


@dataclass(frozen=True)
class SymbolWeight:
    """A symbol weight u bound to a symbol: entry ``slot`` (0 for u1, 1 for
    u2) of the pair ``WEIGHT_FORMULAS[kind]``, which gives its label (the
    name in reports and in the keys a grid context keeps) and its formula
    over a value provider. Callable at points; ``on_grid`` gives the table
    over a grid's points."""
    sym: SelfMapSymbol
    kind: str
    slot: int

    @property
    def label(self) -> str:
        return WEIGHT_FORMULAS[self.kind][self.slot][0]

    @property
    def formula(self) -> Callable:
        return WEIGHT_FORMULAS[self.kind][self.slot][1]

    def __call__(self, z):
        return self.formula(SymbolValues(self.sym, z))

    def on_grid(self, grid: DiskGrid) -> np.ndarray:
        return self.formula(self.sym.context(grid).values())


def symbol_weights(kind: str, sym: SelfMapSymbol) -> dict[str, SymbolWeight]:
    """The two symbol weights (u1, u2) entering each operator's conditions."""
    if kind not in WEIGHT_FORMULAS:
        raise ValueError(f"unknown operator kind {kind!r}")
    return {"u1": SymbolWeight(sym, kind, 0), "u2": SymbolWeight(sym, kind, 1)}


# -- symbol families from JSON -------------------------------------------------


def phi_from_config(spec: dict) -> Analytic:
    """Inner-symbol families: scaled_identity, mobius (a closed form), poly."""
    family = spec.get("family")
    params = spec.get("params", {})
    if family == "scaled_identity":
        c = _as_complex(params.get("c", 1.0))
        return TruncatedSeries([0.0, c])
    if family == "mobius":
        return ClosedForm("mobius", _as_complex(params["a"]))
    if family == "poly":
        return TruncatedSeries([_as_complex(c) for c in params["coeffs"]])
    raise ValueError(f"unknown phi family {family!r}")


def g_from_config(spec: dict) -> Analytic:
    """Outer-symbol families: identity, log_cesaro (the closed form
    log(1/(1-z))), poly."""
    family = spec.get("family")
    params = spec.get("params", {})
    if family == "identity":
        return TruncatedSeries([0.0, 1.0])
    if family == "log_cesaro":
        return ClosedForm("log")
    if family == "poly":
        return TruncatedSeries([_as_complex(c) for c in params["coeffs"]])
    raise ValueError(f"unknown g family {family!r}")


def symbol_from_config(spec: dict, grid: DiskGrid | None = None) -> SelfMapSymbol:
    """Build a SelfMapSymbol from {"phi": {...}, "g": {...}}."""
    return SelfMapSymbol(phi_from_config(spec["phi"]), g_from_config(spec["g"]),
                         grid=grid)
