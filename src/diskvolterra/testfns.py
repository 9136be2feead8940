"""Boundary test-function families and verification of their pinned identities.

Each family is a closed-form analytic function parameterized by a point
a in the disk (families named *_n arise from sequences approaching the
boundary; here the sequence element is the parameter). Families are
evaluated symbolically with the principal log branch; 1 - conj(a) z has
positive real part on the disk so no branch cut is ever crossed.

Several families carry pinned value/derivative identities at z = a. The
verifier reports observed against claimed values and never repairs a
formula: this corner of the literature contains normalization typos, and
the artifact doubles as a checking instrument.
"""

from __future__ import annotations

import numpy as np

from .series import N_WORK, TruncatedSeries
from .spaces import DiskGrid, Weight, default_grid, grid_supremum, shell_maxima

FAMILY_KINDS = ("f_a", "h_a", "g_a", "k_a", "t_a_log",
                "h_n", "f_n", "g_n", "O_n", "t_n_kernel")

_NEEDS_ALPHA = {"f_a", "h_a", "g_a", "t_n_kernel"}
_NEEDS_OUTER_HALF = {"k_a", "h_n", "f_n", "g_n", "O_n", "t_n_kernel"}

#: Zygmund space exponent in which each fixed-exponent family is bounded
_NORM_SPACE = {"k_a": 1.0, "h_n": 1.0, "f_n": 1.0, "g_n": 1.0,
               "t_a_log": 2.0, "O_n": 2.0}

CLAIM_TOL = 1e-8


def log_kernel(a: complex, z):
    """L = log(1 - conj(a) z), principal branch: the one log every family
    is built from."""
    return np.log(1.0 - complex(a).conjugate() * np.asarray(z, dtype=complex))


class TestFamily:
    """A boundary test function with closed-form derivatives up to order 2."""

    def __init__(self, kind: str, a: complex, alpha: float | None = None):
        if kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {kind!r}")
        a = complex(a)
        if not (0.0 < abs(a) < 1.0):
            raise ValueError("parameter a must satisfy 0 < |a| < 1")
        if kind in _NEEDS_OUTER_HALF and abs(a) <= 0.5:
            raise ValueError(f"family {kind} requires |a| > 1/2")
        if kind in _NEEDS_ALPHA:
            if alpha is None or not (alpha > 0):
                raise ValueError(f"family {kind} requires alpha > 0")
            self.alpha = float(alpha)
        else:
            self.alpha = None
        self.kind = kind
        self.a = a
        self.abar = a.conjugate()
        self.mod_sq = (self.abar * a).real         # |a|^2
        self.s = 1.0 - self.mod_sq                 # 1 - |a|^2

    def __call__(self, z):
        return self.eval(z, 0)

    def eval(self, z, order: int = 0, L=None):
        """Value (order 0) or derivative (order 1 or 2) at z, vectorized.

        ``L`` is ``log_kernel(a, z)`` at this family's a and the same z,
        taken here when not given. Every family is built from it and it
        depends on a alone, so a caller evaluating several families with one
        a at one z takes it once and passes it: the values are the same bits
        either way.
        """
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        z = np.asarray(z, dtype=complex)
        L = log_kernel(self.a, z) if L is None else L
        out = getattr(self, "_" + self.kind)(z, order, L)
        return complex(out) if out.ndim == 0 else out

    # -- power-kernel families ----------------------------------------------
    # w**e is exp(e L) on the principal branch

    def _f_a(self, z, order, L):
        ab, s, al = self.abar, self.s, self.alpha
        if order == 0:
            return (s * s * np.exp(-al * L) - s * np.exp((1.0 - al) * L)) / ab
        if order == 1:
            return s * s * al * np.exp((-al - 1.0) * L) - s * (al - 1.0) * np.exp(-al * L)
        return ab * (s * s * al * (al + 1.0) * np.exp((-al - 2.0) * L)
                     - s * (al - 1.0) * al * np.exp((-al - 1.0) * L))

    def _h_a(self, z, order, L):
        ab, s, al = self.abar, self.s, self.alpha
        if order == 0:
            if al == 1.0:
                return -s * L / (ab * ab)
            return s * (1.0 - np.exp((1.0 - al) * L)) / (ab * ab * (1.0 - al))
        if order == 1:
            return (s / ab) * np.exp(-al * L)
        return s * al * np.exp((-al - 1.0) * L)

    def _g_a(self, z, order, L):
        return self._f_a(z, order, L) - self._h_a(z, order, L)

    def _t_n_kernel(self, z, order, L):
        ab, s, al = self.abar, self.s, self.alpha
        if order == 0:
            return s * s * np.exp(-al * L)
        if order == 1:
            return s * s * al * ab * np.exp((-al - 1.0) * L)
        return s * s * al * (al + 1.0) * ab * ab * np.exp((-al - 2.0) * L)

    # -- log-kernel families --------------------------------------------------
    # log(1/(1-w)) is -L and log(2/(1-w)) is log 2 - L, w = conj(a) z

    def _k_a(self, z, order, L):
        ab = self.abar
        fac = np.log(1.0 / (1.0 - abs(self.a)))
        w = ab * z
        L = -L
        if order == 0:
            return (w - 1.0) * ((1.0 + L) ** 2 + 1.0) / (ab * fac)
        if order == 1:
            return L * L / fac
        return ab * 2.0 * L / ((1.0 - w) * fac)

    def _t_a_log(self, z, order, L):
        ab = self.abar
        w = 1.0 - ab * z
        if order == 0:
            return np.log(2.0) - L + 0.0 * z
        if order == 1:
            return ab / w
        return ab * ab / (w * w)

    def _h_n(self, z, order, L):
        ab = self.abar
        lam = np.log(2.0 / self.s)
        w = ab * z
        M = np.log(2.0) - L
        if order == 0:
            hval = (w - 1.0) * ((1.0 + M) ** 2 + 1.0)
            f3 = (w - 1.0) * (M ** 3 + 3.0 * M ** 2 + 6.0 * M + 6.0)
            l2 = np.log(2.0)
            f3_at_0 = -(l2 ** 3 + 3.0 * l2 ** 2 + 6.0 * l2 + 6.0)
            return hval / (ab * lam) - (f3 - f3_at_0) / (ab * lam * lam)
        if order == 1:
            return M * M / lam - M ** 3 / (lam * lam)
        return (ab * 2.0 * M / (1.0 - w)) / lam - (ab * 3.0 * M * M / (1.0 - w)) / (lam * lam)

    def _f_n(self, z, order, L):
        a, ab = self.a, self.abar
        lam = np.log(2.0 / self.s)
        w = ab * z
        M = np.log(2.0) - L
        if order == 0:
            # divisor is a (not conj a), exactly as the source prints it
            return (w - 1.0) * ((1.0 + M) ** 2 + 1.0) / (a * lam)
        if order == 1:
            return ab * M * M / (a * lam)
        return ab * ab * 2.0 * M / ((1.0 - w) * a * lam)

    def _g_n(self, z, order, L):
        a, ab = self.a, self.abar
        ell = np.log(1.0 / self.s)
        w = ab * z
        L = -L
        if order == 0:
            ell_term = (self.mod_sq - 1.0) * ((1.0 + ell) ** 2 + 1.0) / (a * ell)
            return (w - 1.0) * ((1.0 + L) ** 2 + 1.0) / (a * ell) - ell_term
        if order == 1:
            return ab * L * L / (a * ell)
        return ab * ab * 2.0 * L / ((1.0 - w) * a * ell)

    def _O_n(self, z, order, L):
        ab = self.abar
        lam = np.log(2.0 / self.s)
        w = ab * z
        M = np.log(2.0) - L
        if order == 0:
            return (1.0 + M * M) / lam
        if order == 1:
            return 2.0 * M * ab / ((1.0 - w) * lam)
        return 2.0 * ab * ab * (1.0 + M) / ((1.0 - w) ** 2 * lam)


def family_zygmund_norm(fam: TestFamily, alpha: float,
                        grid: DiskGrid | None = None, L=None) -> float:
    """Zygmund-type norm of a family member from its closed-form derivatives.

    The sup of (1-r^2)^alpha |fam''| is ``weighted_sup_norm``'s: its coarse
    pass, weight(grid radii) * |fam''(grid points)|, is taken here with
    ``L = log_kernel(fam.a, grid.points)`` when given (else fam's own), and
    the zoom around it is ``grid_supremum``'s.
    """
    grid = grid or default_grid()
    weight = Weight.standard(alpha)
    coarse = shell_maxima(weight(grid.radii[:, None]) * np.abs(fam.eval(grid.points, 2, L)))
    sup = grid_supremum(lambda r, z: weight(r) * np.abs(fam.eval(z, 2)), grid, coarse)
    return abs(fam.eval(0.0)) + abs(fam.eval(0.0, 1)) + sup.value


def to_series(fam: TestFamily, degree: int = N_WORK, fit_radius: float = 0.99,
              samples: int = 8192, seed: int = 0):
    """Fit a family member by a truncated series, reporting the residual.

    Projection via FFT of circle samples (the discrete least-squares fit in
    that circle's inner product); slowly converging kernels near |z| = 1
    make this preferable to interpolation. Returns (series, residual) where
    the residual is the max error over fresh interior check points.
    """
    m = np.arange(samples)
    circle = fit_radius * np.exp(2j * np.pi * m / samples)
    vals = fam(circle)
    coeffs = np.fft.fft(vals) / samples
    k = np.arange(degree + 1)
    fitted = TruncatedSeries(coeffs[: degree + 1] / fit_radius ** k)
    rng = np.random.default_rng(seed)
    zs = 0.7 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
    residual = float(np.max(np.abs(fitted(zs) - fam(zs))))
    return fitted, residual


def _claim(name: str, claimed, observed, tol: float = CLAIM_TOL) -> dict:
    """A checked identity: status 'verified' within tol, else 'mismatch'."""
    err = abs(observed - claimed)
    return {"claim": name,
            "claimed": complex(claimed),
            "observed": complex(observed),
            "error": float(err),
            "status": "verified" if err <= tol else "mismatch"}


def _report(name: str, observed, note: str = "") -> dict:
    """An observation with no pinned expectation."""
    return {"claim": name, "observed": complex(observed), "status": "reported",
            "note": note}


def _pinned_claims(kind: str, a: complex, alpha: float | None) -> list:
    fam = TestFamily(kind, a, alpha)
    ab, s = fam.abar, fam.s
    out = []
    if kind == "h_a":
        out.append(_claim("h_a(0) = 0", 0.0, fam.eval(0.0)))
    elif kind == "g_a":
        out.append(_claim("g_a'(a) = 0", 0.0, fam.eval(a, 1)))
        out.append(_claim(f"g_a''(a) = alpha/(1-|a|^2)^alpha",
                          alpha / s ** alpha, fam.eval(a, 2)))
    elif kind == "f_a":
        out.append(_claim("|f_a'(a)| = 1/(|a| (1-|a|^2)^(alpha-1))",
                          s ** (1.0 - alpha) / abs(a), abs(fam.eval(a, 1))))
        out.append(_claim("|f_a''(a)| = 2 alpha/(1-|a|^2)^alpha",
                          2.0 * alpha / s ** alpha, abs(fam.eval(a, 2))))
    elif kind == "h_n":
        out.append(_claim("h_n'(a) = 0", 0.0, fam.eval(a, 1)))
        out.append(_claim("h_n''(a) = -conj(a)/(1-|a|^2)", -ab / s, fam.eval(a, 2)))
    elif kind == "g_n":
        ell = np.log(1.0 / s)
        out.append(_claim("g_n(a) = 0", 0.0, fam.eval(a)))
        out.append(_claim("g_n'(a) = log(1/(1-|a|^2))", ell, fam.eval(a, 1)))
        out.append(_claim("|g_n'(a)| = log(1/(1-|a|^2))", ell, abs(fam.eval(a, 1))))
    elif kind == "f_n":
        lam = np.log(2.0 / s)
        out.append(_claim("|f_n'(a)| = log(2/(1-|a|^2))", lam, abs(fam.eval(a, 1))))
    elif kind == "O_n":
        lam = np.log(2.0 / s)
        out.append(_claim("O_n'(a) = 2 conj(a)/(1-|a|^2)", 2.0 * ab / s, fam.eval(a, 1)))
        out.append(_report("O_n(a)", fam.eval(a),
                           note=f"log(2/(1-|a|^2)) = {lam:.12g}"))
    return out


def verify_family_claims(a_grid=None, alpha_grid=None, grid: DiskGrid | None = None,
                         kinds=None) -> dict:
    """Numerically check each family's pinned identities and norm bounds.

    Returns, per family kind, the list of claim records over the parameter
    grid and the observed Zygmund-type norms over the grid (families with a
    claimed uniform bound should show a modest max/min ratio and no blowup
    as |a| grows). A family with no admissible a reports no claims and no
    norm blocks. Mismatches are reported, never repaired.

    The norms are computed with a as the outer loop: every family shares
    one grid log ``log_kernel(a, grid.points)``, taken once per a and
    dropped before the next.
    """
    grid = grid or default_grid()
    a_grid = [0.6, 0.7, 0.8, 0.9, 0.95, 0.99] if a_grid is None else list(a_grid)
    alpha_grid = [0.5, 1.0, 1.5, 2.0] if alpha_grid is None else list(alpha_grid)
    kinds = FAMILY_KINDS if kinds is None else kinds
    alphas = {kind: alpha_grid if kind in _NEEDS_ALPHA else [None] for kind in kinds}

    def admits(kind, a):
        return not (kind in _NEEDS_OUTER_HALF and abs(a) <= 0.5)

    def norm_alpha(kind, alpha):
        return alpha if alpha is not None else _NORM_SPACE.get(kind, 1.0)

    norm_of = {}
    for i, a in enumerate(a_grid):
        L = log_kernel(a, grid.points)
        for kind in kinds:
            if admits(kind, a):
                for j, alpha in enumerate(alphas[kind]):
                    norm_of[kind, j, i] = family_zygmund_norm(
                        TestFamily(kind, a, alpha), norm_alpha(kind, alpha), grid, L)
        del L

    report = {}
    for kind in kinds:
        a_ok = [(i, a) for i, a in enumerate(a_grid) if admits(kind, a)]
        claims = []
        norm_blocks = []
        for j, alpha in enumerate(alphas[kind]):
            for _, a in a_ok:
                for entry in _pinned_claims(kind, a, alpha):
                    entry["a"] = complex(a)
                    if alpha is not None:
                        entry["alpha"] = alpha
                    claims.append(entry)
            if not a_ok:
                continue
            norms = {float(abs(a)): norm_of[kind, j, i] for i, a in a_ok}
            vals = list(norms.values())
            norm_blocks.append({
                "alpha": float(norm_alpha(kind, alpha)),
                "norms": norms,
                "max": max(vals),
                "min": min(vals),
                "max_over_min": max(vals) / min(vals) if min(vals) > 0 else float("inf"),
            })
        report[kind] = {"claims": claims, "norm_bound": norm_blocks}
    return report
