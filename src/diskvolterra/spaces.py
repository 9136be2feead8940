"""Weights, disk sampling, and weighted sup-norms on the unit disk.

The supremum of a smooth boundary-vanishing quantity over the disk is
estimated on a radial/angular grid whose radii follow a geometric ladder
accumulating at the boundary, then polished by a zoom: small (r, theta)
patches around the coarse argmax, recentred on their max and shrunk; the
zooms of many sups run in one loop, with one call per level. Monomial norms additionally have a closed form
(standard weights) or a dedicated capless 1-D search (logarithmic weight).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .series import Analytic

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: pass/fail slack for analytic inequalities checked in floating point
INEQUALITY_RTOL = 1e-9

#: divergence evidence: >= this growth across the last two ladder shells
SHELL_GROWTH_RATIO = 1.25

#: samples per axis of a zoom patch (odd, so the patch holds its centre)
ZOOM_PATCH = 9

#: the zoom stops once a patch's spacing in r and theta is below this
ZOOM_STOP = 1e-9


class NonFiniteValueError(ValueError):
    """An evaluation produced NaN or infinity where a finite value is required."""


def golden_max(fn, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200):
    """Golden-section maximization of a unimodal scalar function on [lo, hi].

    Returns (argmax, value). Never evaluates outside [lo, hi].
    """
    a, b = float(lo), float(hi)
    if b <= a:
        return a, fn(a)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if (b - a) <= tol * (1.0 + abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    if fc > fd:
        return c, fc
    return d, fd


def one_minus_sq(r):
    """1 - r**2 computed as (1-r)(1+r); exact for ladder radii 1 - 2**-j."""
    return (1.0 - r) * (1.0 + r)


class Weight:
    """A radial weight on the disk, called on radii r, never on points:
    standard (1-r^2)^alpha or logarithmic 1 / log(2/(1-r^2)). Both are
    strictly positive, bounded and non-increasing in r."""

    __slots__ = ("kind", "alpha")

    def __init__(self, kind: str, alpha: float | None = None):
        if kind == "standard":
            if alpha is None or not (alpha > 0):
                raise ValueError("standard weight requires alpha > 0")
            self.alpha = float(alpha)
        elif kind == "log":
            self.alpha = None
        else:
            raise ValueError(f"unknown weight kind {kind!r}")
        self.kind = kind

    @classmethod
    def standard(cls, alpha: float) -> "Weight":
        return cls("standard", alpha)

    @classmethod
    def logarithmic(cls) -> "Weight":
        return cls("log")

    def __call__(self, r):
        y = one_minus_sq(r)
        if self.kind == "standard":
            return y ** self.alpha
        return 1.0 / np.log(2.0 / y)

    def __repr__(self) -> str:
        if self.kind == "standard":
            return f"Weight.standard({self.alpha})"
        return "Weight.logarithmic()"


def is_number(value) -> bool:
    """A JSON number: an int or a float, never a bool or a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def config_int(key: str, value) -> int:
    """A config entry that must be an integer: a JSON integer, never a bool,
    a float or a string (ValueError)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


class DiskGrid:
    """Radial/angular sampling of the disk with a geometric boundary ladder.

    Radii combine ``radii_count`` uniformly spaced inner radii on [0, 1/2)
    with a ladder 1 - 2**(-k/steps_per_octave) accumulating at
    r_max = 1 - 2**-j_max, with j_max <= 50. The octave points 1 - 2**-j are
    always included.
    Angles are equispaced. Every supremum taken over the grid is polished
    by ``grid_supremum``'s zoom. A grid is not changed after construction:
    symbols keep their results per grid object.
    """

    #: the parameters a config may set; the others keep their defaults
    CONFIG_KEYS = ("radii_count", "angles", "j_max", "steps_per_octave")

    def __init__(self, radii_count: int = 20, angles: int = 512, j_max: int = 40,
                 steps_per_octave: int = 4):
        if angles < 64:
            raise ValueError("angles must be >= 64")
        if j_max < 1 or steps_per_octave < 1 or radii_count < 1:
            raise ValueError("radii_count, j_max, steps_per_octave must be >= 1")
        if j_max > 50:
            raise ValueError(f"j_max must be <= 50, got {j_max}: beyond 50, grid points "
                             "at radius 1 - 2**-j round onto the unit circle in double "
                             "precision")
        inner = np.linspace(0.0, 0.5, radii_count, endpoint=False)
        ks = np.arange(steps_per_octave, j_max * steps_per_octave + 1)
        ladder = 1.0 - 2.0 ** (-ks / steps_per_octave)
        self.radii = np.unique(np.concatenate([inner, ladder]))
        self.n_angles = int(angles)
        self.j_max = int(j_max)
        self.steps_per_octave = int(steps_per_octave)
        self.angles = 2.0 * np.pi * np.arange(self.n_angles) / self.n_angles
        self.points = self.radii[:, None] * np.exp(1j * self.angles)[None, :]
        self.points.flags.writeable = False
        self.radii.flags.writeable = False
        self.angles.flags.writeable = False

    @property
    def r_max(self) -> float:
        return float(self.radii[-1])

    @classmethod
    def from_config(cls, cfg: dict) -> "DiskGrid":
        """A grid from a config dict; an unknown key or a config that is not
        a dict raises ValueError."""
        if not isinstance(cfg, dict):
            raise ValueError(f"grid config must be an object, got {cfg!r}")
        unknown = sorted(set(cfg) - set(cls.CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown grid keys: {', '.join(unknown)}")
        return cls(**{key: config_int(key, cfg[key]) for key in cls.CONFIG_KEYS if key in cfg})

    def __repr__(self) -> str:
        return (f"DiskGrid(radii={len(self.radii)}, angles={self.n_angles}, "
                f"j_max={self.j_max})")


_default_grid: DiskGrid | None = None


def default_grid() -> DiskGrid:
    """Shared default grid, built once, so that every symbol keeps one
    evaluation context for it across calls."""
    global _default_grid
    if _default_grid is None:
        _default_grid = DiskGrid()
    return _default_grid


@dataclass
class SupEstimate:
    """Result of a supremum estimate over the disk."""
    value: float
    argmax: complex
    refined: bool
    diverging: bool = False
    shell_max: np.ndarray | None = field(default=None, repr=False, compare=False)


def _shell_divergence(shell_max: np.ndarray, argmax_shell: int) -> bool:
    """Monotone growth at the outermost three shells => divergence evidence."""
    n = len(shell_max)
    if argmax_shell != n - 1 or n < 3:
        return False
    a, b, c = shell_max[-3], shell_max[-2], shell_max[-1]
    if not (a < b < c):
        return False
    return a > 0 and c >= SHELL_GROWTH_RATIO * a


def shell_maxima(vals: np.ndarray) -> tuple:
    """(max of each row, first column holding it) of a grid table. argmax
    takes NaN and inf for maxima, so a non-finite value anywhere leaves a
    non-finite row max: it raises NonFiniteValueError."""
    cols = vals.argmax(axis=1)
    row_max = np.take_along_axis(vals, cols[:, None], axis=1)[:, 0]
    if not np.all(np.isfinite(row_max)):
        raise NonFiniteValueError("non-finite value in supremum sweep")
    return row_max, cols


def grid_supremum(magnitude, grid: DiskGrid, coarse: tuple | None = None) -> SupEstimate:
    """Max of a nonnegative function over the grid, then a zoom around it:
    the batch of one of ``zoom_suprema``.

    ``magnitude(r, z)`` maps points z to nonnegative reals, with r their
    exact radii as a column broadcasting against z: a radial weight reads
    r, never |z|, whose rounding costs up to 2.4e-4 relative at the cap.
    The coarse pass is ``coarse`` when given, else ``shell_maxima`` of the
    values at the grid; each zoom level calls ``magnitude`` once, on one
    ZOOM_PATCH x ZOOM_PATCH patch. Non-finite values raise
    NonFiniteValueError.
    """
    coarse = coarse or shell_maxima(magnitude(grid.radii[:, None], grid.points))
    return zoom_suprema(lambda rows, r, z: magnitude(r[0], z[0])[None], grid, [coarse])[0]


def zoom_suprema(magnitude, grid: DiskGrid, coarse: list) -> list:
    """One refined ``SupEstimate`` per coarse pass of ``coarse``, all zoomed
    in one loop.

    A coarse pass is the pair (shell_max, shell_col): per grid radius, the
    max over its circle and the first angle index holding it. Each sup's
    zoom evaluates ZOOM_PATCH x ZOOM_PATCH (r, theta) patches: the first
    spans the grid samples next to the first radius holding the largest
    shell max, at its shell_col; each next one the samples next to the
    first flat max of the last patch, with r clipped to [0, r_max]. A sup
    leaves the loop after the level whose spacing is below ZOOM_STOP; its
    estimate is the largest value seen, so never below its grid max.

    Each level makes one call ``magnitude(rows, r, z)`` on the patches of
    the sups still zooming, stacked: z of shape (k, P, P), r their exact
    radii of shape (k, P, 1), ``rows`` the indices into ``coarse`` of the
    k sups. A sup's patches, levels and estimate are those it has when
    zoomed alone. A non-finite value raises NonFiniteValueError.
    """
    half = (ZOOM_PATCH - 1) // 2
    steps = np.arange(-half, half + 1)
    shell_i = np.array([int(np.argmax(shell_max)) for shell_max, _ in coarse], dtype=np.intp)
    best = np.array([shell_max[i] for (shell_max, _), i in zip(coarse, shell_i)], dtype=float)
    th_mid = grid.angles[[int(col[i]) for (_, col), i in zip(coarse, shell_i)]]
    r_lo = grid.radii[np.maximum(shell_i - 1, 0)]
    r_hi = grid.radii[np.minimum(shell_i + 1, len(grid.radii) - 1)]
    r_mid, dr = (r_lo + r_hi) / 2.0, (r_hi - r_lo) / (2 * half)
    dt = np.full(len(coarse), 2.0 * np.pi / grid.n_angles / half)
    r_best, th_best = grid.radii[shell_i], th_mid.copy()
    rows = np.arange(len(coarse))
    while rows.size:
        rs = np.clip(r_mid[rows, None] + dr[rows, None] * steps, 0.0, grid.r_max)
        ths = th_mid[rows, None] + dt[rows, None] * steps
        patch = magnitude(rows, rs[:, :, None],
                          rs[:, :, None] * np.exp(1j * ths)[:, None, :])
        if not np.all(np.isfinite(patch)):
            raise NonFiniteValueError("non-finite value in supremum zoom")
        k = np.arange(len(rows))
        flat = patch.reshape(len(rows), -1)
        at = flat.argmax(axis=1)
        a, b = np.divmod(at, ZOOM_PATCH)
        top, r_top, th_top = flat[k, at], rs[k, a], ths[k, b]
        up = top > best[rows]
        best[rows[up]], r_best[rows[up]], th_best[rows[up]] = top[up], r_top[up], th_top[up]
        going = np.maximum(dr[rows], dt[rows]) >= ZOOM_STOP
        r_mid[rows], th_mid[rows] = r_top, th_top
        dr[rows] /= half
        dt[rows] /= half
        rows = rows[going]
    return [SupEstimate(value=float(best[n]),
                        argmax=float(r_best[n]) * complex(math.cos(th_best[n]),
                                                          math.sin(th_best[n])),
                        refined=True,
                        diverging=_shell_divergence(shell_max, int(shell_i[n])),
                        shell_max=shell_max)
            for n, (shell_max, _) in enumerate(coarse)]


def weighted_sup_norm(f_eval, weight: Weight, grid: DiskGrid) -> SupEstimate:
    """sup over the disk of weight(|z|) * |f(z)|, the weight read at exact radii."""
    return grid_supremum(lambda r, z: weight(r) * np.abs(f_eval(z)), grid)


def monomial_norm(n: int, weight: Weight) -> float:
    """Weighted sup-norm of z**n.

    Standard weight: closed form, maximizer r*^2 = n/(n+2 alpha). Logarithmic
    weight: golden-section search in log(1-r) with no radius cap, since the
    maximizer approaches the boundary as n grows.
    """
    if n < 0 or int(n) != n:
        raise ValueError("n must be a nonnegative integer")
    n = int(n)
    if weight.kind == "standard":
        a = weight.alpha
        if n == 0:
            return 1.0
        # log(n/(n+2a)) as -log1p(2a/n): the plain quotient loses ~1e-10 at n = 1e7
        return math.exp(-0.5 * n * math.log1p(2.0 * a / n)
                        + a * math.log(2.0 * a / (n + 2.0 * a)))
    if n == 0:
        return 1.0 / math.log(2.0)

    def log_objective(x: float) -> float:
        t = math.exp(x)  # t = 1 - r
        return n * math.log1p(-t) - math.log(math.log(2.0 / (t * (2.0 - t))))

    x_star, fval = golden_max(log_objective, math.log(1e-18), -1e-12, tol=1e-13,
                              max_iter=300)
    return math.exp(fval)


def bloch_norm(f: Analytic, alpha: float, grid: DiskGrid | None = None) -> float:
    """|f(0)| + sup (1-|z|^2)^alpha |f'(z)|."""
    grid = grid or default_grid()
    sup = weighted_sup_norm(f.derivative(), Weight.standard(alpha), grid)
    return abs(f.coefficient(0)) + sup.value


def zygmund_norm(f: Analytic, alpha: float, grid: DiskGrid | None = None) -> float:
    """|f(0)| + |f'(0)| + sup (1-|z|^2)^alpha |f''(z)|."""
    grid = grid or default_grid()
    sup = weighted_sup_norm(f.derivative().derivative(), Weight.standard(alpha), grid)
    return abs(f.coefficient(0)) + abs(f.coefficient(1)) + sup.value


@dataclass
class ClauseCheck:
    """One growth-bound clause checked over the whole grid."""
    clause: str            # "i" .. "vi"
    quantity: str          # "f'" or "f"
    passed: bool
    worst_ratio: float     # max over grid of |quantity| / bound; pass iff <= 1
    observed_constant: float | None = None


@dataclass
class GrowthBoundReport:
    alpha: float
    norm: float
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def growth_bound_check(f: Analytic, alpha: float,
                       grid: DiskGrid | None = None) -> GrowthBoundReport:
    """Check the derivative/value growth bounds implied by a finite
    Zygmund-type norm, clause by clause over the full grid.

    Clauses, with N the computed norm and r = |z|:

    * (i)   0<alpha<1:  |f'| <= 2/(1-alpha) N   and  |f| <= 2/(1-alpha) N
    * (ii)  alpha=1:    |f'| <= 2 log(2/(1-r)) N  and  |f| <= N
    * (iii) alpha>1:    |f'| <= 2/(alpha-1) N / (1-r)^(alpha-1)
    * (iv)  1<alpha<2:  |f|  <= 2/((alpha-1)(2-alpha)) N
    * (v)   alpha=2:    |f|  <= 2 log(2/(1-r)) N
    * (vi)  alpha>2:    |f|  <= 2/((alpha-1)(alpha-2)) N / (1-r)^(alpha-2)

    For the alpha=1 value clause the observed best constant max|f|/N is
    recorded alongside the pass/fail, since the printed constant is 1.
    """
    grid = grid or default_grid()
    norm = zygmund_norm(f, alpha, grid)
    if norm == 0.0:
        raise ValueError("growth bounds are undefined for the zero function")
    fv = np.abs(f(grid.points))
    fpv = np.abs(f.derivative()(grid.points))
    one_minus_r = 1.0 - grid.radii[:, None]
    log_factor = 2.0 * np.log(2.0 / one_minus_r)

    checks: list[ClauseCheck] = []

    def add(clause, quantity, lhs, bound, observed=None):
        ratio = float(np.max(lhs / bound))
        checks.append(ClauseCheck(clause, quantity, ratio <= 1.0 + INEQUALITY_RTOL,
                                  ratio, observed))

    if alpha < 1.0:
        c = 2.0 / (1.0 - alpha)
        add("i", "f'", fpv, c * norm)
        add("i", "f", fv, c * norm)
    elif alpha == 1.0:
        add("ii", "f'", fpv, log_factor * norm)
        add("ii", "f", fv, norm, observed=float(np.max(fv)) / norm)
    else:
        c = 2.0 / (alpha - 1.0)
        add("iii", "f'", fpv, c * norm / one_minus_r ** (alpha - 1.0))
        if alpha < 2.0:
            c4 = 2.0 / ((alpha - 1.0) * (2.0 - alpha))
            add("iv", "f", fv, c4 * norm)
        elif alpha == 2.0:
            add("v", "f", fv, log_factor * norm)
        else:
            c6 = 2.0 / ((alpha - 1.0) * (alpha - 2.0))
            add("vi", "f", fv, c6 * norm / one_minus_r ** (alpha - 2.0))

    return GrowthBoundReport(alpha=float(alpha), norm=norm, checks=checks)
