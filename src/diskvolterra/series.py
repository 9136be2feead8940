"""Analytic functions on the unit disk: truncated power series and closed forms.

Every symbol is read through one small protocol, ``Analytic``: values at
scalars and arrays, the derivative, Taylor coefficients and a truncated
series for the series route. ``TruncatedSeries`` implements it for
polynomials: differentiation and integration are exact on coefficients;
products and compositions are truncated at a working degree.
``ClosedForm`` implements it for the Mobius map and log(1/(1-z)) by their
formulas, so they are evaluated as the functions they name, with no
truncation. Both evaluate scalars and arrays through one array path.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np
from numpy.polynomial import polynomial as _poly

#: default working degree for products, powers and compositions
N_WORK = 512

#: evaluation is restricted to the closed unit disk, with this much slack
EVAL_DOMAIN_TOL = 1e-12


class Analytic(Protocol):
    """What the package reads of an analytic function on the disk."""

    def __call__(self, z):
        """Values at an ndarray of points; a Python complex at a scalar."""

    def derivative(self) -> "Analytic":
        """The derivative, in the same representation."""

    def coefficient(self, k: int) -> complex:
        """Taylor coefficient of z**k at 0."""

    def series(self, n_work: int) -> "TruncatedSeries":
        """Coefficients for the series route, truncated at degree n_work."""


def _check_domain(z) -> None:
    """Points with |z| > 1 + EVAL_DOMAIN_TOL are a domain violation."""
    if np.max(np.abs(z), initial=0.0) > 1.0 + EVAL_DOMAIN_TOL:
        raise ValueError("evaluation point outside the closed unit disk")


class TruncatedSeries:
    """A polynomial of one complex variable, canonically trimmed.

    Instances are immutable: the coefficient array is read-only and all
    operations return fresh series, so values can be shared freely across
    threads. The zero function is represented by the single coefficient
    ``[0]``; trailing zeros are trimmed on construction so coefficient
    vectors compare canonically.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
        if arr.size == 0:
            arr = np.zeros(1, dtype=complex)
        if not np.all(np.isfinite(arr)):
            raise ValueError("series coefficients must be finite")
        nz = np.nonzero(arr)[0]
        arr = arr[: nz[-1] + 1].copy() if nz.size else np.zeros(1, dtype=complex)
        arr.flags.writeable = False
        self._coeffs = arr

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array, ascending powers."""
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, k: int) -> complex:
        """Coefficient of z**k (0 beyond the stored degree)."""
        return complex(self._coeffs[k]) if 0 <= k <= self.degree else 0.0

    def series(self, n_work: int = N_WORK) -> "TruncatedSeries":
        """The series itself: its coefficients are exact at any n_work."""
        return self

    def l1(self) -> float:
        """Sum of coefficient moduli; bounds sup|f| on the closed disk."""
        return float(np.sum(np.abs(self._coeffs)))

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return np.array_equal(self._coeffs, other._coeffs)

    def __hash__(self):
        return hash(self._coeffs.tobytes())

    def __repr__(self) -> str:
        head = np.array2string(self._coeffs[:4], precision=4, separator=", ")
        more = "" if self.degree < 4 else f" ... deg {self.degree}"
        return f"TruncatedSeries({head}{more})"

    # -- evaluation --------------------------------------------------------

    def __call__(self, z):
        """Evaluate by Horner recurrence at points of the closed unit disk.

        Accepts a scalar, returning a Python complex, or an ndarray. Points
        with |z| > 1 + 1e-12 are a domain violation and raise ValueError.
        """
        zz = np.asarray(z)
        _check_domain(zz)
        # numpy polyval's arithmetic, bit for bit, in one output array:
        # polyval allocates a new array in every step
        vals = np.multiply(zz, 0, dtype=complex)
        vals += self._coeffs[-1]
        for c in self._coeffs[-2::-1]:
            vals *= zz
            vals += c
        if zz.ndim == 0:
            return complex(vals)
        return vals

    # -- calculus (exact on coefficients) ----------------------------------

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative; degree drops by one, [c] -> [0]."""
        return TruncatedSeries(_poly.polyder(self._coeffs))

    def integrate(self) -> "TruncatedSeries":
        """Antiderivative vanishing at 0: coefficient k+1 = c_k / (k+1)."""
        return TruncatedSeries(_poly.polyint(self._coeffs, lbnd=0))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries":
        if np.isscalar(other):
            other = TruncatedSeries([other])
        n = max(len(self), len(other))
        a = np.zeros(n, dtype=complex)
        a[: len(self)] = self._coeffs
        a[: len(other)] += other._coeffs
        return TruncatedSeries(a)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-self._coeffs)

    def __sub__(self, other) -> "TruncatedSeries":
        if np.isscalar(other):
            other = TruncatedSeries([other])
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def scale(self, c) -> "TruncatedSeries":
        return TruncatedSeries(self._coeffs * c)

    def __mul__(self, other):
        if np.isscalar(other):
            return self.scale(other)
        return self.mul(other)

    def __rmul__(self, other):
        if np.isscalar(other):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return self.scale(1.0 / c)

    def mul(self, other: "TruncatedSeries", n_work: int = N_WORK) -> "TruncatedSeries":
        """Cauchy product truncated at n_work; exact when
        deg(a) + deg(b) <= n_work."""
        return TruncatedSeries(np.convolve(self._coeffs, other._coeffs)[: n_work + 1])

    def pow(self, n: int, n_work: int = N_WORK) -> "TruncatedSeries":
        """Integer power by repeated squaring, truncated at n_work."""
        if n < 0 or int(n) != n:
            raise ValueError("exponent must be a nonnegative integer")
        result = TruncatedSeries([1.0])
        base = self
        n = int(n)
        while n:
            if n & 1:
                result = result.mul(base, n_work)
            n >>= 1
            if n:
                base = base.mul(base, n_work)
        return result

    def compose(self, inner: "TruncatedSeries", n_work: int = N_WORK) -> "TruncatedSeries":
        """Horner-style composition sum c_k * inner**k truncated at n_work;
        exact when deg(self) * deg(inner) <= n_work."""
        c = self._coeffs
        result = TruncatedSeries([c[-1]])
        for k in range(len(c) - 2, -1, -1):
            result = result.mul(inner, n_work) + c[k]
        return result

    # -- serialization -----------------------------------------------------

    def to_pairs(self) -> list:
        """JSON form: list of [re, im] pairs, ascending powers."""
        return [[float(c.real), float(c.imag)] for c in self._coeffs]

    @classmethod
    def from_pairs(cls, pairs) -> "TruncatedSeries":
        return cls([complex(p[0], p[1]) for p in pairs])


def monomial(k: int, coefficient: complex = 1.0) -> TruncatedSeries:
    """The series coefficient * z**k."""
    c = np.zeros(k + 1, dtype=complex)
    c[k] = coefficient
    return TruncatedSeries(c)


class ClosedForm:
    """A symbol given by its formula, or its derivative of some order:

    * ``"mobius"``: the disk automorphism (a - z)/(1 - conj(a) z), |a| < 1;
    * ``"log"``: log(1/(1-z)) on the principal branch; 1 - z has positive
      real part on the disk, so no branch cut is ever crossed.

    With d = 1 - b z (b = conj(a), resp. b = 1), the value is (a - z)/d,
    resp. -log(d), and the derivative of order m >= 1 is c_m / d**p: for
    the Mobius map c_m = m! b**(m-1) (|a|^2 - 1) and p = m + 1, for the log
    c_m = (m-1)! and p = m. Arrays are evaluated in one output array, as
    the Horner loop of ``TruncatedSeries`` is; only the Mobius value also
    forms a - z.
    """

    __slots__ = ("kind", "a", "order", "_s", "_b", "_c", "_p")

    def __init__(self, kind: str, a: complex = 0.0, order: int = 0):
        a = complex(a)
        if kind not in ("mobius", "log"):
            raise ValueError(f"unknown closed form {kind!r}")
        if kind == "mobius" and not abs(a) < 1:
            raise ValueError("mobius parameter must satisfy |a| < 1")
        if order < 0 or int(order) != order:
            raise ValueError("order must be a nonnegative integer")
        self.kind, self.a, self.order = kind, a, int(order)
        m = self.order
        self._s = (abs(a) - 1.0) * (abs(a) + 1.0)     # |a|^2 - 1
        if kind == "mobius":
            self._b = a.conjugate()
            self._c = math.factorial(m) * self._b ** (m - 1) * self._s if m else None
            self._p = m + 1
        else:
            self._b = 1.0 + 0j
            self._c = float(math.factorial(m - 1)) if m else None
            self._p = m

    def __repr__(self) -> str:
        return f"ClosedForm({self.kind!r}, a={self.a!r}, order={self.order})"

    def __call__(self, z):
        """Value at points of the closed unit disk (ValueError outside): a
        Python complex at a scalar, an array at an ndarray."""
        zz = np.asarray(z)
        _check_domain(zz)
        out = np.multiply(zz, -self._b, out=np.empty(zz.shape, dtype=complex))
        out += 1.0                                    # d
        if self.order:
            np.reciprocal(out, out=out)
            np.power(out, self._p, out=out)
            out *= self._c
        elif self.kind == "log":
            np.log(out, out=out)
            np.negative(out, out=out)
        else:
            np.divide(np.subtract(self.a, zz), out, out=out)
        if zz.ndim == 0:
            return complex(out)
        return out

    def derivative(self) -> "ClosedForm":
        return ClosedForm(self.kind, self.a, self.order + 1)

    def coefficient(self, k: int) -> complex:
        """Taylor coefficient of z**k: (k+1)...(k+m) times the coefficient
        of z**(k+m) of the function, which is a, resp. 0, at k + m = 0 and
        conj(a)**(j-1) (|a|^2 - 1), resp. 1/j, at j = k + m >= 1."""
        if k < 0:
            return 0j
        j = k + self.order
        if self.kind == "log":
            base = 1.0 / j if j else 0.0
        elif j:
            base = self._b ** (j - 1) * self._s
        else:
            base = self.a
        return complex(base * math.prod(range(k + 1, j + 1)))

    def series(self, n_work: int = N_WORK) -> TruncatedSeries:
        """The Taylor polynomial of degree n_work."""
        return TruncatedSeries([self.coefficient(k) for k in range(n_work + 1)])
