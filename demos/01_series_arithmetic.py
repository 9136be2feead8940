"""Truncated power series: the function carrier used everywhere else.

Every analytic function on the unit disk is handled as a finite complex
coefficient vector. Calculus is exact on coefficients; products and
compositions truncate at a working degree.
"""

import math

import numpy as np

from diskvolterra import TruncatedSeries, monomial

# A polynomial is just its coefficient list, ascending powers.
f = TruncatedSeries([1, 2, 0, -1])          # 1 + 2z - z^3
print("f(0.5)      =", f(0.5))
print("f'(z)       =", f.derivative().coeffs)
print("int_0^z f   =", f.integrate().coeffs)

# Twenty terms of the exponential series already give exp(1) to 1e-12.
exp_series = TruncatedSeries([1 / math.factorial(k) for k in range(21)])
print("\nexp(1) via series:", exp_series(1.0).real, " error:",
      abs(exp_series(1.0) - math.e))

# Products are Cauchy convolutions; (1+z)(1-z) = 1 - z^2 exactly.
one_plus = TruncatedSeries([1, 1])
one_minus = TruncatedSeries([1, -1])
print("\n(1+z)(1-z) =", one_plus.mul(one_minus).coeffs)

# Composition is Horner on series: (z/2)^2 composed into z^2.
square = monomial(2)
half = TruncatedSeries([0, 0.5])
print("z^2 o (z/2) =", square.compose(half).coeffs)

# Deep products are cut at the working degree 512.
big = TruncatedSeries(np.full(400, 0.01))
prod = big.mul(big)
print("\ndeg(big*big) =", prod.degree)

# Pointwise agreement of the coefficient route and the value route:
z = 0.3 + 0.2j
print("\n|eval(f*g) - eval(f)eval(g)| =",
      abs(one_plus.mul(square)(z) - one_plus(z) * square(z)))
