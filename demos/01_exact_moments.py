"""Exact moments of polynomials in Gaussian variables, two ways.

For f(X) with X a standard normal vector, the mean and variance can be
computed exactly either by raw moment combinatorics (E[X^k] = (k-1)!!) or by
rewriting f in the orthonormal Hermite basis, where the variance is the sum
of squared non-constant coefficients.  The two routes share no code path, so
their agreement is a strong correctness check.
"""

import numpy as np

import polygauss as pg

# f = 3 x1^2 x2 + x1 x2^2 - 5 x2
f = pg.Polynomial(2, {(2, 1): 3.0, (1, 2): 1.0, (0, 1): -5.0})
print("f:", f)
print("degree:", pg.degree(f))
print("leading magnitude and witness:", pg.leading_magnitude(f))
print("max per-variable power:", pg.max_var_power(f))

print("\nmean:", pg.expectation(f))
print("variance (moment route): ", pg.variance(f))
print("variance (hermite route):", pg.variance_via_hermite(f))

exp = pg.hermite_expand(f)
print("\nhermite coefficients (index -> coefficient):")
for idx in sorted(exp.coeffs):
    print(f"  {idx}: {exp.coeffs[idx]:+.6f}")

# Monte Carlo cross-check
s = pg.sample(f, 200_000, seed=1)
print("\nmonte carlo variance (N=2e5):", np.var(s.values).round(4))
