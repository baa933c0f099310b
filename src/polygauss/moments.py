"""Exact expectations and variances of f(X) for standard Gaussian X.

Two independent routes are provided and cross-checked in the tests:

* moment combinatorics:  E f(X) = sum_J a_J * prod_i E[X^{j_i}], with
  E[X^k] = (k-1)!! for even k and 0 for odd k; the second moment comes from
  expanding f^2 exactly.
* Hermite expansion: rewrite f in the orthonormal probabilists' Hermite
  basis h_k = H_k / sqrt(k!); then E f = c_0 and Var f = sum_{J != 0} c_J^2.

Also included: the one-dimensional derivative-energy lower bound
Var g(X) >= (1/m) E[g'(X)^2] for deg g <= m, and the numeric constant

    c2(m) = min { (1/m) E[g'(X)^2] : max_{1<=j<=m} |a_j| = 1 }

so that (1/m) E[g'(X)^2] >= c2(m) * max_j |a_j|^2.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .errors import InputError
from .poly import MultiIndex, Polynomial, degree, multiply, partial_derivative


def gaussian_moment(k: int) -> float:
    """E[X^k] for X ~ N(0,1): (k-1)!! for even k, 0 for odd k."""
    if k < 0:
        raise InputError(f"moment order must be >= 0, got {k}")
    if k % 2 == 1:
        return 0.0
    try:
        return float(math.prod(range(k - 1, 0, -2)))
    except OverflowError:
        raise InputError(f"E[X^{k}] overflows a float") from None


def expectation(f: Polynomial) -> float:
    """E f(X) by coordinate independence of the standard Gaussian vector."""
    total = 0.0
    for exps, coef in f.terms.items():
        if any(e % 2 for e in exps):
            continue
        term = coef
        for e in exps:
            if e:
                term *= gaussian_moment(e)
        total += term
    return total


def variance(f: Polynomial) -> float:
    """Var f(X) = E[f^2] - (E f)^2, computed exactly and clipped at zero.

    The raw value can dip a hair below zero for near-constant f; values in
    (-1e-9, 0) are clipped with a warning.
    """
    mean = expectation(f)
    raw = expectation(multiply(f, f)) - mean * mean
    if raw < 0.0:
        scale = max(1.0, mean * mean)
        if raw > -1e-9 * scale:
            warnings.warn(
                f"variance {raw:.3e} clipped to 0 (roundoff on near-constant input)",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            warnings.warn(
                f"variance {raw:.3e} is significantly negative; check inputs",
                RuntimeWarning,
                stacklevel=2,
            )
        return 0.0
    return raw


@dataclass(frozen=True)
class HermiteExpansion:
    """Coefficients of f in the orthonormal tensor Hermite basis.

    Orthonormality gives Parseval identities:
    ``coeffs[0] = E f`` and ``sum c^2 = E[f^2]``.
    """

    n: int
    coeffs: dict[MultiIndex, float]

    @property
    def mean(self) -> float:
        return self.coeffs.get((0,) * self.n, 0.0)

    @property
    def second_moment(self) -> float:
        return sum(c * c for c in self.coeffs.values())

    @property
    def variance(self) -> float:
        return sum(c * c for k, c in self.coeffs.items() if any(k))


@lru_cache(maxsize=None)
def _monomial_in_hermite(p: int) -> tuple[float, ...]:
    """Coefficients of x^p in the orthonormal Hermite basis (h_0 .. h_p).

    Built from x * h_k = sqrt(k+1) h_{k+1} + sqrt(k) h_{k-1}.
    """
    vec = [1.0]
    for _ in range(p):
        new = [0.0] * (len(vec) + 1)
        for k, c in enumerate(vec):
            if c == 0.0:
                continue
            new[k + 1] += c * math.sqrt(k + 1)
            if k >= 1:
                new[k - 1] += c * math.sqrt(k)
        vec = new
    return tuple(vec)


def hermite_expand(f: Polynomial) -> HermiteExpansion:
    """Exact basis change from monomials to orthonormal Hermite products."""
    coeffs: dict[MultiIndex, float] = {}
    for exps, coef in f.terms.items():
        vecs = [_monomial_in_hermite(e) for e in exps]
        for combo in itertools.product(*(range(len(v)) for v in vecs)):
            c = coef
            for v, k in zip(vecs, combo):
                c *= v[k]
            if c == 0.0:
                continue
            coeffs[combo] = coeffs.get(combo, 0.0) + c
    return HermiteExpansion(f.n, {k: c for k, c in coeffs.items() if c != 0.0})


def variance_via_hermite(f: Polynomial) -> float:
    return hermite_expand(f).variance


def variance_lower_bound_1d(g: Polynomial, m: int) -> float:
    """(1/m) E[g'(X)^2] for a univariate g of degree <= m.

    This quantity sits below Var g(X): writing g in the Hermite basis,
    Var g = sum_{k>=1} c_k^2 while E[g'^2] = sum k c_k^2 <= m * Var g.
    """
    if g.n != 1:
        raise InputError(f"expected a univariate polynomial, got n={g.n}")
    if not g.is_zero and degree(g) > m:
        raise InputError(f"degree {degree(g)} exceeds cap m={m}")
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")
    gp = partial_derivative(g, 1)
    if gp.is_zero:
        return 0.0
    return expectation(multiply(gp, gp)) / m


def _derivative_energy_matrix(m: int) -> np.ndarray:
    """Gram matrix B with a^T B a = E[g'(X)^2] for g(s) = sum_{j=0}^m a_j s^j."""
    b = np.zeros((m, m))
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            b[j - 1, k - 1] = j * k * gaussian_moment(j + k - 2)
    return b


@lru_cache(maxsize=None)
def min_derivative_energy(m: int) -> float:
    """c2(m): minimum of (1/m) E[g'(X)^2] over {max_{1<=j<=m} |a_j| = 1}.

    The minimum of the positive-definite quadratic form over the unit cube
    surface is attained on one of the faces a_j = +-1; by symmetry only
    a_j = +1 faces need solving.  Each face problem is a small convex box-
    constrained QP, solved with L-BFGS-B from several starts.
    """
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")
    b = _derivative_energy_matrix(m)
    if m == 1:
        return float(b[0, 0])

    best = math.inf
    for face in range(m):
        free = [j for j in range(m) if j != face]

        def objective(z: np.ndarray) -> tuple[float, np.ndarray]:
            a = np.zeros(m)
            a[face] = 1.0
            a[free] = z
            grad_full = 2.0 * b.dot(a)
            return float(a.dot(b).dot(a)), grad_full[free]

        starts = [np.zeros(m - 1)]
        rng = np.random.default_rng(m)
        starts += [rng.uniform(-1.0, 1.0, size=m - 1) for _ in range(4)]
        for z0 in starts:
            res = minimize(
                objective,
                z0,
                jac=True,
                method="L-BFGS-B",
                bounds=[(-1.0, 1.0)] * (m - 1),
            )
            best = min(best, float(res.fun))
    return best / m
