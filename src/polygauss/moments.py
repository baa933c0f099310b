"""Exact expectations and variances of f(X) for standard Gaussian X.

Two independent routes are provided and cross-checked in the tests:

* moment combinatorics:  E f(X) = sum_J a_J * prod_i E[X^{j_i}], with
  E[X^k] = (k-1)!! for even k and 0 for odd k; the second moment comes from
  expanding f^2 exactly.
* Hermite expansion: rewrite f in the orthonormal probabilists' Hermite
  basis h_k = H_k / sqrt(k!); then E f = c_0 and Var f = sum_{J != 0} c_J^2.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError
from .poly import MultiIndex, Polynomial, multiply


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

