"""Test oracles: slow, direct implementations that the package is checked
against.  Each one uses only the package's data types, never the code it
checks.

* ``ecf_direct`` sums exp(i t v) over every sample (the binned
  ``ecf_modulus`` must agree within its stated bound).
* ``brute_force_chain_lp`` enumerates the vertices of the chain polytope
  (``solve_chain_lp`` must agree).
* ``highs_chain_lp`` hands the same LP to a general-purpose solver, for
  chains too long to enumerate.
* ``evaluate`` evaluates a polynomial at one point (``evaluate_batch`` must
  agree).
* ``evaluate_expansion`` evaluates a Hermite expansion (``hermite_expand``
  must reproduce the polynomial).
* ``quadratic_cf`` is the exact |E exp(i t f(X))| of a quadratic form
  plus a linear term, from one symmetric eigendecomposition (``ecf_modulus``
  must agree within its stated stderr).
* ``class_exponents`` lists a class's admissible exponent tuples by walking
  all (m + 1)^n of them (``random_in_class``'s unranking must index them
  the same way).
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from polygauss.density import SampleSet
from polygauss.errors import InputError
from polygauss.moments import HermiteExpansion
from polygauss.poly import ClassParams, Polynomial

ECF_CHUNK = 1 << 18


def ecf_direct(s: SampleSet, ts) -> np.ndarray:
    """|mean of exp(i t v_k)| per t, one complex exponential per sample,
    accumulated over ``ECF_CHUNK``-row chunks in index order."""
    mods = []
    for t in ts:
        acc = 0.0 + 0.0j
        for start in range(0, s.count, ECF_CHUNK):
            acc += np.exp(1j * t * s.values[start : start + ECF_CHUNK]).sum()
        mods.append(abs(acc) / s.count)
    return np.array(mods)


def _segment_profiles(w, start: int, box: float, slope: float, tol: float):
    """Yield (end, phi_tuple, objective) for every vertex-style assignment of
    one segment beginning at ``start``: chain constraints tight throughout,
    one coordinate anchored at +-box, all coordinates within the box."""
    n = len(w)
    offsets = [0.0]

    def walk(end: int):
        lo = min(offsets)
        hi = max(offsets)
        if hi - lo <= 2 * box + tol:
            # anchor any coordinate at +-box; dedupe equal base values
            bases = set()
            for off in offsets:
                for s in (box, -box):
                    bases.add(round(s - off, 12))
            for base in bases:
                phi = [base + o for o in offsets]
                if all(abs(p) <= box + tol for p in phi):
                    obj = sum(w[start + i] * p for i, p in enumerate(phi))
                    yield end, tuple(phi), obj
        if end + 1 < n and hi - lo <= 2 * box + tol:
            for sign in (slope, -slope):
                offsets.append(offsets[-1] + sign)
                yield from walk(end + 1)
                offsets.pop()

    yield from walk(start)


def brute_force_chain_lp(weights, box: float, slope_step: float) -> float:
    """Exhaustive vertex enumeration of the chain polytope

        maximize sum_i w_i phi_i  s.t.  |phi_i| <= box, |phi_(i+1) - phi_i| <= slope_step.

    A vertex is determined by the maximal runs of tight chain constraints
    (segments), a sign for each tight chain, and one coordinate per segment
    pinned at +-box; all of these are enumerated with feasibility pruning.
    Exponential in G; intended for G <= 12."""
    w = [float(x) for x in weights]
    n = len(w)
    if n == 0:
        raise ValueError("weights must be nonempty")
    if box == 0.0:
        return 0.0
    tol = 1e-12
    best = -np.inf

    # Pre-expand the per-start segment profiles once.
    profiles: list[list[tuple[int, tuple, float]]] = [
        list(_segment_profiles(w, s, box, slope_step, tol)) for s in range(n)
    ]

    def rec(start: int, prev_val: float | None, acc: float):
        nonlocal best
        for end, phi, obj in profiles[start]:
            if prev_val is not None and abs(phi[0] - prev_val) > slope_step + tol:
                continue
            total = acc + obj
            if end + 1 == n:
                if total > best:
                    best = total
            else:
                rec(end + 1, phi[-1], total)

    rec(0, None, 0.0)
    return float(best)


def highs_chain_lp(weights, box: float, slope_step: float) -> float:
    """The chain LP solved by HiGHS (``scipy.optimize.linprog``), with the
    chain constraints as a sparse difference matrix D: -step <= D phi <= step."""
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    diff = sparse.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    res = linprog(
        -w,
        A_ub=sparse.vstack([diff, -diff]).tocsr(),
        b_ub=np.full(2 * (n - 1), slope_step),
        bounds=(-box, box),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def evaluate(f: Polynomial, x: Sequence[float]) -> float:
    """Evaluate f at a single point."""
    if len(x) != f.n:
        raise InputError(f"point has length {len(x)}, expected {f.n}")
    total = 0.0
    for exps, coef in f.terms.items():
        term = coef
        for xi, e in zip(x, exps):
            if e:
                term *= float(xi) ** e
        total += term
    return total


def hermite_values(k: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite polynomial h_k evaluated elementwise."""
    x = np.asarray(x, dtype=np.float64)
    prev = np.ones_like(x)
    if k == 0:
        return prev
    cur = x.copy()
    for j in range(1, k):
        prev, cur = cur, (x * cur - math.sqrt(j) * prev) / math.sqrt(j + 1)
    return cur


def evaluate_expansion(exp: HermiteExpansion, x: np.ndarray) -> np.ndarray:
    """Evaluate the Hermite expansion at each row of an (N, n) array."""
    x = np.asarray(x, dtype=np.float64)
    max_k = [0] * exp.n
    for combo in exp.coeffs:
        for i, k in enumerate(combo):
            max_k[i] = max(max_k[i], k)
    tables = [
        [hermite_values(k, x[:, i]) for k in range(max_k[i] + 1)]
        for i in range(exp.n)
    ]
    out = np.zeros(x.shape[0])
    for combo, c in exp.coeffs.items():
        term = np.full(x.shape[0], c)
        for i, k in enumerate(combo):
            if k:
                term = term * tables[i][k]
        out += term
    return out


def quadratic_cf(a, b, ts) -> np.ndarray:
    """|E exp(i t (X^T A X + b^T X))| per t, for X ~ N(0, I_n) and A symmetric.

    With A = Q diag(lam) Q^T and beta = Q^T b, the coordinates of Q^T X are
    independent standard normals, and each contributes one factor:

        |phi(t)| = prod_j |1 - 2 i t lam_j|^(-1/2) exp(-(t^2/2) Re sum_j beta_j^2 / (1 - 2 i t lam_j))
                 = prod_j (1 + 4 t^2 lam_j^2)^(-1/4) exp(-(t^2/2) beta_j^2 / (1 + 4 t^2 lam_j^2))

    (Imhof 1961, Biometrika 48(3/4)).  A constant term changes no modulus."""
    lam, q = np.linalg.eigh(np.asarray(a, dtype=np.float64))
    beta = q.T @ np.asarray(b, dtype=np.float64)
    t = np.asarray(ts, dtype=np.float64)
    r = 1.0 + 4.0 * np.outer(t * t, lam * lam)
    return np.exp(-0.25 * np.log(r).sum(axis=1) - 0.5 * t * t * (beta * beta / r).sum(axis=1))


def class_exponents(params: ClassParams) -> list[tuple[int, ...]]:
    """The nonzero tuples in {0..m}^n of total at most d, in
    ``itertools.product`` order."""
    return [
        exps
        for exps in itertools.product(range(params.m + 1), repeat=params.n)
        if 0 < sum(exps) <= params.d
    ]
