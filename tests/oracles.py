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
* ``oracle_density`` is the cell-averaged closed-form density of X1, X1^2
  or X1*X2 (``histogram_density`` must approach it), and
  ``product_normal_pdf`` is the density of X1*X2 by quadrature.  They use
  scipy's ``ndtr`` and ``roots_legendre`` and live here, not in the
  package, so that no command pays for importing scipy.
* ``binomial_mean_abs_deviation`` is de Moivre's exact E|X - np| of a
  binomial count (``histogram_density``'s ``l1_noise`` must approach the
  sum of these over the cells, divided by n).
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import gammaln, ndtr, roots_legendre, xlog1py, xlogy

from polygauss.density import GriddedDensity, SampleSet
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


def binomial_mean_abs_deviation(n: int, p) -> np.ndarray:
    """E|X - np| for X ~ Binomial(n, p), elementwise in p: de Moivre's
    2 nu C(n, nu) p^nu (1 - p)^(n - nu + 1) with nu = floor(np) + 1
    (Diaconis & Zabell 1991, Statist. Sci. 6(3)), in log-gamma form so that
    n in the millions does not overflow.  It is 0 at p = 0 and p = 1."""
    p = np.asarray(p, dtype=np.float64)
    nu = np.floor(n * p) + 1.0
    log_choose = gammaln(n + 1.0) - gammaln(nu + 1.0) - gammaln(n - nu + 1.0)
    return 2.0 * nu * np.exp(log_choose + xlogy(nu, p) + xlog1py(n - nu + 1.0, -p))


# --- Closed-form reference densities ---------------------------------------


def _normal_cell_mass(edges: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    return np.diff(ndtr((edges - mu) / sigma))


def _chisq1_cdf(x: np.ndarray) -> np.ndarray:
    x = np.maximum(x, 0.0)
    return 2.0 * ndtr(np.sqrt(x)) - 1.0


_EULER_GAMMA = 0.5772156649015329
_GL_NODES, _GL_WEIGHTS = roots_legendre(160)
_SERIES_CAP = 0.05
_PANEL_NODES, _PANEL_WEIGHTS = roots_legendre(8)


def product_normal_pdf(x: np.ndarray) -> np.ndarray:
    """Density of X1*X2 for independent standard normals, by quadrature.

    Uses rho(x) = (1/pi) * integral over u of exp(-(e^{2u} + x^2 e^{-2u})/2),
    the defining convolution integral after substituting u for the log of the
    integration variable; the integrand is exp(-|x| cosh(2u)) centered at
    u = log(sqrt|x|), evaluated with Gauss-Legendre nodes wide enough that
    the tail weight is below 1e-17.  Diverges logarithmically at x = 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    ax = np.abs(x)
    out = np.full(ax.shape, np.inf)
    pos = ax > 0.0
    if pos.any():
        a = ax[pos]
        u_half = 0.5 * np.arccosh(np.maximum(44.0 / a, 1.0 + 1e-12))
        u = u_half[:, None] * _GL_NODES[None, :]
        vals = np.exp(-a[:, None] * np.cosh(2.0 * u)).dot(_GL_WEIGHTS)
        out[pos] = u_half * vals / np.pi
    return out


def _product_normal_cum_small(u: np.ndarray) -> np.ndarray:
    """integral_0^u of the product-normal density by series, u <= ~0.05."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    pos = u > 0
    up = u[pos]
    lg = np.log(2.0 / up)
    out[pos] = (
        up * (lg + 1.0 - _EULER_GAMMA)
        + up ** 3 / 12.0 * (lg + 4.0 / 3.0 - _EULER_GAMMA)
    ) / np.pi
    return out


def _product_normal_cell_mass(edges: np.ndarray) -> np.ndarray:
    """Per-cell mass: series cumulative on the part of a cell within
    ``_SERIES_CAP`` of the log singularity at zero, Gauss-Legendre on the
    quadrature pdf beyond it.  The part beyond is cut into panels that end
    at most twice as far from zero as they start, so a cell with an edge at
    or near zero is split geometrically."""
    a, b = edges[:-1], edges[1:]

    def cum(x):
        x = np.clip(x, -_SERIES_CAP, _SERIES_CAP)
        return np.sign(x) * _product_normal_cum_small(np.abs(x))

    mass = cum(b) - cum(a)
    # each side's part beyond the cap, as distances [near, far] from zero;
    # the density is even, so both sides integrate over distances
    for near, far in ((np.maximum(a, _SERIES_CAP), b), (np.maximum(-b, _SERIES_CAP), -a)):
        part = far > near
        near, far = near[part], far[part]
        panels = int(np.ceil(np.log2(far / near)).max(initial=1))
        t = np.minimum(near[:, None] * 2.0 ** np.arange(panels + 1), far[:, None])
        t[:, -1] = far
        half = 0.5 * (t[:, 1:] - t[:, :-1])
        x = (t[:, :-1] + half)[..., None] + half[..., None] * _PANEL_NODES
        mass[part] += (half * product_normal_pdf(x).dot(_PANEL_WEIGHTS)).sum(axis=1)
    return mass


def oracle_density(
    kind: str,
    lo: float,
    hi: float,
    size: int,
    mu: float = 0.0,
    sigma: float = 1.0,
) -> GriddedDensity:
    """Cell-averaged closed-form density on an explicit grid.

    kinds: "normal" (params mu, sigma), "chisq1" (the law of X^2), and
    "product_normal" (the law of X1*X2).  The grid must cover all but at
    most 1e-3 of the mass.
    """
    if size < 2:
        raise InputError(f"need at least 2 cells, got {size}")
    if not hi > lo:
        raise InputError(f"empty range [{lo}, {hi}]")
    edges = lo + (hi - lo) * np.arange(size + 1) / size
    step = (hi - lo) / size
    if kind == "normal":
        if sigma <= 0:
            raise InputError(f"sigma must be positive, got {sigma}")
        mass = _normal_cell_mass(edges, mu, sigma)
    elif kind == "chisq1":
        mass = np.diff(_chisq1_cdf(edges))
    elif kind == "product_normal":
        mass = _product_normal_cell_mass(edges)
    else:
        raise InputError(f"unknown density kind {kind!r}")
    covered = float(mass.sum())
    return GriddedDensity(
        float(lo), float(step), np.maximum(mass, 0.0) / step,
        clipped_mass=max(0.0, 1.0 - covered),
    )
