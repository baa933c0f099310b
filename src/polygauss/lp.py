"""Exact solver for the chain-structured box LP

    maximize   sum_i w_i * phi_i
    subject to |phi_i| <= box            (i = 0..G-1)
               |phi_{i+1} - phi_i| <= slope_step

This is the discretization of "test function bounded by box with unit
Lipschitz constant sampled every slope_step".  The constraint graph is a
path, so the LP is solved exactly by value iteration over concave
piecewise-linear functions:

    V_0(x)     = w_0 * x                       on [-box, box]
    V_{i+1}(x) = w_{i+1} * x + max { V_i(y) : |x - y| <= slope_step }

The inner sliding-window maximum of a concave function is its horizontal
dilation: the increasing part shifts left, the decreasing part shifts right,
and a plateau of width 2*slope_step opens at the maximizer.  Dilation,
clipping to the box, and adding a linear term all preserve concavity and add
at most O(1) breakpoints per step, so a G-cell solve is O(G^2) worst case
with small constants (one solve at G = 2048 takes tens of milliseconds).

``brute_force_chain_lp`` is an independent test oracle: it exhaustively
enumerates the vertices of the feasible polytope.  A vertex is determined by
the maximal runs of tight chain constraints (segments), a sign for each
tight chain, and one coordinate per segment pinned at +-box; the oracle
enumerates all of these with feasibility pruning and reports the best
objective.  Exponential in G; intended for G <= 12.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def _dilate_clip(xs: np.ndarray, vs: np.ndarray, delta: float, box: float):
    """Sliding-window max by delta, then restrict the domain to [-box, box]."""
    vmax = vs.max()
    attain = np.flatnonzero(vs == vmax)
    j1, j2 = attain[0], attain[-1]
    xs = np.concatenate([xs[: j1 + 1] - delta, xs[j2:] + delta])
    vs = np.concatenate([vs[: j1 + 1], vs[j2:]])
    # evaluate at the new boundaries, then drop outside breakpoints
    lo_v = np.interp(-box, xs, vs)
    hi_v = np.interp(box, xs, vs)
    inside = (xs > -box) & (xs < box)
    xs = np.concatenate([[-box], xs[inside], [box]])
    vs = np.concatenate([[lo_v], vs[inside], [hi_v]])
    return xs, vs


def solve_chain_lp(weights, box: float, slope_step: float) -> float:
    """Exact maximum of sum w_i phi_i over the chain polytope."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] == 0:
        raise InputError("weights must be a nonempty 1-D array")
    if not np.isfinite(w).all():
        raise InputError("weights must be finite")
    if box < 0 or not np.isfinite(box):
        raise InputError(f"box bound must be >= 0, got {box}")
    if slope_step <= 0 or not np.isfinite(slope_step):
        raise InputError(f"slope step must be positive, got {slope_step}")
    if box == 0.0:
        return 0.0
    xs = np.array([-box, box])
    vs = w[0] * xs
    for wi in w[1:]:
        xs, vs = _dilate_clip(xs, vs, slope_step, box)
        vs = vs + wi * xs
    return float(vs.max())


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
    """Exhaustive vertex enumeration of the chain polytope (test oracle)."""
    w = [float(x) for x in weights]
    n = len(w)
    if n == 0:
        raise InputError("weights must be nonempty")
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
