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
