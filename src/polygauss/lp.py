"""Exact solver for the chain-structured box LP

    maximize   sum_i w_i * phi_i
    subject to |phi_i| <= box            (i = 0..G-1)
               |phi_{i+1} - phi_i| <= slope_step

This is the discretization of "test function bounded by box with unit
Lipschitz constant sampled every slope_step".  The constraint graph is a
path, so the LP is solved exactly by dynamic programming over concave
piecewise-linear value functions on [-box, box]:

    V_0(x)     = w_0 * x
    V_{i+1}(x) = w_{i+1} * x + max { V_i(y) : |x - y| <= slope_step }

The value functions are kept by the "slope trick" (the breakpoint DPs of
Johnson 2013, JCGS 22(2), and Condat 2013, IEEE SPL 20(11), solve the same
1-D fused-lasso-type dual).  V_i is stored as

* two deques of (position, slope drop) breakpoints, both in increasing
  position: ``left`` holds those left of the maximiser and ``right`` those
  right of it;
* one lazy x-offset per deque: after i steps a stored position q stands for
  q - i*slope_step in ``left`` and q + i*slope_step in ``right``;
* the slope ``s`` of the middle segment, between the near ends of the two
  deques (or the box edges when a deque is empty).  It is 0, except when the
  maximum sits at a box edge: then it is the slope into that edge, and the
  deque on that side is empty;
* the maximum value ``top``.

Each step of the chain is three operations:

* **dilate**: the sliding-window maximum shifts the increasing part left and
  the decreasing part right by slope_step, opening a plateau of width
  2*slope_step at the maximiser.  An edge maximum (s != 0) is first pushed
  as a breakpoint of drop |s|; then the shift is a change of the offsets.
* **clip**: breakpoints that left [-box, box] are popped from the far ends.
* **tilt**: adding w*x raises every slope by w, so the maximiser walks
  across the near-end breakpoints of one deque, each moving to the other;
  the breakpoint where the slope changes sign is split in two.  ``top`` is
  updated on each segment crossed.

Dilate and clip cost O(1) amortised; the tilt costs one transfer per
breakpoint crossed.  Over the 4260 LPs of the benchmark pools (dual-modulus
probes of 1M-sample histograms at G = 400 and 2048, and KR distances) a
solve makes a median of 0.7 transfers per cell at G = 400 and 2.3 at
G = 2048, at most 4.6, and one solve at G = 2048 takes 1.3 to 3.4 ms
(Python 3.11, one core).  Alternating-sign weights are the adversarial
case: each tilt walks back across the breakpoints the previous one crossed,
8 to 44 transfers per cell at G = 400 and 2048 with box 0.1 and 1, and the
worst case is O(G^2).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import InputError


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
    # Python floats throughout: numpy scalars would slow every step
    box, slope_step = float(box), float(slope_step)
    left: deque = deque()   # real position = stored - off
    right: deque = deque()  # real position = stored + off
    s = 0.0
    top = 0.0
    off = 0.0
    for i, wi in enumerate(w.tolist()):
        # dilate: push an edge maximum at the old offset, then shift
        if s > 0.0:
            left.append((box + off, s))
            s = 0.0
        elif s < 0.0:
            right.appendleft((-box - off, -s))
            s = 0.0
        off = i * slope_step
        # clip
        lim = off - box
        while left and left[0][0] <= lim:
            left.popleft()
        lim = box - off
        while right and right[-1][0] >= lim:
            right.pop()
        # tilt: the maximiser walks right (wi > 0) or left (wi < 0)
        if wi > 0.0:
            a = wi
            x = right[0][0] + off if right else box
            v = top + wi * x
            while right:
                q, d = right.popleft()
                p = q + off
                if a > d:
                    left.append((p + off, d))
                    a -= d
                    x = right[0][0] + off if right else box
                    v += a * (x - p)
                    continue
                # the slope turns at p: split its drop unless a == d
                left.append((p + off, a))
                if a < d:
                    right.appendleft((q, d - a))
                a = 0.0
                break
            s, top = a, v
        elif wi < 0.0:
            a = wi
            x = left[-1][0] - off if left else -box
            v = top + wi * x
            while left:
                q, d = left.pop()
                p = q - off
                if -a > d:
                    right.appendleft((p - off, d))
                    a += d
                    x = left[-1][0] - off if left else -box
                    v += a * (x - p)
                    continue
                right.appendleft((p - off, -a))
                if -a < d:
                    left.append((q, d + a))
                a = 0.0
                break
            s, top = a, v
    return float(top)
