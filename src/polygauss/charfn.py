"""Empirical characteristic functions of f(X) and their decay checks.

For a non-constant polynomial with per-variable power cap m, degree d and
leading magnitude a, the characteristic-function modulus decays like

    |E exp(i t f(X))|  <=  C(m, d) |a t|^(-1/m) * ( |ln|a t||^(d-m) + 1 )

with a constant independent of the number of variables; the older bound of
this type carries an n-dependent log exponent (3n - d/m)/2 - 1 instead of
d - m.  The check fits the constant over probes above the Monte Carlo noise
floor and tests that the ratios show no upward trend in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import SampleSet
from .errors import InputError, ResolutionError
from .functionals import (
    BoundReport, EnvelopeParams, geometric_grid, ols_slope, power_bracket, scaling_report,
)

ECF_CHUNK = 1 << 18
ECF_ORDER = 16  # p: Taylor terms k = 0..p per bin
ECF_TOL = 1e-3  # truncation bound per t, in units of 1/sqrt(N)
CF_NOISE_FACTOR = 5.0  # probes below this many stderr are noise
CF_SLOPE_TOL = 0.1  # largest log-log ratio trend the decay check accepts
CF_MIN_FIT_POINTS = 6  # fewest probes with |a t| >= 1 that get a trend fit


@dataclass(frozen=True)
class CfCurve:
    """Table t -> |empirical characteristic function| with standard errors.

    From ``ecf_modulus``, ``stderr`` is the Monte Carlo error 1/sqrt(N) plus
    the bound on the truncation error of the binned sum at that t (zero
    where the sum was direct), so it lies in [1, 1 + ECF_TOL] / sqrt(N) and
    still bounds the error of the modulus.
    """

    t: np.ndarray
    modulus: np.ndarray
    stderr: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=np.float64)
        m = np.asarray(self.modulus, dtype=np.float64)
        s = np.asarray(self.stderr, dtype=np.float64)
        if t.ndim != 1 or t.shape != m.shape or t.shape != s.shape or not t.size:
            raise InputError("curve needs matching nonempty t/modulus/stderr arrays")
        if np.any(t <= 0) or np.any(np.diff(t) <= 0):
            raise InputError("t grid must be positive and strictly increasing")
        if not all(np.isfinite(arr).all() for arr in (t, m, s)):
            raise InputError("t, moduli and stderr must be finite")
        if np.any(m < 0) or np.any(m > 1.0 + 4.0 * s):
            raise InputError("moduli must lie in [0, 1 + 4 stderr]")
        for arr in (t, m, s):
            arr.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "stderr", s)


def default_t_grid(lo: float = 0.1, hi: float = 1e3, per_decade: int = 16) -> np.ndarray:
    if not 0 < lo < hi:
        raise InputError(f"t range [{lo}, {hi}] is empty")
    return geometric_grid(lo, hi, per_decade)


def ecf_modulus(s: SampleSet, ts) -> CfCurve:
    """|mean of exp(i t v_k)| per t, summed over bins of the sorted samples.

    Bins have widths 2^j and nest.  The finest width the largest t needs is
    filled from the samples in ``ECF_CHUNK``-row blocks, keeping per
    occupied bin b the moments M_(b,k) = sum_(v in b) u^k, k <= p =
    ``ECF_ORDER``, of the offsets u = (v - c_b) / (w/2) in [-1, 1] from the
    bin centre c_b; each coarser width merges bin pairs by the binomial
    shift of these moments.  At each t the coarsest width w with
    r = (t w/2)^(p+1)/(p+1)! <= ``ECF_TOL``/sqrt(N) gives

        sum_k exp(i t v_k) = sum_b exp(i t c_b) sum_(k<=p) (i t w/2)^k M_(b,k)/k!

    to within N r (the Taylor remainder of each exponential), so the modulus
    is off by at most r.  Where that width has N/(p+1) or more occupied bins
    the t is summed directly, one exponential per sample: the (p+1) moments
    per bin would then outgrow the sorted samples, and on such dense inputs
    binning every t was measured slower than this split.  The sums run over
    ``s.sorted``, the sort the sample set shares with its grid and ECDF, so
    the curve does not depend on sample order.  This is the binned form of
    a type-3 nonuniform FFT: Lee & Greengard 2005,
    J. Comput. Phys. 206, "The type-3 nonuniform FFT and its applications";
    Barnett et al. 2019, arXiv:1808.06736.

    The stderr at t is 1/sqrt(N) plus r (exactly 1/sqrt(N) where summed
    directly).  A t whose finest width splits the sample range into 2^52 or
    more bins (t times the range above about 1e16) is an input error: the
    bin ids would not be exact in float64, and the phase t v is lost anyway.
    """
    ts = np.asarray(list(ts), dtype=np.float64)
    if s.count < 10_000:
        raise InputError(f"need at least 10^4 samples, got {s.count}")
    if not ts.size or not np.all(np.isfinite(ts)):
        raise InputError("t grid must be nonempty and finite")
    if np.any(ts <= 0):
        raise InputError("t grid must be positive")
    vals = s.sorted
    if not (math.isfinite(vals[0]) and math.isfinite(vals[-1])):
        raise InputError("sample values must be finite")
    if not math.isfinite(ts.max() * max(-vals[0], vals[-1])):
        raise InputError("t times the largest sample value overflows")
    n = s.count
    tol = ECF_TOL / math.sqrt(n)
    levels = np.array([_ecf_level(t, tol) for t in ts])
    lo, top = int(levels.min()), int(levels.max())
    if not vals[-1] - vals[0] < 2.0**52 * math.ldexp(1.0, lo):
        raise InputError("t times the sample range exceeds 2^52 bin widths; "
                         "the phase of exp(i t v) is lost in float64")
    dense = n / (ECF_ORDER + 1)
    first = next((j for j in range(lo, top + 1) if _occupied(vals, j) < dense), top + 1)
    binned = levels >= first
    mods = np.empty(ts.shape[0])
    if binned.any():
        ids, mom = _bin_moments(vals, first)
        for j in range(first, top + 1):
            if j > first:
                ids, mom = _coarsen(ids, mom)
            centers = vals[0] + (ids + 0.5) * math.ldexp(1.0, j)
            for i in np.flatnonzero(levels == j):
                mods[i] = abs(_binned_sum(ts[i], j, centers, mom)) / n
    for i in np.flatnonzero(~binned):
        acc = 0.0 + 0.0j
        for start in range(0, n, ECF_CHUNK):
            acc += np.exp(1j * ts[i] * vals[start : start + ECF_CHUNK]).sum()
        mods[i] = abs(acc) / n
    bound = np.where(binned, _remainder(ts * np.ldexp(0.5, levels)), 0.0)
    order = np.argsort(ts)
    return CfCurve(ts[order], mods[order], (1.0 / math.sqrt(n) + bound)[order])


def _remainder(x):
    """Lagrange bound on |exp(i y) - sum_(k<=p) (i y)^k / k!| over |y| <= x."""
    return x ** (ECF_ORDER + 1) / math.factorial(ECF_ORDER + 1)


def _ecf_level(t: float, tol: float) -> int:
    """The largest j (width 2^j) with remainder(t 2^(j-1)) <= tol."""
    x_max = (tol * math.factorial(ECF_ORDER + 1)) ** (1.0 / (ECF_ORDER + 1))
    j = min(math.floor(math.log2(2.0 * x_max) - math.log2(t)), 1000)  # 2^j stays finite
    while _remainder(t * math.ldexp(0.5, j)) > tol:
        j -= 1
    return j


def _bin_ids(vals: np.ndarray, j: int):
    """(offsets over the width, bin ids) of the sorted values at width 2^j,
    in ``ECF_CHUNK``-row blocks.  Bin b is [v_0 + b 2^j, v_0 + (b + 1) 2^j)."""
    width = math.ldexp(1.0, j)
    for start in range(0, vals.shape[0], ECF_CHUNK):
        q = (vals[start : start + ECF_CHUNK] - vals[0]) / width
        yield q, np.floor(q)


def _occupied(vals: np.ndarray, j: int) -> int:
    """Number of occupied bins at width 2^j."""
    count, last = 0, None
    for _, b in _bin_ids(vals, j):
        count += np.count_nonzero(np.diff(b)) + (b[0] != last)
        last = b[-1]
    return count


def _bin_moments(vals: np.ndarray, j: int):
    """Ids and moments of the occupied bins at width 2^j."""
    ids, moms = [], []
    for q, b in _bin_ids(vals, j):
        heads = np.flatnonzero(np.diff(b, prepend=-1.0))
        u = 2.0 * (q - b) - 1.0
        power = np.ones_like(u)
        mom = np.empty((heads.size, ECF_ORDER + 1))
        for k in range(ECF_ORDER + 1):
            mom[:, k] = np.add.reduceat(power, heads)
            power *= u
        ids.append(b[heads])
        moms.append(mom)
    ids = np.concatenate(ids).astype(np.int64)
    heads = np.flatnonzero(np.diff(ids, prepend=-1))
    return ids[heads], np.add.reduceat(np.concatenate(moms), heads)


def _shift_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Row maps of the moments of a left (even) and a right (odd) child bin
    to its parent: u_parent = (u_child -+ 1) / 2, so
    M'_k = 2^-k sum_(i<=k) C(k, i) (-+1)^(k-i) M_i."""
    k = np.arange(ECF_ORDER + 1)
    comb = np.array([[math.comb(a, b) for b in k] for a in k], dtype=np.float64)
    return tuple(
        (comb * sign ** np.subtract.outer(k, k) * np.ldexp(1.0, -k)[:, None]).T
        for sign in (-1.0, 1.0)
    )


_SHIFT_EVEN, _SHIFT_ODD = _shift_matrices()


def _coarsen(ids: np.ndarray, mom: np.ndarray):
    odd = (ids & 1).astype(bool)[:, None]
    shifted = np.where(odd, mom @ _SHIFT_ODD, mom @ _SHIFT_EVEN)
    parent = ids >> 1
    heads = np.flatnonzero(np.diff(parent, prepend=parent[0] - 1))
    return parent[heads], np.add.reduceat(shifted, heads)


def _binned_sum(t: float, j: int, centers: np.ndarray, mom: np.ndarray) -> complex:
    x = t * math.ldexp(0.5, j)
    coef = np.array([(1j) ** (k % 4) * x**k / math.factorial(k)
                     for k in range(ECF_ORDER + 1)])
    inner = mom @ coef.real + 1j * (mom @ coef.imag)
    return complex(np.exp(1j * t * centers) @ inner)


def cf_envelope(p: EnvelopeParams, t: float) -> float:
    """|a t|^(-1/m) (|ln|a t||^(d-m) + 1), the unit-constant decay envelope
    (the log term drops out when d = m).  An envelope that is not finite and
    positive is an input error."""
    if t <= 0:
        raise InputError(f"t must be positive, got {t}")
    return power_bracket(np.float64(t) * p.lead, -1.0 / p.m, p.d - p.m, f"t {t:g}")


def cf_decay_check(curve: CfCurve, p: EnvelopeParams) -> BoundReport:
    """Boundedness of |ecf| / envelope over probes above the noise floor.

    Below ``CF_NOISE_FACTOR * stderr`` the modulus estimate is pure noise,
    so those probes are excluded; the rest must span at least a decade of t,
    else ``ResolutionError``.  The verdict requires a finite fitted
    constant and no upward trend of the log ratio in log t (slope at most
    ``CF_SLOPE_TOL``, reported as the ``slope_tol`` extra; strongly negative
    slopes just mean the envelope is conservative for this input and are
    fine).  The trend is fitted over probes with |a t| >= 1; when fewer than
    ``CF_MIN_FIT_POINTS`` survive, the modulus fell below the floor too fast
    for a trend to exist, ``ratio_slope`` is None and the verdict rests on
    boundedness alone.
    """
    floor = CF_NOISE_FACTOR * curve.stderr
    valid = curve.modulus >= floor
    if valid.sum() < 2 or (
        curve.t[valid].max() / curve.t[valid].min() < 10.0
    ):
        raise ResolutionError(
            "usable probes span less than a decade above the noise floor"
        )
    env = np.array([cf_envelope(p, t) for t in curve.t])
    fit = valid & (p.lead * curve.t >= 1.0)
    slope = None
    if fit.sum() >= CF_MIN_FIT_POINTS:
        slope = ols_slope(np.log(curve.t[fit]), np.log(curve.modulus[fit] / env[fit]))
    return scaling_report(
        "cf-decay", curve.t[valid], curve.modulus[valid], env[valid],
        slope, (-math.inf, CF_SLOPE_TOL),
        extras={"ratio_slope": slope, "slope_tol": CF_SLOPE_TOL},
    )


def decay_exponents(p: EnvelopeParams, n: int) -> tuple[float, float]:
    """Log-factor exponents of the two characteristic-function bounds:
    (d - m) for the structure-aware bound, independent of dimension, versus
    (3n - d/m)/2 - 1 for the dimension-dependent one."""
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    return float(p.d - p.m), 0.5 * (3.0 * n - p.d / p.m) - 1.0
