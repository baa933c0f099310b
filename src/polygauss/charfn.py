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
from pathlib import Path

import numpy as np

from .density import SampleSet
from .errors import InputError, InsufficientDecay
from .functionals import (
    BoundReport, EnvelopeParams, ProbeRow, geometric_grid, log_bracket, ols_slope,
)

ECF_CHUNK = 1 << 18


@dataclass(frozen=True)
class CfCurve:
    """Table t -> |empirical characteristic function| with standard errors."""

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
        if np.any(m < 0) or np.any(m > 1.0 + 4.0 * s):
            raise InputError("moduli must lie in [0, 1 + 4 stderr]")
        for arr in (t, m, s):
            arr.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "stderr", s)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            fh.write("t,modulus,stderr\n")
            for t, m, s in zip(self.t, self.modulus, self.stderr):
                fh.write(f"{float(t):.17g},{float(m):.17g},{float(s):.17g}\n")


def default_t_grid(lo: float = 0.1, hi: float = 1e3, per_decade: int = 16) -> np.ndarray:
    if not 0 < lo < hi:
        raise InputError(f"t range [{lo}, {hi}] is empty")
    return geometric_grid(lo, hi, per_decade)


def ecf_modulus(s: SampleSet, ts) -> CfCurve:
    """|mean of exp(i t v_k)| per t, with standard error 1/sqrt(N).

    Accumulation runs over fixed-size chunks in index order, so the result
    is deterministic for a given sample set regardless of parallelism.
    """
    ts = np.asarray(list(ts), dtype=np.float64)
    if s.count < 10_000:
        raise InputError(f"need at least 10^4 samples, got {s.count}")
    if np.any(ts <= 0):
        raise InputError("t grid must be positive")
    order = np.argsort(ts)
    vals = s.values
    mods = np.empty(ts.shape[0])
    for j in order:
        acc = 0.0 + 0.0j
        for start in range(0, s.count, ECF_CHUNK):
            chunk = vals[start : start + ECF_CHUNK]
            acc += np.exp(1j * ts[j] * chunk).sum()
        mods[j] = abs(acc) / s.count
    se = np.full(ts.shape[0], 1.0 / math.sqrt(s.count))
    return CfCurve(ts[order], mods[order], se[order])


def cf_envelope(p: EnvelopeParams, t: float) -> float:
    """|a t|^(-1/m) (|ln|a t||^(d-m) + 1), the unit-constant decay envelope
    (the log term drops out when d = m)."""
    if t <= 0:
        raise InputError(f"t must be positive, got {t}")
    u = p.lead * t
    return u ** (-1.0 / p.m) * log_bracket(u, p.d - p.m)


def cf_decay_check(
    curve: CfCurve,
    p: EnvelopeParams,
    slope_tol: float = 0.1,
    noise_factor: float = 5.0,
    min_fit_points: int = 6,
) -> BoundReport:
    """Boundedness of |ecf| / envelope over probes above the noise floor.

    Below ``noise_factor * stderr`` the modulus estimate is pure noise, so
    those probes are excluded.  The verdict requires a finite fitted
    constant and no upward trend of the log ratio in log t (slope at most
    ``slope_tol``; strongly negative slopes just mean the envelope is
    conservative for this input and are fine).  The trend is fitted over
    probes with |a t| >= 1; when fewer than ``min_fit_points`` survive, the
    modulus fell below the floor too fast for a trend to exist and the
    verdict rests on boundedness alone.
    """
    floor = noise_factor * curve.stderr
    valid = curve.modulus >= floor
    if valid.sum() < 2 or (
        curve.t[valid].max() / curve.t[valid].min() < 10.0
    ):
        raise InsufficientDecay(
            "usable probes span less than a decade above the noise floor"
        )
    env = np.array([cf_envelope(p, t) for t in curve.t])
    ratios = curve.modulus / env
    c_hat = float(ratios[valid].max())
    fit = valid & (p.lead * curve.t >= 1.0)
    if fit.sum() >= min_fit_points:
        slope = ols_slope(np.log(curve.t[fit]), np.log(ratios[fit]))
        ok = math.isfinite(c_hat) and slope <= slope_tol
    else:
        slope = None
        ok = math.isfinite(c_hat)
    rows = [
        ProbeRow(float(t), float(mod), c_hat * float(e), 4.0 * float(se))
        for t, mod, e, se, good in zip(
            curve.t, curve.modulus, env, curve.stderr, valid
        )
        if good
    ]
    return BoundReport.from_rows(
        "cf-decay",
        rows,
        fitted_constant=c_hat,
        extra_ok=ok,
        extras={"ratio_slope": slope, "slope_tol": slope_tol},
    )


def decay_exponents(p: EnvelopeParams, n: int) -> tuple[float, float]:
    """Log-factor exponents of the two characteristic-function bounds:
    (d - m) for the structure-aware bound, independent of dimension, versus
    (3n - d/m)/2 - 1 for the dimension-dependent one."""
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    return float(p.d - p.m), 0.5 * (3.0 * n - p.d / p.m) - 1.0
