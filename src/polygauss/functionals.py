"""Regularity functionals of gridded densities and the inequality checks
built from them.

Two moduli of continuity are computed for a density rho:

* the shift modulus  omega(rho, eps) = sup_{|h| <= eps} int |rho(s+h) - rho(s)| ds,
  evaluated over integer multiples of the grid step (sub-grid shifts are
  below estimator resolution, hence the precondition eps >= 2 * step);

* the dual modulus  sigma(rho, eps) = sup { int phi' rho : |phi| <= eps,
  |phi'| <= 1 }, whose grid discretization is the chain LP of
  :mod:`polygauss.lp` and is solved exactly.

The two are equivalent up to fixed factors:

    omega(rho, 2 eps) / 2  <=  sigma(rho, eps)  <=  (1 + eps/(k step)) omega(rho, k step)

with k = floor(eps/step) >= 2, so the right factor is below 2.5.  The right
half is a theorem of the grid objects for every nonnegative cell vector, so
it is a property test of the code and no verdict row; the left half is
checked.  For the image density of a non-constant polynomial with
per-variable power cap m, total degree d and leading magnitude a, the shift
modulus and the small-ball probability P(|W - c| <= eps/2) obey a scaling
law with envelope

    (eps / a)^(1/m) * ( |ln(eps/a)|^(d-m) + 1 )

up to a constant depending only on (m, d).  At m = d the log term drops out,
and with a = sqrt(Var) the envelope is the degree-only bound
sigma(rho, eps) <= C(d) (eps / sqrt(Var))^(1/d) (Carbery & Wright 2001), which
the power cap sharpens; the modulus, the small-ball mass and the degree-only
bound are all fitted by ``envelope_check``.  Distances between two densities
use the same machinery: total variation is the L1 distance (range [0, 2]);
the bounded-Lipschitz (Kantorovich-Rubinstein) distance is the chain LP with
unit box.  They are linked through

    d_TV <= 6 max(sigma_X(eps), sigma_Y(eps)) + d_KR / eps   for eps in (0,1)

which, combined with the envelope, bounds d_TV by a power of d_KR.  Every
pointwise verdict carries an explicit error budget: twice the truncated tail
mass, plus a step * total-variation discretization proxy, plus the Monte
Carlo L1 noise the histogram's counts are expected to carry (the normal
approximation of each binomial count's mean absolute deviation), scaled by
the inequality's coefficients.  A scaling law is judged by its fitted
constant and the trend of its ratio to the envelope alone
(``scaling_report``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import GriddedDensity, EmpiricalCdf
from .errors import InputError, ResolutionError
from .lp import solve_chain_lp

MAX_GRID_POINTS = 10_000  # most points of a probe or t grid; the default t grid has 81
SMALL_BALLS = (1_000, 10_000)  # samples in the smallest and largest ball small_set_check probes


def log_bracket(u: float, exponent: float) -> float:
    """The envelope bracket |ln u|^e + 1, with the whole log term dropping
    out when its exponent is zero (so the d = m envelope is a clean power)."""
    if exponent == 0:
        return 1.0
    try:
        return abs(math.log(u)) ** exponent + 1.0
    except (OverflowError, ValueError):  # ValueError: u underflowed to 0
        raise InputError(f"envelope term |ln {u:g}|^{exponent:g} overflows") from None


def power_bracket(u: np.float64, power: float, exponent: float, at: str) -> float:
    """u^power (|ln u|^exponent + 1), an envelope's value; one that is not
    finite and positive is an input error, which names the probe ``at``."""
    with np.errstate(over="ignore", divide="ignore"):  # u may be subnormal or 0
        value = u ** power * log_bracket(u, exponent)
    if not 0 < value < math.inf:
        raise InputError(f"envelope at {at} is {value:g}, not finite and positive")
    return value


# --- Curves and reports ------------------------------------------------------


@dataclass(frozen=True)
class ModulusCurve:
    """Finite table eps -> functional value, eps strictly increasing."""

    eps: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.eps, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if e.ndim != 1 or e.shape != v.shape or e.shape[0] == 0:
            raise InputError("curve needs matching nonempty eps/value arrays")
        if np.any(e <= 0) or np.any(np.diff(e) <= 0):
            raise InputError("eps values must be positive and strictly increasing")
        if np.any(v < 0) or np.any(v > 2.0 + 1e-6):
            raise InputError("modulus values must lie in [0, 2]")
        if np.any(np.diff(v) < -1e-9):
            raise InputError("modulus values must be nondecreasing in eps")
        e.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eps", e)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class EnvelopeParams:
    """Scaling-law parameters: power cap m, degree cap d, leading magnitude."""

    m: int
    d: int
    lead: float = 1.0

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.d:
            raise InputError(f"need 1 <= m <= d, got m={self.m}, d={self.d}")
        if not self.lead > 0:
            raise InputError(f"leading magnitude must be positive, got {self.lead}")


@dataclass(frozen=True)
class ProbeRow:
    eps: float
    lhs: float
    rhs: float
    budget: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -self.budget


@dataclass(frozen=True)
class BoundReport:
    """Per-inequality verdict with probe table, fitted constant and margin.

    ``worst_margin`` is how far the check is from failing: the smallest
    rhs - lhs over the rows for a pointwise inequality, or for a scaling law
    the slope's distance to the nearer end of its window (inf without a
    trend).  It is not part of the JSON form.
    """

    check_id: str
    rows: tuple[ProbeRow, ...]
    fitted_constant: float | None = None
    verdict: bool = True
    extras: dict = field(default_factory=dict)
    worst_margin: float = math.inf

    @staticmethod
    def from_rows(
        check_id: str,
        rows: list[ProbeRow],
        extra_ok: bool = True,
        extras: dict | None = None,
    ) -> "BoundReport":
        verdict = bool(extra_ok) and all(r.passed for r in rows)
        return BoundReport(
            check_id, tuple(rows), None, verdict, dict(extras or {}),
            min((r.margin for r in rows), default=math.inf),
        )

    def to_json_dict(self) -> dict:
        return {
            "id": self.check_id,
            "probes": [
                {"eps": r.eps, "lhs": r.lhs, "rhs": r.rhs, "budget": r.budget}
                for r in self.rows
            ],
            "fitted_constant": self.fitted_constant,
            "verdict": bool(self.verdict),
            "extras": self.extras,
        }


# --- Error budgets -----------------------------------------------------------


def density_budget(rho: GriddedDensity) -> float:
    """Additive error allowance for one estimated density:
    2 * truncated mass + step * total variation proxy + the expected Monte
    Carlo L1 noise of its counts (``GriddedDensity.l1_noise``, a point
    estimate with no stated coverage)."""
    return 2.0 * rho.clipped_mass + rho.step * rho.total_variation() + rho.l1_noise


def boundary_correction(rho: GriddedDensity, eps: float) -> float:
    """Allowance for the free boundary values of the dual-modulus LP: a grid
    solution extends to compact support through unit-slope ramps whose
    objective contribution is bounded by eps * truncated tail mass."""
    return eps * rho.clipped_mass


# --- Shift modulus -----------------------------------------------------------


def _shift_l1(values: np.ndarray, k: int) -> float:
    """sum_i |values(i+k) - values(i)| with out-of-grid values read as 0."""
    if k >= values.shape[0]:
        return 2.0 * float(values.sum())
    return float(
        np.abs(values[k:] - values[:-k]).sum()
        + values[:k].sum()
        + values[-k:].sum()
    )


def max_shift_index(rho: GriddedDensity, eps: float) -> int:
    k = int(math.floor(eps / rho.step + 1e-9))
    if k < 2:
        raise ResolutionError(
            f"eps={eps} below resolution 2*step={2 * rho.step}"
        )
    return k


def _shift_moduli(rho: GriddedDensity, ks) -> np.ndarray:
    """step * max_{1 <= j <= k} _shift_l1(j) for each k in ``ks``, read off one
    running-max table.  Every shift past the grid gives the same L1 sum, so
    the table stops at the grid size."""
    ks = [min(k, rho.size) for k in ks]
    l1 = [0.0] + [_shift_l1(rho.values, j) for j in range(1, max(ks, default=0) + 1)]
    return rho.step * np.maximum.accumulate(l1)[ks]


def shift_modulus_curve(rho: GriddedDensity, eps_values) -> ModulusCurve:
    """Shift-modulus table with probes snapped to realized shifts k * step.

    Snapping keeps the abscissa equal to the shift that was actually taken,
    so log-log fits see no grid-granularity bias.  Duplicate snapped probes
    collapse to one entry.
    """
    ks = sorted({max_shift_index(rho, e) for e in eps_values})
    eps_out = np.array([k * rho.step for k in ks])
    return ModulusCurve(eps_out, _shift_moduli(rho, ks))


# --- Dual modulus ------------------------------------------------------------


def _telescoped_weights(values: np.ndarray) -> np.ndarray:
    """Weights of sum_i rho_i (phi_{i+1} - phi_i) on the size + 1 nodes
    phi_0..phi_size, one past each cell edge: -rho_0, rho_{i-1} - rho_i, rho_{size-1}."""
    return -np.diff(values, prepend=0.0, append=0.0)


def _dual_box(rho: GriddedDensity, eps: float) -> float:
    """The LP box for sigma(eps): the objective reads only differences of phi,
    whose span, at most size * step, fits in any box of half that width."""
    return min(eps, 0.5 * rho.size * rho.step)


def dual_modulus(rho: GriddedDensity, eps: float) -> float:
    """Exact value of the grid LP

        max sum_i rho_i (phi_{i+1} - phi_i),  |phi_i| <= eps,
                                              |phi_{i+1} - phi_i| <= step,

    over every cell i, the last one included.
    """
    if eps < 0:
        raise InputError(f"eps must be >= 0, got {eps}")
    if eps == 0.0:
        return 0.0
    return solve_chain_lp(_telescoped_weights(rho.values), _dual_box(rho, eps), rho.step)


def dual_modulus_curve(rho: GriddedDensity, eps_values) -> ModulusCurve:
    eps_sorted = np.unique(np.asarray(list(eps_values), dtype=np.float64))
    if np.any(eps_sorted <= 0):
        raise InputError("dual modulus probes must be positive")
    w = _telescoped_weights(rho.values)
    vals = np.array([solve_chain_lp(w, _dual_box(rho, e), rho.step) for e in eps_sorted])
    return ModulusCurve(eps_sorted, np.maximum.accumulate(vals))


def default_probe_grid(rho: GriddedDensity) -> np.ndarray:
    """Geometric probe grid over [max(2*step, 1e-3), 1], 12 points a decade;
    a floor at or above 1 means the grid is too coarse to probe."""
    lo = max(2.0 * rho.step, 1e-3)
    if lo >= 1.0:
        raise ResolutionError(f"resolution floor {lo} leaves no probe below 1.0")
    return geometric_grid(lo, 1.0, 12)


def geometric_grid(lo: float, hi: float, per_decade: int) -> np.ndarray:
    """Geometric grid over [lo, hi], 0 < lo < hi: per_decade points a decade, at least 2."""
    decades = math.log10(hi / lo)
    if not math.isfinite(decades):
        raise InputError(f"range [{lo}, {hi}] does not span a finite number of decades")
    count = max(2, int(math.ceil(per_decade * decades)) + 1)
    if count > MAX_GRID_POINTS:
        raise InputError(f"range [{lo}, {hi}] at {per_decade} per decade needs {count} points,"
                         f" more than {MAX_GRID_POINTS}")
    return np.geomspace(lo, hi, count)


# --- Equivalence of the two moduli (lower factor 1/2) ---------------------------


def modulus_equivalence_check(rho: GriddedDensity, sigma: ModulusCurve) -> BoundReport:
    """Verify omega(rho, 2 eps)/2 <= sigma(rho, eps) at every probe of the
    dual-modulus curve ``sigma`` of ``rho``, within twice the density's error
    budget plus the LP boundary allowance.  The upper half holds on every
    grid vector (module docstring), so it has no row."""
    base = density_budget(rho)
    omegas = _shift_moduli(rho, [max_shift_index(rho, 2.0 * e) for e in sigma.eps])
    rows = [
        ProbeRow(float(eps), 0.5 * omega, sig, 2.0 * base + boundary_correction(rho, eps))
        for eps, sig, omega in zip(sigma.eps, sigma.values, omegas)
    ]
    return BoundReport.from_rows(
        "modulus-equivalence", rows, extras={"budget_base": base}
    )


# --- Scaling-law envelope ------------------------------------------------------


def modulus_envelope(p: EnvelopeParams, eps: float) -> float:
    """(eps/a)^(1/m) * (|ln(eps/a)|^(d-m) + 1), the unit-constant envelope.
    An envelope that is not finite and positive is an input error."""
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    with np.errstate(over="ignore"):  # an infinite u gives an infinite envelope
        u = np.float64(eps) / p.lead
    return power_bracket(u, 1.0 / p.m, p.d - p.m, f"eps {eps:g}")


def ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(x, y, 1)[0])


def scaling_report(
    check_id: str,
    x: np.ndarray,
    vals: np.ndarray,
    env: np.ndarray,
    slope: float | None,
    window: tuple[float, float],
    extras: dict,
) -> BoundReport:
    """Verdict of a scaling law vals <= C * env with C depending only on (m, d).

    Fits C as the largest vals / env, and tabulates (x, val, C * env) with
    zero budget.  Those rows hold by construction, so the verdict does not
    read them; a rhs is raised to its val where rounding of (val / env) * env
    would put it a unit below.  The margin is the log-log trend ``slope``'s
    distance to the nearer end of the closed ``window`` (an infinite end
    leaves that side open), inf when ``slope`` is None because there is no
    trend to test.  Passes when C is finite and the margin is not negative.
    """
    c_hat = float((vals / env).max())
    rows = tuple(ProbeRow(float(a), float(v), max(c_hat * float(e), float(v)), 0.0)
                 for a, v, e in zip(x, vals, env))
    lo, hi = window
    margin = math.inf if slope is None else min(hi - slope, slope - lo)
    return BoundReport(check_id, rows, c_hat, math.isfinite(c_hat) and margin >= 0,
                       dict(extras), margin)


def envelope_check(
    curve: ModulusCurve,
    p: EnvelopeParams,
    slope_range: tuple[float, float] = (-0.15, 0.15),
    check_id: str = "modulus-envelope",
) -> BoundReport:
    """An eps-law's values against the scaling-law envelope: the one fit of
    the shift modulus, the small-ball mass (``small_set_check``) and the
    degree-only bound (``degree_envelope_check``), each reported as
    ``check_id``.

    Passes when the fitted constant is finite and the log-log trend of the
    ratio, fitted over every positive point of ``curve``, stays inside
    ``slope_range``.  The default symmetric window tests that 1/m is sharp:
    oracle-grade curves of the extremal laws, restricted to small eps, sit
    near zero.  Monte Carlo curves of arbitrary members are judged on a
    one-sided window (``cli.MC_SLOPE_RANGE``): the law is an upper bound, so
    a ratio that falls as eps shrinks (a smoother law) agrees with it, and
    only one that grows refutes the exponent.  A false claim is a wrong
    power cap in ``p``: the normal law's modulus, of log-log slope 1, fails
    the claim m = d = 2 (envelope eps^(1/2)) on the symmetric window.
    Alongside the ``ratio_slope``, the extras hold ``slope_loglog``, the raw
    log-log slope (below 1/m when d > m, because the log factor is real),
    and ``slope_adjusted``, the slope with the log factor divided out, which
    compares directly with 1/m.
    """
    keep = curve.values > 0
    if keep.sum() < 3:
        raise InputError("envelope fit needs at least 3 positive curve points")
    eps, vals = curve.eps[keep], curve.values[keep]
    env = np.array([modulus_envelope(p, e) for e in eps])
    log_eps = np.log(eps)
    log_factor = np.array([log_bracket(e / p.lead, p.d - p.m) for e in eps])
    ratio_slope = ols_slope(log_eps, np.log(vals / env))
    return scaling_report(
        check_id, eps, vals, env, ratio_slope, slope_range,
        extras={
            "ratio_slope": ratio_slope,
            # an open end is null, since JSON has no infinity
            "slope_range": [v if math.isfinite(v) else None for v in slope_range],
            "slope_loglog": ols_slope(log_eps, np.log(vals)),
            "slope_adjusted": ols_slope(log_eps, np.log(vals / log_factor)),
            "expected_exponent": 1.0 / p.m,
        },
    )


def degree_envelope_check(
    var: float, curve: ModulusCurve, d: int
) -> BoundReport:
    """Degree-only bound, blind to the power cap: the dual modulus is at most
    C(d) * (eps / sqrt(Var))^(1/d) (Carbery & Wright 2001), the envelope at
    m = d with leading magnitude sqrt(Var).  Passes when the ratio slope is
    at least -0.1, that is, when the log-log slope of ``curve`` is at least
    1/d - 0.1."""
    if var <= 0:
        raise ResolutionError("degree envelope needs positive variance")
    return envelope_check(curve, EnvelopeParams(m=d, d=d, lead=math.sqrt(var)),
                          (-0.1, math.inf), "degree-envelope")


def small_set_check(
    cdf: EmpiricalCdf,
    rho: GriddedDensity,
    p: EnvelopeParams,
    slope_range: tuple[float, float],
) -> BoundReport:
    """Small-ball law: p(eps), the empirical mass of (c - eps/2, c + eps/2],
    judged by ``envelope_check``, with c as the extra ``centre``.

    c is the midpoint of the narrowest run of ``SMALL_BALLS[0]`` consecutive
    sorted samples that meets the densest cell of ``rho``: the sample's
    sharpest peak there, not the cell's centre, which can sit half a step
    off it.  Probes run 12 a decade from that run's width, below which p is
    mostly noise, up to the ball around c that holds ``SMALL_BALLS[1]``
    samples, so both ends come from the sample and they reach below the grid.
    Fewer samples than that, or fewer than 3 probes, is a resolution error.
    """
    small, large = SMALL_BALLS
    s = cdf.sorted
    if s.size < large:
        raise ResolutionError(f"small-ball law needs {large} samples, got {s.size}")
    j = int(rho.values.argmax())
    a, b = np.searchsorted(s, [rho.lo + j * rho.step, rho.lo + (j + 1) * rho.step])
    # the runs that meet the cell start from a - small + 1 up to b - 1
    k0, k1 = max(int(a) - small + 1, 0), min(int(b), s.size - small + 1)
    widths = s[k0 + small - 1:k1 + small - 1] - s[k0:k1]
    k = k0 + int(widths.argmin())
    lo, c = float(widths[k - k0]), 0.5 * (s[k] + s[k + small - 1])
    # the `large` values nearest c lie within that many places of c's rank
    i = int(np.searchsorted(s, c))
    hi = 2.0 * float(np.sort(np.abs(s[max(i - large, 0):i + large] - c))[large - 1])
    eps = geometric_grid(lo, hi, 12) if 0.0 < lo < hi else ()
    if len(eps) < 3:
        raise ResolutionError(f"small-ball probes from {lo:g} ({small} samples) "
                              f"to {hi:g} ({large} samples) are fewer than 3")
    report = envelope_check(ModulusCurve(eps, cdf(c + eps / 2) - cdf(c - eps / 2)), p,
                            slope_range, "small-set")
    report.extras["centre"] = float(c)
    return report


# --- Distances ----------------------------------------------------------------


def _same_grid(x: GriddedDensity, y: GriddedDensity) -> None:
    """Distances compare cell by cell, so both densities must sit on one grid
    (``quantile_grid`` of their pooled values puts several sample sets on one)."""
    gx, gy = (x.lo, x.step, x.size), (y.lo, y.step, y.size)
    if gx != gy:
        raise InputError(f"distances need one grid, got (lo, step, size) = {gx} and {gy}")


def tv_distance(x: GriddedDensity, y: GriddedDensity) -> float:
    """Total variation distance: L1 distance of densities, in [0, 2]."""
    _same_grid(x, y)
    return x.step * float(np.abs(x.values - y.values).sum())


def kr_distance(x: GriddedDensity, y: GriddedDensity) -> float:
    """Bounded-Lipschitz distance: sup of int phi d(X - Y) over |phi| <= 1,
    |phi'| <= 1; the same chain LP as the dual modulus with unit box and
    direct weights step * (rho_X - rho_Y)."""
    _same_grid(x, y)
    return solve_chain_lp(x.step * (x.values - y.values), 1.0, x.step)


def tv_vs_kr_check(
    x: GriddedDensity, y: GriddedDensity, eps_values
) -> BoundReport:
    """d_TV <= 6 max(sigma_X(eps), sigma_Y(eps)) + d_KR / eps on probes in (0,1),
    and d_KR <= d_TV."""
    eps_arr = np.asarray(list(eps_values), dtype=np.float64)
    if np.any((eps_arr <= 0) | (eps_arr >= 1)):
        raise InputError("probes must lie in (0, 1)")
    tv = tv_distance(x, y)
    kr = kr_distance(x, y)
    base = density_budget(x) + density_budget(y)
    rows = []
    for eps in eps_arr:
        sig = max(dual_modulus(x, eps), dual_modulus(y, eps))
        rhs = 6.0 * sig + kr / eps
        budget = (7.0 + 1.0 / eps) * base
        rows.append(ProbeRow(float(eps), tv, rhs, budget))
    return BoundReport.from_rows(
        "tv-vs-kr", rows, extra_ok=kr <= tv + 1e-9,
        extras={"tv": tv, "kr": kr, "budget_base": base},
    )


def balancing_epsilon(dkr: float, m: int, d: int) -> float:
    """Smoothing scale that balances the two bound terms:

        eps = (dkr/3)^(m/(m+1)) * |ln(dkr/3)|^((m-d) m/(m+1))

    Must land in (0, 1) for the two-term bound to apply; callers flag it
    otherwise."""
    if dkr <= 0:
        raise InputError(f"distance must be positive, got {dkr}")
    if dkr > 2.0 + 1e-9:
        raise InputError(f"bounded-Lipschitz distance cannot exceed 2, got {dkr}")
    u = dkr / 3.0
    power = m / (m + 1.0)
    # multiplicative log factor: exponent zero means the factor is 1
    return u ** power * abs(math.log(u)) ** ((m - d) * power)


def tv_kr_rate_ratio(tv: float, kr: float, m: int, d: int) -> float:
    """Ratio of d_TV to the rate d_KR^(1/(m+1)) (|ln d_KR|^((d-m)m/(m+1)) + 1);
    bounded ratios across a family witness the distance-comparison law."""
    if kr <= 0:
        raise InputError(f"distance must be positive, got {kr}")
    expo = (d - m) * m / (m + 1.0)
    rate = kr ** (1.0 / (m + 1.0)) * log_bracket(kr, expo)
    return tv / rate
