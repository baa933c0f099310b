"""Monte Carlo sampling of f(X) and gridded density estimates.

A ``GriddedDensity`` is the numeric stand-in for the distribution density:
a uniform grid of cells ``[lo + i*step, lo + (i+1)*step)`` whose values are
cell-averaged density (nonnegative, with ``step * sum(values)`` equal to the
covered probability mass, at least ``1 - 1e-3``).  Cell averaging, rather
than point sampling, keeps the mass identity exact even for densities with
integrable singularities (e.g. the chi-square(1) blow-up at zero).

Sampling is deterministic and reproducible: the stream is a Philox counter-
based generator keyed through ``numpy.random.SeedSequence(seed).spawn``, one
substream per fixed-size chunk of the output, with normals drawn by numpy's
ziggurat method.  ``sample_many`` draws several laws, each a (polynomial,
seed) job, and puts the chunks of all of them in one thread pool, so two
one-chunk laws are drawn at once; ``sample`` is its one-job case.  Results
are bit-identical for any thread count and any set of jobs drawn together,
because each job keeps its own seed, chunk boundaries are fixed and each
chunk writes its own slice of its job's output.  Inside a chunk, rows are
drawn and evaluated in blocks of about ``BLOCK_BYTES`` of normals, so memory
does not grow with n times the chunk size.  Consecutive draws from one
generator continue its stream exactly, and each value is computed from its
own row alone, so the block size changes no value: the stream is the one a
single (chunk, n) draw would give.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, roots_legendre

from .errors import InputError, ResolutionError
from .poly import Polynomial, evaluate_batch

SAMPLE_CHUNK = 1 << 20
BLOCK_BYTES = 1 << 20  # bytes of normals drawn at a time; a block has at least 4096 rows
# most chunks drawn at once: the CPUs this process may run on
THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
MASS_TOL = 1e-3
TAIL_QUANTILE = 1e-4


@dataclass(frozen=True)
class SampleSet:
    """I.i.d. realizations of f(X) with seed provenance."""

    values: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return int(self.values.shape[0])


def sample(f: Polynomial, n_samples: int, seed: int) -> SampleSet:
    """Draw ``n_samples`` i.i.d. values of f(X), X standard normal in R^n.

    The output depends only on (f, seed, n_samples); how many chunks are
    drawn at once never changes the values.
    """
    return sample_many([(f, seed)], n_samples)[0]


def sample_many(jobs: list[tuple[Polynomial, int]], n_samples: int) -> list[SampleSet]:
    """``sample(f, n_samples, seed)`` for each (f, seed) of ``jobs``, with
    the chunks of every job drawn in one thread pool.

    Each job's values are those ``sample`` gives it alone.  When jobs fail,
    the error of the first failing job in ``jobs`` is raised.
    """
    if n_samples < 1:
        raise InputError(f"need at least one sample, got {n_samples}")
    n_chunks = (n_samples + SAMPLE_CHUNK - 1) // SAMPLE_CHUNK
    outputs, tasks = [], []
    for f, seed in jobs:
        values = np.empty(n_samples)  # first, so a size too large fails before spawning
        children = np.random.SeedSequence(seed).spawn(n_chunks)
        # the floor keeps per-block Python overhead small next to the arithmetic
        rows = max(4096, BLOCK_BYTES // (8 * f.n))
        if rows * f.n > np.iinfo(np.intp).max // 8:
            raise InputError(f"a block of {rows} rows of {f.n} normals is too large to allocate")
        outputs.append(values)
        tasks += [(f, values, rows, child, i) for i, child in enumerate(children)]

    def draw(task) -> None:
        f, values, rows, child, i = task
        gen = np.random.Generator(np.random.Philox(child))
        end = min((i + 1) * SAMPLE_CHUNK, n_samples)
        for lo in range(i * SAMPLE_CHUNK, end, rows):
            hi = min(lo + rows, end)
            z = gen.standard_normal((hi - lo, f.n))
            with np.errstate(over="ignore", invalid="ignore"):
                block = evaluate_batch(f, z)
            if not np.isfinite(block).all():
                raise InputError("polynomial values overflow a float at some samples")
            values[lo:hi] = block

    threads = min(len(tasks), THREADS)
    if threads <= 1:
        for task in tasks:
            draw(task)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(draw, tasks))  # results in task order: job 0's error first
    return [SampleSet(values, seed) for values, (_, seed) in zip(outputs, jobs)]


@dataclass(frozen=True)
class GriddedDensity:
    """Cell-averaged density on a uniform grid, from ``histogram_density`` or
    ``oracle_density``.

    clipped_mass: probability mass outside the grid (tail truncation).
    l1_noise:     Monte Carlo L1 noise estimate from seed-split halves
                  (zero for closed-form densities).
    """

    lo: float
    step: float
    values: np.ndarray
    clipped_mass: float = 0.0
    l1_noise: float = 0.0

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.shape[0] < 2:
            raise InputError(f"density grid needs >= 2 cells, got shape {vals.shape}")
        if not np.isfinite(self.step) or self.step <= 0:
            raise InputError(f"step must be positive, got {self.step}")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise InputError("density values must be finite and nonnegative")
        mass = self.step * float(vals.sum())
        if not (1.0 - MASS_TOL <= mass <= 1.0 + 1e-9):
            raise InputError(f"density mass {mass:.6f} outside [{1 - MASS_TOL}, 1]")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return int(self.values.shape[0])

    @property
    def hi(self) -> float:
        return self.lo + self.step * self.size

    @property
    def mass(self) -> float:
        return self.step * float(self.values.sum())

    def total_variation(self) -> float:
        """Variation of the piecewise-constant density, including the drops
        to zero at both grid ends (a discretization-bias proxy)."""
        v = self.values
        return float(v[0] + np.abs(np.diff(v)).sum() + v[-1])


def quantile_grid(values: np.ndarray, size: int) -> tuple[float, float]:
    """(lo, step) of the ``size``-cell grid over the [1e-4, 1 - 1e-4]
    quantiles of ``values``, padded by two cells.  Histogramming several
    sample sets on the grid of their pooled values puts them on one grid."""
    if size < 16:
        raise InputError(f"need at least 16 cells, got {size}")
    q_lo, q_hi = np.quantile(values, [TAIL_QUANTILE, 1.0 - TAIL_QUANTILE])
    if q_hi <= q_lo:
        raise ResolutionError("samples are (nearly) constant; no grid range")
    step = (q_hi - q_lo) / (size - 4)
    return float(q_lo - 2.0 * step), float(step)


def _half_counts(
    values: np.ndarray, lo: float, step: float, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cell counts of the two halves of ``values``, binned in one pass; their
    sum is the count of the whole sample (integers, so exact in float64)."""
    idx = values - lo
    idx /= step
    idx = np.floor(idx, out=idx).astype(np.int64)
    half = values.shape[0] // 2
    return tuple(
        np.bincount(part[(part >= 0) & (part < size)], minlength=size).astype(np.float64)
        for part in (idx[:half], idx[half:])
    )


def histogram_density(
    s: SampleSet, size: int = 400, grid: tuple[float, float] | None = None
) -> GriddedDensity:
    """Histogram estimate on the ``size`` cells of ``grid`` = (lo, step),
    by default ``quantile_grid`` of the sample itself; mass falling outside is
    reported as ``clipped_mass``.  The L1 noise estimate comes from
    histogramming the two halves of the sample separately.
    """
    if size < 16:
        raise InputError(f"need at least 16 cells, got {size}")
    if s.count < 10 * size:
        raise InputError(f"need >= {10 * size} samples for {size} cells, got {s.count}")
    glo, step = quantile_grid(s.values, size) if grid is None else grid
    c1, c2 = _half_counts(s.values, glo, step, size)
    counts = c1 + c2
    n = s.count
    clipped = 1.0 - counts.sum() / n
    half = n // 2
    h1 = c1 / (half * step)
    h2 = c2 / ((n - half) * step)
    noise = 0.5 * step * float(np.abs(h1 - h2).sum())
    return GriddedDensity(
        glo, step, counts / (n * step), clipped_mass=float(clipped), l1_noise=noise
    )


# --- Closed-form reference densities ---------------------------------------


def _normal_cell_mass(edges: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    return np.diff(ndtr((edges - mu) / sigma))


def _chisq1_cdf(x: np.ndarray) -> np.ndarray:
    x = np.maximum(x, 0.0)
    return 2.0 * ndtr(np.sqrt(x)) - 1.0


_EULER_GAMMA = 0.5772156649015329
_GL_NODES, _GL_WEIGHTS = roots_legendre(160)
_SERIES_CAP = 0.05


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
    """Per-cell mass: series cumulative near the log singularity at zero,
    Simpson on the quadrature pdf elsewhere."""
    a, b = edges[:-1], edges[1:]
    near = (np.abs(a) <= _SERIES_CAP) & (np.abs(b) <= _SERIES_CAP)
    straddle = (a < 0) & (b > 0)
    use_series = near | straddle
    cum_a = np.sign(a) * _product_normal_cum_small(np.abs(a))
    cum_b = np.sign(b) * _product_normal_cum_small(np.abs(b))
    mass = np.where(use_series, cum_b - cum_a, 0.0)
    rest = ~use_series
    if rest.any():
        fa = product_normal_pdf(a[rest])
        fb = product_normal_pdf(b[rest])
        fm = product_normal_pdf(0.5 * (a[rest] + b[rest]))
        mass[rest] = (b[rest] - a[rest]) / 6.0 * (fa + 4.0 * fm + fb)
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


# --- Empirical CDF ----------------------------------------------------------


class EmpiricalCdf:
    """Right-continuous empirical CDF, queryable at any real point."""

    def __init__(self, s: SampleSet):
        self._sorted = np.sort(s.values)
        self._n = s.count

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        r = np.searchsorted(self._sorted, x, side="right") / self._n
        return float(r) if np.isscalar(x) else r

    def interval_prob(self, a: float, b: float) -> float:
        """Empirical probability of the interval (a, b]."""
        if b < a:
            raise InputError(f"interval endpoints out of order: ({a}, {b}]")
        return float(self(b) - self(a))


def ecdf(s: SampleSet) -> EmpiricalCdf:
    return EmpiricalCdf(s)
