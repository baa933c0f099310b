"""Monte Carlo sampling of f(X) and gridded density estimates.

A ``GriddedDensity`` is the numeric stand-in for the distribution density:
a uniform grid of cells ``[lo + i*step, lo + (i+1)*step)`` whose values are
cell-averaged density (nonnegative, with ``step * sum(values)`` equal to the
covered probability mass, at least ``1 - 1e-3``).  Cell averaging, rather
than point sampling, keeps the mass identity exact even for densities with
integrable singularities (e.g. the chi-square(1) blow-up at zero).  The
closed-form densities the estimates are checked against (of X1, X1^2 and
X1 X2) are test oracles and live in ``tests/oracles.py``, so this module,
like the whole package, needs numpy only.

Sampling is deterministic and reproducible.  f(X) has the same law as f
restricted to its active variables, the ones some term uses, evaluated at
that many standard normals, so only those are drawn; padding f with unused
variables leaves every value unchanged, and a constant draws no normals.
The stream is numpy's SFC64 generator keyed through
``numpy.random.SeedSequence(seed).spawn``, one substream per fixed-size
chunk of ``SAMPLE_CHUNK`` values, with normals drawn by numpy's ziggurat
method.  ``sample_many`` draws several laws, each a (polynomial, seed) job,
from one X (common random numbers): each active variable is drawn from the
streams of the first job that uses it, and a later job reads the normals of
the variables it shares, so a law given twice gives equal values.  Every
job reads its variables as column views of the blocks that own them, so no
normal is copied.  verify-all draws f and 0.1 x1 and sums them
(``add_samples``), so its g = f + 0.1 x1 costs one multiply, one add and at
most the normals of x1; ``distance`` still evaluates its ``polynomial_b``.
``sample`` is the one-job case, and job 0 of any draw, like any job that
shares no variable with an earlier one, has the values ``sample`` gives it.
The thread pool takes one task per chunk, which draws every job's rows in
turn, so a draw of more than one chunk keeps every CPU busy.  Results are
bit-identical for any thread count, because chunk boundaries are fixed and
each chunk writes its own slice of each output; a law's values are checked
for overflow once, when every chunk is drawn.  Inside a chunk, rows are
drawn and evaluated in blocks of about ``BLOCK_BYTES`` of normals over all
jobs, so memory is the outputs plus one block per thread, whatever n is.
Each job draws the variables it owns, those no earlier job uses, as one
row-major (rows, owned) matrix;
consecutive draws from one generator continue its stream exactly, and each
value is computed from its own row alone, so the block size changes no
value: the stream is the one a single (chunk, owned variables) draw would
give.

A ``SampleSet`` sorts its values at most once (``SampleSet.sorted``).  The
grid's tail quantiles are read from that sort by rank, the histogram's cell
counts are differences of the positions of the cell edges in it, and the
empirical CDF and the empirical characteristic function
(``charfn.ecf_modulus``) use the same sorted array.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, ResolutionError
from .poly import Polynomial, active_variables, evaluate_batch

SAMPLE_CHUNK = 1 << 18
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

    @cached_property
    def sorted(self) -> np.ndarray:
        """The values in ascending order, read-only, sorted on first access only."""
        out = np.sort(self.values)
        out.setflags(write=False)
        return out


def sample(f: Polynomial, n_samples: int, seed: int) -> SampleSet:
    """Draw ``n_samples`` i.i.d. values of f(X), X standard normal in R^n.

    The output depends only on (f, seed, n_samples); how many chunks are
    drawn at once never changes the values.
    """
    return sample_many([(f, seed)], n_samples)[0]


def sample_many(jobs: list[tuple[Polynomial, int]], n_samples: int) -> list[SampleSet]:
    """``n_samples`` values of f(X) for each (f, seed) of ``jobs``, all laws
    drawn from one X: each active variable takes its normals from the stream
    of the first job that uses it, so laws drawn together share the normals
    of the variables they have in common (common random numbers).

    Job 0 gets the values ``sample(f, n_samples, seed)`` gives it, and so
    does any job that shares no variable with an earlier one; a job's seed
    keys only the variables no earlier job uses.  Each job's f is evaluated
    on its active variables' columns, views of the blocks of the jobs that
    own them.  A job whose values overflow a float raises ``InputError``.
    """
    if n_samples < 1:
        raise InputError(f"need at least one sample, got {n_samples}")
    n_chunks = (n_samples + SAMPLE_CHUNK - 1) // SAMPLE_CHUNK
    outputs, laws, widths = [], [], []
    owner: dict[int, tuple[int, int]] = {}  # variable -> (law, column of its own block)
    for f, seed in jobs:
        values = np.empty(n_samples)  # first, so a size too large fails before spawning
        outputs.append(values)
        active = active_variables(f)
        if not active:  # a constant: no normals to draw
            values.fill(sum(f.terms.values(), 0.0))
            continue
        own = [i for i in active if i not in owner]
        owner.update({i: (len(laws), col) for col, i in enumerate(own)})
        widths.append(len(own))
        f = Polynomial(len(active), {tuple(exps[i] for i in active): c
                                     for exps, c in f.terms.items()})
        children = np.random.SeedSequence(seed).spawn(n_chunks) if own else []
        laws.append((f, values, children, [owner[i] for i in active]))
    # the floor keeps per-block Python overhead small next to the arithmetic
    rows = max(4096, BLOCK_BYTES // (8 * max(1, sum(widths))))

    def draw(i: int) -> None:
        """Chunk i of every law, a block of rows at a time."""
        gens = [np.random.Generator(np.random.SFC64(children[i])) if children else None
                for _, _, children, _ in laws]
        end = min((i + 1) * SAMPLE_CHUNK, n_samples)
        for lo in range(i * SAMPLE_CHUNK, end, rows):
            hi = min(lo + rows, end)
            # each law's own normals, a row-major (rows, width) draw; binding a
            # new list frees the last pass's blocks before this pass draws
            blocks = []
            for gen, width, (f, values, _, cols) in zip(gens, widths, laws):
                blocks.append(gen.standard_normal((hi - lo, width)) if width else None)
                with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
                    values[lo:hi] = evaluate_batch(f, [blocks[law][:, c] for law, c in cols])

    with ThreadPoolExecutor(max_workers=min(n_chunks, THREADS)) as pool:
        list(pool.map(draw, range(n_chunks)))
    return [SampleSet(_finite(values), seed) for values, (_, seed) in zip(outputs, jobs)]


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise InputError("polynomial values overflow a float at some samples")
    return values


def add_samples(a: SampleSet, b: SampleSet) -> SampleSet:
    """The samples of f + h, with h's seed, from the samples ``a`` of f and
    ``b`` of h that one ``sample_many`` call drew (so on one X).

    When h is one term f lacks, the values are bit for bit those of drawing
    ``add(f, h)`` after f in that call: ``evaluate_batch`` sums f's terms
    in order and then h's, starting from zero.  Otherwise they differ from
    it by rounding only.  A sum that overflows raises the ``InputError``
    ``sample_many`` raises for the values of f + h.
    """
    with np.errstate(over="ignore"):
        return SampleSet(_finite(a.values + b.values), b.seed)


@dataclass(frozen=True)
class GriddedDensity:
    """Cell-averaged density on a uniform grid, from ``histogram_density`` or
    a closed form (the tests' ``oracles.oracle_density``).

    clipped_mass: probability mass outside the grid (tail truncation).
    l1_noise:     Monte Carlo L1 noise, an estimate of the expected L1
                  distance of the cell masses from their means (zero for
                  closed-form densities).
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


def _quantile(sets: Sequence[SampleSet], q: float) -> float:
    """``np.quantile`` of the pooled values of ``sets`` at ``q``, bit for
    bit: numpy's linear rule (Hyndman & Fan 1996, Am. Stat. 50(4), type 7)
    between the order statistics of ranks i = floor(v) and i + 1, v = (n - 1) q.
    Both are among the i + 2 smallest values of each set, and among its
    n - i largest, so they are read from the end of each sort nearer to them."""
    n = sum(s.count for s in sets)
    v = (n - 1) * q
    i = math.floor(v)
    if i + 2 <= n - i:
        tail = np.sort(np.concatenate([s.sorted[: i + 2] for s in sets]))[i:]
    else:
        tail = np.sort(np.concatenate([s.sorted[max(s.count - n + i, 0):] for s in sets]))[i - n:]
    a, b = float(tail[0]), float(tail[min(1, tail.size - 1)])  # n = 1: no rank 1
    g = v - i
    return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g


def quantile_grid(sets: Sequence[SampleSet], size: int) -> tuple[float, float]:
    """(lo, step) of the ``size``-cell grid over the [1e-4, 1 - 1e-4]
    quantiles of the pooled values of ``sets``, padded by two cells.  The
    quantiles are read by rank from each set's one sort, so pooling merges
    only the tails.  Histogramming several sample sets on the grid of their
    pooled values puts them on one grid."""
    if size < 16:
        raise InputError(f"need at least 16 cells, got {size}")
    q_lo, q_hi = _quantile(sets, TAIL_QUANTILE), _quantile(sets, 1.0 - TAIL_QUANTILE)
    if q_hi <= q_lo:
        raise ResolutionError("samples are (nearly) constant; no grid range")
    step = (q_hi - q_lo) / (size - 4)
    return float(q_lo - 2.0 * step), float(step)


def histogram_density(
    s: SampleSet, size: int = 400, grid: tuple[float, float] | None = None
) -> GriddedDensity:
    """Histogram estimate on the ``size`` cells of ``grid`` = (lo, step),
    by default ``quantile_grid`` of the sample itself; mass falling outside is
    reported as ``clipped_mass``.  Cell i counts the values v with
    ``edges[i] <= v < edges[i + 1]``, ``edges = lo + step * arange(size + 1)``,
    found by searching the edges in the sample's one sort.  The L1 noise
    estimate is the normal approximation sqrt(2 c (1 - c/N) / pi) of each
    count's mean absolute deviation, summed over the cells and divided by N.
    """
    if size < 16:
        raise InputError(f"need at least 16 cells, got {size}")
    if s.count < 10 * size:
        raise InputError(f"need >= {10 * size} samples for {size} cells, got {s.count}")
    glo, step = quantile_grid([s], size) if grid is None else grid
    if not math.isfinite(1.0 / step):
        raise ResolutionError(f"grid step {step:g} is too fine: 1/step overflows a float")
    counts = np.diff(np.searchsorted(s.sorted, glo + step * np.arange(size + 1)))
    n = s.count
    clipped = 1.0 - counts.sum() / n
    noise = float(np.sqrt(2.0 * counts * (1.0 - counts / n) / math.pi).sum()) / n
    return GriddedDensity(
        glo, step, counts / (n * step), clipped_mass=float(clipped), l1_noise=noise
    )


# --- Empirical CDF ----------------------------------------------------------


class EmpiricalCdf:
    """Right-continuous empirical CDF, queryable at any real point."""

    def __init__(self, s: SampleSet):
        self.sorted = s.sorted  # the sample's one sort, read-only
        self.count = s.count  # the size of the sample

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        r = np.searchsorted(self.sorted, x, side="right") / self.count
        return float(r) if np.isscalar(x) else r


def ecdf(s: SampleSet) -> EmpiricalCdf:
    return EmpiricalCdf(s)
