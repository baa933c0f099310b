import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import k0, ndtr

import polygauss as pg
import polygauss.density as density
from polygauss.density import SAMPLE_CHUNK, product_normal_pdf
from polygauss.errors import InputError, ResolutionError
from polygauss.poly import (
    ClassParams,
    Polynomial,
    add,
    constant,
    monomial,
    random_in_class,
    scale,
    variable,
)


def test_sample_determinism_and_worker_independence(monkeypatch):
    f = monomial(2, (1, 1))
    a = pg.sample(f, 50_000, seed=5)
    b = pg.sample(f, 50_000, seed=5)
    monkeypatch.setattr(density, "THREADS", 8)
    c = pg.sample(f, 50_000, seed=5)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.values, c.values)
    d = pg.sample(f, 50_000, seed=6)
    assert not np.array_equal(a.values, d.values)


def test_sample_worker_independence_across_chunks(monkeypatch):
    # more samples than one chunk so the split actually matters
    f = monomial(1, (1,))
    n = (1 << 20) + 12_345
    got = []
    for threads in (1, 8):
        monkeypatch.setattr(density, "THREADS", threads)
        got.append(pg.sample(f, n, seed=9).values)
    assert np.array_equal(*got)


# sha256 of sample(...).values at 200k samples for verify-all members: f and
# g = f + 0.1*x1, each drawn with the seed `verify-all --count 1 --seed s`
# derives for it.  Any rewrite of sampling must keep the stream bit-identical.
STREAM_DIGESTS = {
    ((14, 2, 3), 1): (
        "28ae5352733382bc938cd751f8bfd5001b37755f041c811cd83658bd4a1213c1",
        "417136f200896a458b5a00b41a656469787b3525f8f4669277f874a5d30a04fb",
    ),
    ((14, 2, 3), 5): (
        "7516f3aae0258ee80ac9a1a4739ab9e519a6e60b072da203c29817019f4a65e3",
        "d1b35a1c9f03f0c778412927654d0989b8272d9d600a973b839ae7f06574270e",
    ),
    ((14, 2, 3), 7): (
        "d5822b9f563bb3cdd2a4e6b5bcf84f2e12a0938d298e25467a3b8793a7424dd3",
        "5ed722ac998dccfa5cf77cff94d8d8861f64945312d91870fb111a431ef6bcd3",
    ),
    ((3, 1, 3), 1): (
        "2552fa2b98b75ec4b00bbdfc9b23526f0ef9547f3dc2f3a214ef48575ac613a7",
        "ddd145d24ca5e14fb33c2aa63be49879aefba6622ffce39a83eafc7a73c6b5b8",
    ),
    ((3, 1, 3), 3): (
        "626e939cda05f8ddb99229eaa33932e2850f23dc3b093f7ca1ba0cd85527339b",
        "10b49adca8ef9f28cc86c4ca5c0566d77fd11b40900d932fb2cdfaf90541d6c8",
    ),
}
# The same for (1 << 20) + 12_345 values (two chunks) of the first wide member's f.
TWO_CHUNK_DIGEST = "44b385831c56b6dc16dff07e2af7a41fe18cb1f6f0e917eeb0a9faa4375353e4"


def _member_draws(params: ClassParams, s: int):
    """(polynomial, sample seed) of f and g for verify-all member seed s."""
    seeds = np.random.SeedSequence(s).generate_state(3, dtype=np.uint64)
    f = random_in_class(params, int(seeds[0]))
    g = add(f, scale(variable(params.n, 1), 0.1))
    return [(f, int(seeds[1])), (g, int(seeds[2]))]


def _values_digest(s) -> str:
    return hashlib.sha256(s.values.tobytes()).hexdigest()


def test_sample_stream_is_pinned(monkeypatch):
    for (nmd, s), want in STREAM_DIGESTS.items():
        draws = _member_draws(ClassParams(*nmd), s)
        got = tuple(_values_digest(pg.sample(p, 200_000, seed)) for p, seed in draws)
        assert got == want, (nmd, s)
    (f, seed), _ = _member_draws(ClassParams(14, 2, 3), 1)
    for threads in (1, 2):
        monkeypatch.setattr(density, "THREADS", threads)
        s = pg.sample(f, (1 << 20) + 12_345, seed)
        assert _values_digest(s) == TWO_CHUNK_DIGEST, threads


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_sample_many_keeps_the_pinned_streams(monkeypatch, threads):
    monkeypatch.setattr(density, "THREADS", threads)
    jobs = [job for nmd, s in STREAM_DIGESTS for job in _member_draws(ClassParams(*nmd), s)]
    got = [_values_digest(s) for s in pg.sample_many(jobs, 200_000)]
    assert got == [digest for pair in STREAM_DIGESTS.values() for digest in pair]
    # two chunks per law, so four tasks share the pool
    (f, seed_f), (g, seed_g) = _member_draws(ClassParams(14, 2, 3), 1)
    n = (1 << 20) + 12_345
    sf, sg = pg.sample_many([(f, seed_f), (g, seed_g)], n)
    assert _values_digest(sf) == TWO_CHUNK_DIGEST
    monkeypatch.setattr(density, "THREADS", 1)
    assert np.array_equal(sg.values, pg.sample(g, n, seed_g).values)
    assert (sf.seed, sg.seed) == (seed_f, seed_g)


@pytest.mark.parametrize("threads", [1, 2])
def test_sample_many_raises_the_first_failing_job(monkeypatch, threads):
    monkeypatch.setattr(density, "THREADS", threads)
    overflowing = Polynomial(1, {(200,): 1e300})  # wherever |x| > 1.1
    with pytest.raises(InputError, match="overflow"):
        pg.sample_many([(monomial(1, (1,)), 1), (overflowing, 2)], 1000)

    def fail_by_dimension(f, z):
        if f.n == 1:
            time.sleep(0.05)  # so that job 1 fails first in time
        raise InputError(f"job with n={f.n} failed")

    monkeypatch.setattr(density, "evaluate_batch", fail_by_dimension)
    with pytest.raises(InputError, match="n=1"):
        pg.sample_many([(monomial(1, (1,)), 1), (monomial(2, (1, 1)), 2)], 1000)


def test_sample_values_do_not_depend_on_block_size(monkeypatch):
    f = Polynomial(3, {(1, 1, 1): 1.0, (2, 0, 0): -0.5, (0, 1, 0): 0.25, (0, 0, 0): 2.0})
    n = SAMPLE_CHUNK + 12_345  # two chunks; no block size divides either
    want = pg.sample(f, n, seed=11).values
    for block_bytes in (1, 8 * f.n * 2 * SAMPLE_CHUNK):  # 4096 rows; whole chunks
        monkeypatch.setattr(density, "BLOCK_BYTES", block_bytes)
        for threads in (1, 2):
            monkeypatch.setattr(density, "THREADS", threads)
            got = pg.sample(f, n, seed=11).values
            assert np.array_equal(got, want), (block_bytes, threads)


def test_sample_checks_overflow_in_the_last_block(monkeypatch):
    f = monomial(2, (1, 1))
    evaluate = density.evaluate_batch

    def overflow_in_short_block(g, z):
        values = evaluate(g, z)
        if z.shape[0] < 4096:  # only the last of 10_000 rows in 4096-row blocks
            values[-1] = np.inf
        return values

    monkeypatch.setattr(density, "BLOCK_BYTES", 1)
    monkeypatch.setattr(density, "evaluate_batch", overflow_in_short_block)
    assert pg.sample(f, 8192, seed=1).count == 8192
    with pytest.raises(InputError, match="overflow"):
        pg.sample(f, 10_000, seed=1)


def _sample_peak_bytes(f, n_samples):
    tracemalloc.start()
    try:
        pg.sample(f, n_samples, seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_memory_does_not_grow_with_n():
    (wide, _), _ = _member_draws(ClassParams(14, 2, 3), 5)
    assert _sample_peak_bytes(wide, 1_000_000) < 24e6  # the values are 8 MB
    huge = random_in_class(ClassParams(400, 2, 3), 5)
    assert _sample_peak_bytes(huge, 200_000) < 64e6  # one (N, n) draw is 640 MB


def test_sample_clt_bands(x1_samples, x1sq_samples):
    n = x1_samples.count
    assert abs(x1_samples.values.mean()) <= 4.0 / math.sqrt(n)
    assert abs(x1sq_samples.values.mean() - 1.0) <= 4.0 * math.sqrt(2.0 / n)


def test_histogram_mass_and_range(x1_samples):
    h = pg.histogram_density(x1_samples, 400)
    assert 0.999 <= h.mass <= 1.0
    assert h.clipped_mass <= 1e-3
    assert h.l1_noise > 0


def test_histogram_oracle_agreement(x1_samples):
    h = pg.histogram_density(x1_samples, 400)
    o = pg.oracle_density("normal", h.lo, h.hi, h.size)
    assert h.step * np.abs(h.values - o.values).sum() <= 0.02


def test_sample_rejects_overflowing_values():
    f = Polynomial(1, {(200,): 1e300})  # overflows wherever |x| > 1.1
    with pytest.raises(InputError, match="overflow"):
        pg.sample(f, 1000, seed=1)


def test_histogram_rejects_constant():
    s = pg.sample(constant(1, 2.0), 50_000, seed=1)
    with pytest.raises(ResolutionError, match="constant"):
        pg.histogram_density(s, 64)


def test_histogram_preconditions(x1_samples):
    with pytest.raises(InputError):
        pg.histogram_density(x1_samples, 8)
    tiny = pg.SampleSet(x1_samples.values[:100], x1_samples.seed)
    with pytest.raises(InputError):
        pg.histogram_density(tiny, 64)


def test_quantile_grid_sets_one_grid(x1_samples, x1sq_samples):
    both = np.concatenate([x1_samples.values, x1sq_samples.values])
    grid = pg.quantile_grid(both, 400)
    hx = pg.histogram_density(x1_samples, 400, grid)
    hy = pg.histogram_density(x1sq_samples, 400, grid)
    assert (hx.lo, hx.step, hx.size) == (hy.lo, hy.step, hy.size)
    q_lo, q_hi = np.quantile(both, [1e-4, 1 - 1e-4])
    assert hx.lo < q_lo and q_hi < hx.hi
    own = pg.histogram_density(x1_samples, 400, pg.quantile_grid(x1_samples.values, 400))
    assert np.array_equal(own.values, pg.histogram_density(x1_samples, 400).values)
    with pytest.raises(ResolutionError, match="constant"):
        pg.quantile_grid(np.ones(10), 64)


def _three_pass_histogram(values, lo, step, size):
    """Values, clipped mass and L1 noise with the whole sample and each half
    binned separately."""

    def bins(v):
        idx = np.floor((v - lo) / step).astype(np.int64)
        keep = (idx >= 0) & (idx < size)
        return np.bincount(idx[keep], minlength=size).astype(np.float64)

    n = values.shape[0]
    half = n // 2
    counts = bins(values)
    h1 = bins(values[:half]) / (half * step)
    h2 = bins(values[half:]) / ((n - half) * step)
    noise = 0.5 * step * float(np.abs(h1 - h2).sum())
    return counts / (n * step), 1.0 - counts.sum() / n, noise


@pytest.mark.parametrize("name", ["x1_samples", "x1x2_samples"])
@pytest.mark.parametrize("pooled", [False, True])
def test_histogram_one_pass_is_bit_identical(request, x1sq_samples, name, pooled):
    s = request.getfixturevalue(name)
    grid = pg.quantile_grid(np.concatenate([s.values, x1sq_samples.values]), 400) if pooled else None
    rho = pg.histogram_density(s, 400, grid)
    values, clipped, noise = _three_pass_histogram(s.values, rho.lo, rho.step, rho.size)
    assert rho.values.tobytes() == values.tobytes()
    assert rho.clipped_mass == clipped
    assert rho.l1_noise == noise
    if pooled:
        assert rho.clipped_mass > 0.0  # the pooled grid cuts off part of s


def test_oracle_normal_point_value():
    o = pg.oracle_density("normal", -4.0, 4.0, 2048)
    at0 = o.values[o.size // 2]
    assert at0 == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-4)


def test_oracle_chisq_point_value():
    o = pg.oracle_density("chisq1", 0.0, 16.0, 4096)
    idx = int((1.0 - o.lo) / o.step)
    want = math.exp(-0.5) / math.sqrt(2 * math.pi)  # 0.2420
    assert o.values[idx] == pytest.approx(want, rel=5e-3)


def test_oracle_product_matches_histogram(x1x2_samples):
    h = pg.histogram_density(x1x2_samples, 400)
    o = pg.oracle_density("product_normal", h.lo, h.hi, h.size)
    idx = int((1.0 - o.lo) / o.step)
    assert abs(h.values[idx] - o.values[idx]) <= 0.01
    assert h.step * np.abs(h.values - o.values).sum() <= 0.02


def test_oracle_unknown_kind():
    with pytest.raises(InputError, match="unknown density kind"):
        pg.oracle_density("cauchy", -1, 1, 64)


def test_product_pdf_quadrature_cross_check():
    xs = np.array([0.02, 0.1, 0.5, 1.0, 2.5, 6.0])
    assert np.allclose(product_normal_pdf(xs), k0(xs) / np.pi, rtol=1e-10)


def test_ecdf(x1_samples):
    cdf = pg.ecdf(x1_samples)
    assert cdf(x1_samples.values.min() - 1.0) == 0.0
    assert cdf(x1_samples.values.max() + 1.0) == 1.0
    n = x1_samples.count
    assert abs(cdf(0.0) - 0.5) <= 4.0 / (2.0 * math.sqrt(n))
    assert cdf.interval_prob(-1.0, 1.0) == pytest.approx(
        2 * ndtr(1.0) - 1.0, abs=0.005
    )


def test_affine_equivariance(x1x2_samples):
    # resample 2f + 1 with the same seed: identical normals, transformed
    # values, bit for bit because doubling is exact
    f2 = Polynomial(2, {(1, 1): 2.0, (0, 0): 1.0})
    s2 = pg.sample(f2, x1x2_samples.count, seed=x1x2_samples.seed)
    assert np.array_equal(s2.values, 2.0 * x1x2_samples.values + 1.0)
    base = pg.histogram_density(x1x2_samples, 400)
    h2 = pg.histogram_density(s2, 400)
    # the grid and its counts carry over: step doubles, values halve
    assert h2.step == 2.0 * base.step
    assert np.array_equal(h2.values, base.values / 2.0)
    assert h2.clipped_mass == base.clipped_mass


def test_gridded_density_validation():
    with pytest.raises(InputError):
        pg.GriddedDensity(0.0, 0.1, np.array([1.0, -1.0]))
    with pytest.raises(InputError):
        pg.GriddedDensity(0.0, 0.1, np.array([1.0, 2.0]))  # mass 0.3
    with pytest.raises(InputError):
        pg.GriddedDensity(0.0, -0.1, np.array([5.0, 5.0]))
