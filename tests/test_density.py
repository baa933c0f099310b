import hashlib
import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import k0, ndtr
from scipy.stats import binom

import polygauss as pg
import polygauss.cli as cli
import polygauss.density as density
from polygauss.density import SAMPLE_CHUNK
from polygauss.errors import InputError, ResolutionError
from polygauss.poly import (
    ClassParams,
    Polynomial,
    add,
    constant,
    dumps,
    monomial,
    random_in_class,
    scale,
    variable,
)

from oracles import binomial_mean_abs_deviation, oracle_density, product_normal_pdf


TWO_CHUNKS = SAMPLE_CHUNK + 12_345  # a sample size of two chunks, the second short


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
    n = TWO_CHUNKS
    got = []
    for threads in (1, 8):
        monkeypatch.setattr(density, "THREADS", threads)
        got.append(pg.sample(f, n, seed=9).values)
    assert np.array_equal(*got)


# sha256 of the values at 200k samples of verify-all members: f and
# g = f + 0.1*x1, drawn together by sample_many with the seeds
# `verify-all --count 1 --seed s` derives for them.  f's are also those of
# sample(f) alone.  The wide members 1 and 5 lack x1, so their g draws x1
# from its own seed; the others read every variable from f's normals.  Any
# rewrite of sampling must keep the streams bit-identical.  verify-all's g
# costs one add (add_samples of the draws of f and 0.1*x1), which gives
# these g digests whenever f has no x1-linear term; `distance` still
# evaluates its polynomial_b as drawn here.
STREAM_DIGESTS = {
    ((14, 2, 3), 1): (
        "cd30e68db16ea145ab3d09febaa88c4cdba3a5959c1e8927748ae232b3bd5698",
        "528189c8a1a4225d1ebedd683126b1f4b3bfd84c01face0d187bdfbf1b0d4d62",
    ),
    ((14, 2, 3), 5): (
        "4088cadd65850e5f4ab91dbaa598efcc045d26f9aa57cf39f6dc828574578294",
        "188e685923401a179d3e553f14addc23b8e1c16bfee7bcbf59dcc8ace033c206",
    ),
    ((14, 2, 3), 7): (
        "cf373b0cb6336f9b71c92627a7634bfa80c5541f694c43cfcf83a5abcb34fa9d",
        "96cd48e977a50fec96b6dd478bd7ee73e7cd609b60203ff1f9cc42993565a746",
    ),
    ((3, 1, 3), 1): (
        "c84cbd2c2f1f4dff55227016d07529373cac964d8183d4b58b5e24bb77fe1311",
        "6cd1c1c595842a3faa123c0c269c498cdc9e78ebbd42a1581c8dda87e32657f0",
    ),
    ((3, 1, 3), 3): (
        "3bf1a04485244582c7381cea48d9c93636a4f8773cc80547c2fe60e9d863c943",
        "d346acc57cf4d26ec14048ab31ff57537fadd7c3cd50448b7328396ce738d46f",
    ),
}
# The same for TWO_CHUNKS values of the first wide member's f.
TWO_CHUNK_DIGEST = "b439c984dcb80a0a55c7849da06f525c7939dcbe10b194e07491be88e3445883"


def _member_draws(params: ClassParams, s: int):
    """(polynomial, sample seed) of f and g for verify-all member seed s."""
    seeds = np.random.SeedSequence(s).generate_state(3, dtype=np.uint64)
    f = random_in_class(params, int(seeds[0]))
    g = add(f, scale(variable(params.n, 1), 0.1))
    return [(f, int(seeds[1])), (g, int(seeds[2]))]


def _values_digest(s) -> str:
    return hashlib.sha256(s.values.tobytes()).hexdigest()


def test_sample_stream_is_pinned(monkeypatch):
    for (nmd, s), (want, _) in STREAM_DIGESTS.items():
        (f, seed), _ = _member_draws(ClassParams(*nmd), s)
        assert _values_digest(pg.sample(f, 200_000, seed)) == want, (nmd, s)
    (f, seed), _ = _member_draws(ClassParams(14, 2, 3), 1)
    for threads in (1, 2):
        monkeypatch.setattr(density, "THREADS", threads)
        s = pg.sample(f, TWO_CHUNKS, seed)
        assert _values_digest(s) == TWO_CHUNK_DIGEST, threads


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_sample_many_keeps_the_pinned_streams(monkeypatch, threads):
    monkeypatch.setattr(density, "THREADS", threads)
    for (nmd, s), want in STREAM_DIGESTS.items():
        pair = pg.sample_many(_member_draws(ClassParams(*nmd), s), 200_000)
        assert tuple(_values_digest(x) for x in pair) == want, (nmd, s)
    # two chunks per law, each drawing both laws' blocks in turn
    (f, seed_f), (g, seed_g) = _member_draws(ClassParams(14, 2, 3), 1)
    sf, sg = pg.sample_many([(f, seed_f), (g, seed_g)], TWO_CHUNKS)
    assert _values_digest(sf) == TWO_CHUNK_DIGEST
    assert (sf.seed, sg.seed) == (seed_f, seed_g)
    monkeypatch.setattr(density, "THREADS", 1)
    _, sg_one = pg.sample_many([(f, seed_f), (g, seed_g)], TWO_CHUNKS)
    assert np.array_equal(sg.values, sg_one.values)


@pytest.mark.parametrize("threads", [1, 2])
def test_sample_many_couples_shared_variables(monkeypatch, threads):
    monkeypatch.setattr(density, "THREADS", threads)
    f = Polynomial(3, {(1, 1, 1): 1.0, (2, 0, 0): -0.5, (0, 1, 0): 0.25, (0, 0, 0): 2.0})
    n = TWO_CHUNKS
    alone = pg.sample(f, n, seed=4).values
    # a twin with another seed reads every normal from job 0
    s0, twin = pg.sample_many([(f, 4), (f, 5)], n)
    assert np.array_equal(s0.values, alone) and np.array_equal(twin.values, alone)
    # a job on variables no earlier job uses is its lone draw
    disjoint = _pad(f, 6, (3, 4, 5))
    _, apart = pg.sample_many([(f, 4), (disjoint, 7)], n)
    assert np.array_equal(apart.values, pg.sample(disjoint, n, seed=7).values)
    # g = f + h shares its variables with f or h, whichever is drawn first
    for h in (scale(variable(3, 1), 0.1), scale(variable(6, 5), 0.1)):
        g = add(_pad(f, h.n, (0, 1, 2)), h)
        sf, sg, sh = pg.sample_many([(f, 4), (g, 5), (h, 6)], n)
        assert np.array_equal(sf.values, alone)
        np.testing.assert_allclose(sg.values, sf.values + sh.values, rtol=1e-12, atol=1e-12)


def test_sample_many_reads_columns_of_one_block():
    # jobs on one column and on two non-adjacent columns of job 0's block
    f = Polynomial(3, {(1, 1, 1): 1.0, (2, 0, 0): -0.5, (0, 1, 0): 0.25})
    jobs = [(f, 4), (monomial(3, (1, 0, 1)), 8), (variable(3, 1), 9), (variable(3, 3), 10)]
    _, x1x3, x1, x3 = pg.sample_many(jobs, TWO_CHUNKS)
    assert np.array_equal(x1x3.values, x1.values * x3.values)
    assert not np.array_equal(x1.values, x3.values)


@pytest.mark.parametrize("threads", [1, 2])
def test_sample_many_raises_the_overflow_of_any_job(monkeypatch, threads):
    monkeypatch.setattr(density, "THREADS", threads)
    overflowing = Polynomial(1, {(200,): 1e300})  # wherever |x| > 1.1
    with pytest.raises(InputError, match="overflow"):
        pg.sample_many([(monomial(1, (1,)), 1), (overflowing, 2)], 1000)
    jobs = [(monomial(1, (1,)), 1), (monomial(2, (1, 1)), 2)]
    evaluate = density.evaluate_batch

    def overflow_at(where):
        def evaluate_with_inf(f, cols, out):
            evaluate(f, cols, out)
            if where(f, len(cols[0])):
                out[0] = np.inf
            return out
        return evaluate_with_inf

    # job 1 overflows at once
    monkeypatch.setattr(density, "evaluate_batch", overflow_at(lambda f, rows: f.n == 2))
    with pytest.raises(InputError, match="overflow"):
        pg.sample_many(jobs, 1000)
    # job 0 overflows only in the short last block, which only chunk 1 has
    monkeypatch.setattr(density, "BLOCK_BYTES", 1)  # 4096-row blocks
    monkeypatch.setattr(density, "evaluate_batch",
                        overflow_at(lambda f, rows: f.n == 1 and rows < 4096))
    with pytest.raises(InputError, match="overflow"):
        pg.sample_many(jobs, TWO_CHUNKS)


def test_add_samples_gives_the_pinned_g():
    for (nmd, s), (want_f, want_g) in STREAM_DIGESTS.items():
        params = ClassParams(*nmd)
        (f, seed_f), (g, seed_g) = _member_draws(params, s)
        x1 = scale(variable(params.n, 1), 0.1)
        sf, sd = pg.sample_many([(f, seed_f), (x1, seed_g)], 200_000)
        summed, buffer = sf.values + sd.values, sd.values  # before the add consumes sd
        _, drawn = pg.sample_many([(f, seed_f), (g, seed_g)], 200_000)
        sg = density.add_samples(sf, sd)
        assert sg.values is buffer and sg.values.tobytes() == summed.tobytes(), (nmd, s)
        assert not sg.values.flags.writeable
        assert _values_digest(sf) == want_f and sg.seed == seed_g, (nmd, s)
        if nmd == (14, 2, 3):  # no x1-linear term in f: the same sums in the same order
            assert next(iter(x1.terms)) not in f.terms
            assert _values_digest(sg) == want_g, (nmd, s)
        else:  # f's x1 term and 0.1 x1 are one term of g: they round apart
            assert next(iter(x1.terms)) in f.terms
            np.testing.assert_allclose(sg.values, drawn.values, rtol=0.0, atol=1e-12)


def test_add_samples_raises_the_overflow_error_of_a_draw():
    with pytest.raises(InputError) as drawn:
        pg.sample(Polynomial(1, {(200,): 1e300}), 1000, seed=1)
    f = pg.SampleSet(np.array([0.5, np.finfo(np.float64).max]), 1)
    h = pg.SampleSet(np.array([0.1, 1e300]), 2)  # over half an ulp of the largest float
    with pytest.raises(InputError) as summed:
        density.add_samples(f, h)
    assert str(summed.value) == str(drawn.value)


def test_sample_values_do_not_depend_on_block_size(monkeypatch):
    f = Polynomial(3, {(1, 1, 1): 1.0, (2, 0, 0): -0.5, (0, 1, 0): 0.25, (0, 0, 0): 2.0})
    n = TWO_CHUNKS  # the default block size divides neither chunk
    want = pg.sample(f, n, seed=11).values
    for block_bytes in (1, 8 * f.n * 2 * SAMPLE_CHUNK):  # 4096 rows; whole chunks
        monkeypatch.setattr(density, "BLOCK_BYTES", block_bytes)
        for threads in (1, 2):
            monkeypatch.setattr(density, "THREADS", threads)
            got = pg.sample(f, n, seed=11).values
            assert np.array_equal(got, want), (block_bytes, threads)


def _pad(f: Polynomial, n: int, where) -> Polynomial:
    """f as a polynomial in n variables, its variable i at position where[i]."""
    terms = {}
    for exps, coef in f.terms.items():
        padded = [0] * n
        for i, e in zip(where, exps):
            padded[i] = e
        terms[tuple(padded)] = coef
    return Polynomial(n, terms)


@pytest.mark.parametrize("threads", [1, 2])
def test_unused_variables_change_no_value(monkeypatch, threads):
    monkeypatch.setattr(density, "THREADS", threads)
    f = Polynomial(3, {(1, 1, 1): 1.0, (2, 0, 0): -0.5, (0, 1, 0): 0.25, (0, 0, 0): 2.0})
    want = pg.sample(f, TWO_CHUNKS, seed=4).values
    for where in ((0, 1, 2), (1, 6, 13)):  # unused variables at the end; interleaved
        padded = pg.sample(_pad(f, 14, where), TWO_CHUNKS, seed=4).values
        assert np.array_equal(padded, want), where


def test_sample_checks_overflow_in_the_last_block(monkeypatch):
    f = monomial(2, (1, 1))
    evaluate = density.evaluate_batch

    def overflow_in_short_block(g, cols, out):
        evaluate(g, cols, out)
        if len(cols[0]) < 4096:  # only the last of 10_000 rows in 4096-row blocks
            out[-1] = np.inf
        return out

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


def _cli_peak_bytes(argv):
    with tempfile.TemporaryDirectory() as out:
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--out", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_cf_holds_one_array_of_samples(capsys):
    # the law is sorted in its draw buffer, so no sorted copy joins it
    n = 1_000_000
    f = Polynomial(3, {(1, 1, 0): 1.681, (0, 0, 2): 0.423})
    peak = _cli_peak_bytes(["cf", "--poly", dumps(f), "--samples", str(n), "--seed", "1"])
    assert peak < 1.75 * 8 * n


def test_modulus_holds_one_array_of_samples(capsys):
    # the law is sorted in its draw buffer, and samples.bin dumps that buffer
    n = 1_000_000
    peak = _cli_peak_bytes(["modulus", "--poly", dumps(Polynomial(2, {(1, 1): 1.0})),
                            "--samples", str(n), "--grid", "2048", "--seed", "3"])
    assert peak < 1.75 * 8 * n


def test_verify_all_member_holds_two_arrays_of_samples(capsys):
    # f and g, g summed into the buffer of 0.1 x1, each sorted in its own buffer
    n = 1_000_000
    peak = _cli_peak_bytes(["verify-all", "--n", "3", "--m", "1", "--d", "3",
                            "--count", "1", "--seed", "5", "--samples", str(n)])
    assert peak < 3 * 8 * n


def test_variance_holds_one_temporary_beside_the_samples(capsys):
    # the centred values are squared in place for the second and fourth moments
    n = 1_000_000
    f = Polynomial(2, {(1, 1): 1.0})
    peak = _cli_peak_bytes(["variance", "--poly", dumps(f), "--samples", str(n), "--seed", "3"])
    assert peak < 2.5 * 8 * n


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
    o = oracle_density("normal", h.lo, h.hi, h.size)
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


def _numpy_grid(values, size):
    """The grid ``quantile_grid`` must give, from ``np.quantile`` of the pooled
    values; None where it must raise ResolutionError."""
    q_lo, q_hi = np.quantile(values, [1e-4, 1 - 1e-4])
    if q_hi <= q_lo:
        return None
    step = (q_hi - q_lo) / (size - 4)
    return float(q_lo - 2.0 * step), float(step)


def _grid_or_none(sets, size):
    try:
        return pg.quantile_grid(sets, size)
    except ResolutionError:
        return None


def test_quantile_grid_sets_one_grid(x1_samples, x1sq_samples):
    grid = pg.quantile_grid([x1_samples, x1sq_samples], 400)
    hx = pg.histogram_density(x1_samples, 400, grid)
    hy = pg.histogram_density(x1sq_samples, 400, grid)
    assert (hx.lo, hx.step, hx.size) == (hy.lo, hy.step, hy.size)
    both = np.concatenate([x1_samples.values, x1sq_samples.values])
    assert grid == _numpy_grid(both, 400)
    q_lo, q_hi = np.quantile(both, [1e-4, 1 - 1e-4])
    assert hx.lo < q_lo and q_hi < hx.hi
    own = pg.histogram_density(x1_samples, 400, pg.quantile_grid([x1_samples], 400))
    assert np.array_equal(own.values, pg.histogram_density(x1_samples, 400).values)
    assert pg.quantile_grid([x1_samples], 400) == _numpy_grid(x1_samples.values, 400)
    with pytest.raises(ResolutionError, match="constant"):
        pg.quantile_grid([pg.SampleSet(np.ones(10), 0)], 64)


def _sample_sets(sizes, seed, levels):
    """One set per size; ``levels`` > 0 gives integer values in [0, levels),
    so ties, else normals of a random location and scale per set, so one set
    can hold a whole tail of the pool."""
    rng = np.random.default_rng(seed)
    if levels:
        return [pg.SampleSet(rng.integers(0, levels, n).astype(np.float64), k)
                for k, n in enumerate(sizes)]
    return [pg.SampleSet(rng.normal(rng.normal(0.0, 5.0), rng.lognormal(0.0, 2.0), n), k)
            for k, n in enumerate(sizes)]


# Pooled sizes up to 10^4 put both tail ranks (n - 1) 1e-4 below 1, and
# every size below 5001 interpolates the top quantile with g >= 0.5; the
# larger sizes move the bottom rank past 1, where g >= 0.5 happens too.
SIZES = st.one_of(st.integers(1, 5000), st.integers(5001, 40_000))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(sizes=st.lists(SIZES, min_size=1, max_size=2), seed=st.integers(0, 2**32 - 1),
       levels=st.sampled_from([0, 0, 2, 7, 1000]),
       q=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
@example(sizes=[1], seed=0, levels=0, q=0.5)
@example(sizes=[2, 1], seed=0, levels=0, q=0.5)  # g = 0.5 exactly
@example(sizes=[7501], seed=1, levels=0, q=0.25)  # (n - 1) 1e-4 = 0.75: bottom g >= 0.5
@example(sizes=[9000, 6001], seed=2, levels=3, q=0.9)  # ranks 1 and 14998 among ties
def test_quantile_grid_reads_numpy_quantiles(sizes, seed, levels, q):
    sets = _sample_sets(sizes, seed, levels)
    pooled = np.concatenate([s.values for s in sets])
    want = _numpy_grid(pooled, 64)
    assert _grid_or_none(sets, 64) == want
    assert _grid_or_none(sets[::-1], 64) == want
    assert density._quantile(sets, q) == np.quantile(pooled, q)


def test_quantile_at_g_one_half_rounds_like_numpy():
    # numpy takes b - (b - a)(1 - g) from g = 0.5 on, and here a + (b - a) g
    # rounds to another float
    sets = [pg.SampleSet(np.array([0.1]), 0), pg.SampleSet(np.array([-1.0]), 1)]
    assert density._quantile(sets, 0.5) == np.quantile([0.1, -1.0], 0.5) == -0.45000000000000007


def test_sorted_is_one_read_only_sort(x1_samples):
    s = pg.SampleSet(x1_samples.values[:5000], x1_samples.seed)
    first = s.sorted
    assert first is s.sorted
    assert np.array_equal(first, np.sort(s.values))
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0


def test_sort_puts_the_law_in_its_own_buffer(x1_samples):
    s = pg.SampleSet(x1_samples.values[:5000].copy(), x1_samples.seed)
    copy = s.sorted
    s.sort()
    assert s.sorted is s.values and s.values.tobytes() == copy.tobytes()
    assert not s.values.flags.writeable
    view = pg.SampleSet(x1_samples.values[:5000], x1_samples.seed)
    with pytest.raises(ValueError):  # x1_samples' buffer is read-only
        view.sort()


@pytest.mark.parametrize("name", ["x1_samples", "x1x2_samples"])
def test_estimators_read_a_law_sorted_in_place_as_its_sorted_copy(request, name):
    drawn = request.getfixturevalue(name)
    copied = pg.SampleSet(drawn.values.copy(), drawn.seed)
    in_place = pg.SampleSet(drawn.values.copy(), drawn.seed)
    in_place.sort()
    assert copied.values.tobytes() == drawn.values.tobytes()  # still in draw order
    assert in_place.sorted is in_place.values
    assert in_place.sorted.tobytes() == copied.sorted.tobytes()
    sets = (copied, in_place)
    assert len({pg.quantile_grid([s], 400) for s in sets}) == 1
    rho = [pg.histogram_density(s, 400) for s in sets]
    assert rho[0].values.tobytes() == rho[1].values.tobytes()
    assert (rho[0].lo, rho[0].clipped_mass, rho[0].l1_noise) == \
        (rho[1].lo, rho[1].clipped_mass, rho[1].l1_noise)
    xs = np.linspace(-3.0, 3.0, 101)
    assert pg.ecdf(copied)(xs).tobytes() == pg.ecdf(in_place)(xs).tobytes()
    params = pg.EnvelopeParams(m=1, d=1 if name == "x1_samples" else 2, lead=1.0)
    small = [pg.small_set_check(pg.ecdf(s), rho[0], params, (-0.6, math.inf)) for s in sets]
    assert small[0].to_json_dict() == small[1].to_json_dict()
    curves = [pg.ecf_modulus(s, pg.default_t_grid()) for s in sets]
    assert curves[0].modulus.tobytes() == curves[1].modulus.tobytes()
    assert curves[0].stderr.tobytes() == curves[1].stderr.tobytes()


def _floor_binned_histogram(values, lo, step, size):
    """Values and clipped mass with each value binned by floor((v - lo)/step)."""
    idx = np.floor((values - lo) / step).astype(np.int64)
    keep = (idx >= 0) & (idx < size)
    counts = np.bincount(idx[keep], minlength=size).astype(np.float64)
    return counts / (values.shape[0] * step), 1.0 - counts.sum() / values.shape[0]


@pytest.mark.parametrize("name", ["x1_samples", "x1x2_samples"])
@pytest.mark.parametrize("pooled", [False, True])
def test_histogram_one_pass_is_bit_identical(request, x1sq_samples, name, pooled):
    s = request.getfixturevalue(name)
    grid = pg.quantile_grid([s, x1sq_samples], 400) if pooled else None
    rho = pg.histogram_density(s, 400, grid)
    values, clipped = _floor_binned_histogram(s.values, rho.lo, rho.step, rho.size)
    assert rho.values.tobytes() == values.tobytes()
    assert rho.clipped_mass == clipped
    if pooled:
        assert rho.clipped_mass > 0.0  # the pooled grid cuts off part of s


def test_histogram_counts_half_open_cells_at_the_computed_edges():
    lo, step, size = -1.0, 0.25, 16
    rng = np.random.default_rng(3)
    edges = lo + step * np.arange(size + 1)
    outside = [lo - step, lo + step * (size + 1), 1e300, -1e300]  # one cell past each end
    values = rng.permutation(np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        rng.normal(1.0, 0.5, 100_000), outside]))  # within 4 sd of the grid
    assert values.shape[0] % 2 == 1
    rho = pg.histogram_density(pg.SampleSet(values, 0), size, (lo, step))
    want = np.array([np.count_nonzero((edges[i] <= values) & (values < edges[i + 1]))
                     for i in range(size)])
    assert np.array_equal(rho.values, want / (values.shape[0] * step))
    off = np.count_nonzero((values < edges[0]) | (values >= edges[-1]))
    assert rho.clipped_mass == pytest.approx(off / values.shape[0], rel=1e-12)


@pytest.mark.parametrize("size", [400, 2048])
def test_histogram_noise_is_the_expected_l1_deviation(x1_samples, size):
    p = np.array([0.3, 0.5, 0.013])
    k = np.arange(101)[:, None]
    exact = (binom.pmf(k, 100, p) * np.abs(k - 100 * p)).sum(axis=0)
    assert binomial_mean_abs_deviation(100, p) == pytest.approx(exact, rel=1e-12)
    rho = pg.histogram_density(x1_samples, size)
    n = x1_samples.count
    cells = np.diff(ndtr(rho.lo + rho.step * np.arange(size + 1)))
    want = binomial_mean_abs_deviation(n, cells).sum() / n
    assert rho.l1_noise == pytest.approx(want, rel=0.01)


def test_oracle_normal_point_value():
    o = oracle_density("normal", -4.0, 4.0, 2048)
    at0 = o.values[o.size // 2]
    assert at0 == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-4)


def test_oracle_chisq_point_value():
    o = oracle_density("chisq1", 0.0, 16.0, 4096)
    idx = int((1.0 - o.lo) / o.step)
    want = math.exp(-0.5) / math.sqrt(2 * math.pi)  # 0.2420
    assert o.values[idx] == pytest.approx(want, rel=5e-3)


def test_oracle_product_matches_histogram(x1x2_samples):
    h = pg.histogram_density(x1x2_samples, 400)
    o = oracle_density("product_normal", h.lo, h.hi, h.size)
    idx = int((1.0 - o.lo) / o.step)
    assert abs(h.values[idx] - o.values[idx]) <= 0.01
    assert h.step * np.abs(h.values - o.values).sum() <= 0.02


@pytest.mark.parametrize("size", [16, 32, 64, 128])
def test_oracle_product_coarse_grids_sum_the_fine_one(product_oracle, size):
    # an edge at 0 in a cell far wider than the series range; each coarse
    # cell holds the mass of the fine cells it covers
    coarse = oracle_density("product_normal", -9.0, 9.0, size)
    fine = product_oracle.values.reshape(size, -1).sum(axis=1) * product_oracle.step
    assert np.abs(coarse.values * coarse.step - fine).max() <= 1e-8
    assert coarse.mass == pytest.approx(product_oracle.mass, abs=1e-12)


def test_oracle_unknown_kind():
    with pytest.raises(InputError, match="unknown density kind"):
        oracle_density("cauchy", -1, 1, 64)


# sha256 of the values of the three session-fixture grids, recorded when the
# closed forms still lived in the package: moving them changed no bit
ORACLE_DIGESTS = {
    "normal_oracle": "7b1cf7a65f89d2d7ae8209f7d13b2483ddcc44d73f3d253c53143f91ec881ed6",
    "chisq_oracle": "2c468de6c7ebb7b532a86fe53e95e4c6c8489ab3bf3664280484e2a8b2d1029c",
    "product_oracle": "8bd0c1aa135c45c90d8eb6308347964513414d4c4519b0e12230cf432e8ce556",
}


@pytest.mark.parametrize("fixture", sorted(ORACLE_DIGESTS))
def test_oracle_grids_keep_their_bits(request, fixture):
    o = request.getfixturevalue(fixture)
    assert o.size == 2048
    assert hashlib.sha256(o.values.tobytes()).hexdigest() == ORACLE_DIGESTS[fixture]


def test_product_pdf_quadrature_cross_check():
    xs = np.array([0.02, 0.1, 0.5, 1.0, 2.5, 6.0])
    assert np.allclose(product_normal_pdf(xs), k0(xs) / np.pi, rtol=1e-10)


def test_ecdf(x1_samples):
    cdf = pg.ecdf(x1_samples)
    assert cdf(x1_samples.values.min() - 1.0) == 0.0
    assert cdf(x1_samples.values.max() + 1.0) == 1.0
    n = x1_samples.count
    assert abs(cdf(0.0) - 0.5) <= 4.0 / (2.0 * math.sqrt(n))
    assert cdf(1.0) - cdf(-1.0) == pytest.approx(2 * ndtr(1.0) - 1.0, abs=0.005)


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
