import math

import numpy as np
import pytest

import polygauss as pg
from polygauss.density import SampleSet
from polygauss.errors import InputError, ResolutionError
from polygauss.poly import Polynomial, monomial, scale

from oracles import ecf_direct, quadratic_cf


def truncation_bound(curve, n):
    """The part of the stated stderr above the Monte Carlo error 1/sqrt(N)."""
    return curve.stderr - 1.0 / math.sqrt(n)


@pytest.fixture(scope="module")
def wide_samples():
    """A degree-3 law with coefficients up to 120.6, values within about +-1300."""
    f = Polynomial(3, {(0, 1, 0): 120.6, (1, 1, 0): -75.1, (1, 0, 1): 33.0,
                       (0, 0, 1): -8.5, (1, 1, 1): -1.0})
    return pg.sample(f, 200_000, seed=12)


def test_modulus_near_zero_t(x1_samples):
    curve = pg.ecf_modulus(x1_samples, [1e-6])
    assert curve.modulus[0] == pytest.approx(1.0, abs=1e-4)


def test_oracle_values_at_unit_t(x1_samples, x1sq_samples, x1x2_samples):
    tol = 4.0 / math.sqrt(x1_samples.count)
    got = pg.ecf_modulus(x1_samples, [1.0]).modulus[0]
    assert got == pytest.approx(math.exp(-0.5), abs=tol)
    got = pg.ecf_modulus(x1sq_samples, [1.0]).modulus[0]
    assert got == pytest.approx(5.0 ** -0.25, abs=tol)
    got = pg.ecf_modulus(x1x2_samples, [1.0]).modulus[0]
    assert got == pytest.approx(2.0 ** -0.5, abs=tol)


def test_conjugate_symmetry(x1x2_samples):
    # the law of -v has the conjugate characteristic function; its samples
    # fall into other bins, so the two curves agree within their bounds
    v = x1x2_samples.values
    plus = pg.ecf_modulus(SampleSet(v, 0), [0.7, 3.0, 40.0])
    minus = pg.ecf_modulus(SampleSet(-v, 0), [0.7, 3.0, 40.0])
    bound = truncation_bound(plus, v.size) + truncation_bound(minus, v.size)
    assert np.all(bound > 0)
    assert np.all(np.abs(plus.modulus - minus.modulus) <= bound)


def test_binned_sum_within_bound_of_direct_sum(x1_samples, x1sq_samples, x1x2_samples):
    ts = pg.default_t_grid(0.01, 1e3, 4)
    for s in (x1_samples, x1sq_samples, x1x2_samples):
        curve = pg.ecf_modulus(s, ts)
        bound = truncation_bound(curve, s.count)
        assert np.all(bound > 0)  # every t is binned
        assert np.all(np.abs(curve.modulus - ecf_direct(s, ts)) <= bound)
        assert np.all((curve.stderr * math.sqrt(s.count) >= 1.0)
                      & (curve.stderr * math.sqrt(s.count) <= 1.001))


def test_wide_law_mixes_binned_and_direct_sums(wide_samples):
    s = wide_samples
    ts = pg.default_t_grid(0.01, 1e3, 4)
    curve = pg.ecf_modulus(s, ts)
    # both paths sum the sorted values, so the direct t's match bit for bit
    want = ecf_direct(SampleSet(np.sort(s.values), s.seed), ts)
    bound = truncation_bound(curve, s.count)
    binned = bound > 0
    assert binned.any() and not binned.all()
    assert np.all(np.abs(curve.modulus - want)[binned] <= bound[binned])
    assert np.array_equal(curve.modulus[~binned], want[~binned])
    assert np.all(curve.stderr * math.sqrt(s.count) <= 1.001)


def test_dense_bins_take_the_direct_sum():
    # 10^4 samples spread over a width of ~400: at t >= 20 the bins are
    # nearly all occupied, more than N/(p+1) of them
    s = pg.sample(scale(monomial(1, (1,)), 50.0), 10_000, seed=6)
    ts = pg.default_t_grid(20.0, 1e3, 8)
    curve = pg.ecf_modulus(s, ts)
    assert np.all(curve.stderr == 1.0 / math.sqrt(s.count))
    assert np.array_equal(curve.modulus, ecf_direct(SampleSet(np.sort(s.values), s.seed), ts))


def test_curve_does_not_depend_on_sample_order(wide_samples):
    s = wide_samples
    shuffled = SampleSet(np.random.default_rng(0).permutation(s.values), s.seed)
    ts = pg.default_t_grid(0.01, 1e3, 4)
    a, b = pg.ecf_modulus(s, ts), pg.ecf_modulus(shuffled, ts)
    assert np.array_equal(a.modulus, b.modulus)
    assert np.array_equal(a.stderr, b.stderr)


def test_phase_beyond_float_resolution_rejected():
    # t * range = 1e17: the finest bins would number more than 2^52
    s = SampleSet(np.linspace(0.0, 1e14, 20_000), 0)
    with pytest.raises(InputError, match="2\\^52"):
        pg.ecf_modulus(s, [1e3])
    assert pg.ecf_modulus(s, [1.0]).modulus.shape == (1,)


def test_non_finite_inputs_rejected(x1_samples):
    for ts in ([math.inf], [math.nan], [1.0, math.inf], []):
        with pytest.raises(InputError):
            pg.ecf_modulus(x1_samples, ts)
    with pytest.raises(InputError):
        pg.ecf_modulus(SampleSet(np.append(x1_samples.values[:20_000], math.nan), 0), [1.0])
    with pytest.raises(InputError):
        pg.CfCurve(np.array([1.0]), np.array([math.nan]), np.array([0.01]))
    with pytest.raises(InputError):
        pg.CfCurve(np.array([1.0]), np.array([0.5]), np.array([math.inf]))


def test_moduli_below_one_plus_noise(x1x2_samples):
    curve = pg.ecf_modulus(x1x2_samples, pg.default_t_grid(0.1, 100.0, 8))
    assert np.all(curve.modulus <= 1.0 + 4.0 * curve.stderr)


def test_requires_enough_samples():
    s = pg.sample(monomial(1, (1,)), 5_000, seed=3)
    with pytest.raises(InputError):
        pg.ecf_modulus(s, [1.0])
    with pytest.raises(InputError):
        pg.ecf_modulus(pg.sample(monomial(1, (1,)), 20_000, seed=3), [-1.0])


def test_decay_slope_product_case(x1x2_samples):
    curve = pg.ecf_modulus(x1x2_samples, pg.default_t_grid(10.0, 1e3, 16))
    floor = 5.0 / math.sqrt(x1x2_samples.count)
    keep = curve.modulus >= floor
    slope = np.polyfit(np.log(curve.t[keep]), np.log(curve.modulus[keep]), 1)[0]
    assert -1.1 <= slope <= -0.9


def test_decay_check_oracles(x1_samples, x1sq_samples, x1x2_samples):
    cases = [
        (x1_samples, pg.EnvelopeParams(m=1, d=1)),
        (x1sq_samples, pg.EnvelopeParams(m=2, d=2)),
        (x1x2_samples, pg.EnvelopeParams(m=1, d=2)),
    ]
    for s, p in cases:
        curve = pg.ecf_modulus(s, pg.default_t_grid())
        report = pg.cf_decay_check(curve, p)
        assert report.verdict
        assert report.fitted_constant > 0


def test_decay_check_square_ratio_limit(x1sq_samples):
    # |ecf| = (1 + 4 t^2)^(-1/4) against envelope t^(-1/2): ratio tends to 2^(-1/2)
    curve = pg.ecf_modulus(x1sq_samples, pg.default_t_grid())
    report = pg.cf_decay_check(curve, pg.EnvelopeParams(m=2, d=2))
    assert report.fitted_constant == pytest.approx(2.0 ** -0.5, abs=0.05)
    assert abs(report.extras["ratio_slope"]) <= 0.1


def test_insufficient_decay_all_noise():
    s = pg.sample(scale(monomial(1, (1,)), 50.0), 10_000, seed=4)
    curve = pg.ecf_modulus(s, pg.default_t_grid(0.1, 100.0, 8))
    with pytest.raises(ResolutionError, match="less than a decade"):
        pg.cf_decay_check(curve, pg.EnvelopeParams(m=1, d=1, lead=50.0))


def test_trend_skipped_for_fast_decay():
    # wide near-Gaussian law probed with unit leading magnitude: the modulus
    # dies at t ~ 1/3 and almost no probes survive in the fit regime t >= 1
    s = pg.sample(scale(monomial(1, (1,)), 3.0), 200_000, seed=5)
    curve = pg.ecf_modulus(s, pg.default_t_grid(0.01, 1e3))
    report = pg.cf_decay_check(curve, pg.EnvelopeParams(m=1, d=2, lead=1.0))
    assert report.verdict
    assert report.extras["ratio_slope"] is None


def test_decay_margin_is_slope_below_tolerance(x1_samples, x1sq_samples):
    cases = [
        (x1_samples, pg.default_t_grid(), pg.EnvelopeParams(m=1, d=1)),
        (x1sq_samples, pg.default_t_grid(), pg.EnvelopeParams(m=2, d=2)),
        (pg.sample(scale(monomial(1, (1,)), 3.0), 200_000, seed=5),
         pg.default_t_grid(0.01, 1e3), pg.EnvelopeParams(m=1, d=2, lead=1.0)),
    ]
    slopes = []
    for s, ts, p in cases:
        report = pg.cf_decay_check(pg.ecf_modulus(s, ts), p)
        slope = report.extras["ratio_slope"]
        slopes.append(slope)
        expected = math.inf if slope is None else report.extras["slope_tol"] - slope
        assert report.worst_margin == expected
    assert slopes[0] is not None and slopes[-1] is None


def test_decay_exponents():
    assert pg.decay_exponents(pg.EnvelopeParams(m=1, d=2), 2) == (1.0, 1.0)
    assert pg.decay_exponents(pg.EnvelopeParams(m=2, d=2), 4) == (0.0, 4.5)
    assert pg.decay_exponents(pg.EnvelopeParams(m=1, d=3), 10) == (2.0, 12.5)


@pytest.mark.parametrize("m, d, t, message", [
    (1, 1, 0.1, "not finite and positive"),  # a t = 1e-321: the power is infinite
    (1, 2, 1e-5, "overflows"),  # a t underflows to 0, so its log is infinite
])
def test_cf_envelope_not_finite_and_positive_is_an_input_error(m, d, t, message):
    with pytest.raises(InputError, match=message):
        pg.cf_envelope(pg.EnvelopeParams(m=m, d=d, lead=1e-320), t)


def _chain(n: int):
    """The chain sum_i x_i x_(i+1) plus 0.3 x_1 in n variables, as a
    polynomial and as the (A, b) of x^T A x + b^T x."""
    terms, a, b = {}, np.zeros((n, n)), np.zeros(n)
    for i in range(n - 1):
        exps = [0] * n
        exps[i] = exps[i + 1] = 1
        terms[tuple(exps)] = 1.0
        a[i, i + 1] = a[i + 1, i] = 0.5
    terms[(1,) + (0,) * (n - 1)] = 0.3
    b[0] = 0.3
    return Polynomial(n, terms), a, b


def test_quadratic_cf_closed_forms():
    t = pg.default_t_grid(0.01, 100.0, 8)
    assert np.allclose(quadratic_cf([[1.0]], [0.0], t), (1 + 4 * t**2) ** -0.25, rtol=1e-12)
    assert np.allclose(quadratic_cf([[0.0]], [2.0], t), np.exp(-2 * t**2), rtol=1e-12)
    _, a, b = _chain(2)
    assert np.allclose(quadratic_cf(a, 0 * b, t), (1 + t**2) ** -0.5, rtol=1e-12)  # x1 x2


@pytest.mark.parametrize("n", [2, 8])
def test_ecf_within_4_stderr_of_the_exact_quadratic_cf(n):
    # a law that is no sum of independent pieces in its variables
    f, a, b = _chain(n)
    curve = pg.ecf_modulus(pg.sample(f, 1_000_000, seed=1), pg.default_t_grid(lo=0.01))
    gap = np.abs(curve.modulus - quadratic_cf(a, b, curve.t)) / curve.stderr
    assert gap.max() <= 4.0


@pytest.mark.parametrize("m,d,passes,slope", [
    (2, 2, True, 0.003),
    (1, 2, False, 0.239),
    (1, 1, False, 0.503),
])
def test_decay_check_verdicts_on_the_exact_square_cf(m, d, passes, slope):
    # |phi| of x1^2 is (1 + 4 t^2)^(-1/4), which decays as t^(-1/2): the
    # (m, d) = (2, 2) envelope holds, and the m = 1 envelopes claim a decay
    # that is too fast, so the ratio trends upward
    t = pg.default_t_grid()
    curve = pg.CfCurve(t, quadratic_cf([[1.0]], [0.0], t), np.full(t.shape, 1e-3))
    report = pg.cf_decay_check(curve, pg.EnvelopeParams(m=m, d=d, lead=1.0))
    assert report.verdict == passes
    assert report.extras["ratio_slope"] == pytest.approx(slope, abs=5e-4)
    assert (report.worst_margin > 0) == passes
