import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import polygauss as pg
from polygauss.cli import MC_SLOPE_RANGE
from polygauss.errors import InputError, ResolutionError
from polygauss.functionals import (
    ModulusCurve,
    _shift_moduli,
    boundary_correction,
    density_budget,
    geometric_grid,
    max_shift_index,
)

from oracles import oracle_density


def gauss_shift_l1(h):
    """Closed form for the L1 distance between the standard normal density
    and its shift by h."""
    return 4.0 * ndtr(h / 2.0) - 2.0


# --- shift modulus ------------------------------------------------------------


def test_shift_modulus_gaussian_closed_form(normal_oracle):
    for eps in (0.05, 0.1, 0.2, 0.5):
        got = pg.shift_modulus_curve(normal_oracle, [eps]).values[0]
        assert got == pytest.approx(gauss_shift_l1(eps), abs=0.003)


def test_shift_modulus_saturates_at_span(normal_oracle):
    got = pg.shift_modulus_curve(normal_oracle, [20.0]).values[0]
    assert got == pytest.approx(2.0 * normal_oracle.mass, abs=1e-9)


def test_shift_modulus_monotone(normal_oracle):
    eps = np.geomspace(0.01, 2.0, 25)
    vals = [pg.shift_modulus_curve(normal_oracle, [e]).values[0] for e in eps]
    assert np.all(np.diff(vals) >= 0)


def test_shift_modulus_resolution_guard(normal_oracle):
    with pytest.raises(ResolutionError, match="below resolution"):
        pg.shift_modulus_curve(normal_oracle, [normal_oracle.step * 1.5])


def test_probe_grid_range_errors():
    wide = oracle_density("normal", -5.0, 5.0, 16)  # step 0.625 > 1/2
    with pytest.raises(ResolutionError, match="leaves no probe below 1.0"):
        pg.default_probe_grid(wide)
    # empty ranges, ranges spanning infinitely many decades, and too many points
    for lo, hi, per_decade in [(1.0, 1.0, 16), (-0.1, 1.0, 16), (1e-320, 1.0, 16),
                               (0.1, math.inf, 16), (0.1, math.nan, 16),
                               (0.1, 1e3, 10**12)]:
        with pytest.raises(InputError):
            pg.default_t_grid(lo, hi, per_decade)


def test_geometric_grid_shared_by_probe_and_t_grids(normal_oracle):
    g = geometric_grid(0.01, 1.0, 12)
    assert g.size == 25 and (g[0], g[-1]) == (0.01, 1.0)
    assert geometric_grid(1.0, 1.01, 1).size == 2
    assert np.array_equal(pg.default_t_grid(0.1, 1e3, 16), geometric_grid(0.1, 1e3, 16))
    assert np.array_equal(
        pg.default_probe_grid(normal_oracle),
        geometric_grid(2.0 * normal_oracle.step, 1.0, 12),
    )


def test_shift_curve_snaps_to_realized_shifts(normal_oracle):
    curve = pg.shift_modulus_curve(normal_oracle, [0.05, 0.0501, 0.1])
    ks = np.round(curve.eps / normal_oracle.step)
    assert np.allclose(curve.eps, ks * normal_oracle.step)
    assert len(curve.eps) == 2  # 0.05 and 0.0501 snap to the same shift


# --- dual modulus ---------------------------------------------------------------


def uniform_grid(size):
    return pg.GriddedDensity(0.0, 1.0 / size, np.ones(size))


def test_dual_modulus_uniform_oracle():
    rho = uniform_grid(100)
    for eps in (0.1, 0.2, 0.5, 1.0, 10.0):
        got = pg.dual_modulus(rho, eps)
        assert abs(got - min(2 * eps, 1.0)) <= 2.0 * rho.step


def test_dual_modulus_upper_bound(normal_oracle, chisq_oracle):
    for rho in (normal_oracle, chisq_oracle):
        assert pg.dual_modulus(rho, 50.0) <= 2.0 + 1e-9


def test_dual_modulus_zero_eps(normal_oracle):
    assert pg.dual_modulus(normal_oracle, 0.0) == 0.0


def test_dual_modulus_matches_vertex_enumeration_small_grids():
    from polygauss.functionals import _telescoped_weights
    from oracles import brute_force_chain_lp

    rng = np.random.default_rng(31)
    for size in (6, 9, 12):
        vals = rng.exponential(size=size)
        step = 1.0 / size
        rho = pg.GriddedDensity(0.0, step, vals / (vals.sum() * step))
        w = _telescoped_weights(rho.values)
        for eps in (0.5 * step, 2.0 * step, 0.3, 1.0):
            assert pg.dual_modulus(rho, eps) == pytest.approx(
                brute_force_chain_lp(w, eps, step), abs=1e-9
            )


def test_dual_modulus_flat_past_the_grid_span():
    # The objective reads only differences of phi, which span at most
    # size * step; once the box holds that span, sigma is the closed form
    # step * (sum of all values), every difference at +step.
    from polygauss.functionals import _telescoped_weights
    from polygauss.lp import solve_chain_lp

    rng = np.random.default_rng(5)
    size = 400
    for step in (1e-3, 2.5e-229):
        vals = rng.exponential(size=size)
        rho = pg.GriddedDensity(0.0, step, vals / (vals.sum() * step))
        closed = step * float(rho.values.sum())
        probes = [0.5 * size * step, size * step, 0.5, 10.0]
        for eps in probes:
            assert pg.dual_modulus(rho, eps) == pytest.approx(closed, rel=1e-12)
        curve = pg.dual_modulus_curve(rho, probes)
        assert curve.values == pytest.approx(closed, rel=1e-12)
        if step == 1e-3:  # here the unclamped LP is accurate, and flat too
            w = _telescoped_weights(rho.values)
            assert solve_chain_lp(w, 10.0, step) == pytest.approx(closed, rel=1e-9)


def test_dual_modulus_reads_the_last_cell():
    # a density whose whole mass sits in the last cell: the LP has a node past
    # that cell, so phi can rise across it, as it can once an empty cell follows
    size, step = 16, 0.1
    spike = np.zeros(size)
    spike[-1] = 1.0 / step
    rho = pg.GriddedDensity(0.0, step, spike)
    padded = pg.GriddedDensity(0.0, step, np.append(spike, 0.0))
    for eps in (0.2, 0.5):
        assert pg.dual_modulus(rho, eps) > 0.0
        assert pg.dual_modulus(rho, eps) == pg.dual_modulus(padded, eps)


def test_dual_curve_monotone_concave(normal_oracle):
    eps = np.geomspace(0.02, 1.0, 20)
    curve = pg.dual_modulus_curve(normal_oracle, eps)
    vals = curve.values
    assert np.all(np.diff(vals) >= -1e-9)
    # concavity on the geometric grid, checked against linear interpolation
    for i in range(1, len(eps) - 1):
        lam = (eps[i] - eps[i - 1]) / (eps[i + 1] - eps[i - 1])
        chord = (1 - lam) * vals[i - 1] + lam * vals[i + 1]
        assert vals[i] >= chord - 1e-9


def test_scaling_identity_oracles():
    base = oracle_density("normal", -4.0, 4.0, 1024)
    for alpha in (2.0, 5.0):
        scaled = oracle_density("normal", -4.0 * alpha, 4.0 * alpha, 1024, sigma=alpha)
        for t in (0.1, 0.5, 1.0):
            lhs = pg.dual_modulus(scaled, t)
            rhs = pg.dual_modulus(base, t / alpha)
            budget = density_budget(base) + density_budget(scaled)
            assert abs(lhs - rhs) <= budget + 1e-9


def test_scaling_identity_chisq(chisq_oracle):
    # the law of 2 W: cell averages halve on a grid twice as wide
    scaled = pg.GriddedDensity(
        2.0 * chisq_oracle.lo, 2.0 * chisq_oracle.step, chisq_oracle.values / 2.0,
        chisq_oracle.clipped_mass,
    )
    for t in (0.1, 0.4):
        lhs = pg.dual_modulus(scaled, t)
        rhs = pg.dual_modulus(chisq_oracle, t / 2.0)
        assert abs(lhs - rhs) <= density_budget(chisq_oracle) * 2 + 1e-9


# --- equivalence of the moduli ---------------------------------------------------


def test_equivalence_oracles(normal_oracle, chisq_oracle, product_oracle):
    for rho in (normal_oracle, chisq_oracle, product_oracle):
        probes = pg.default_probe_grid(rho)
        report = pg.modulus_equivalence_check(rho, pg.dual_modulus_curve(rho, probes))
        assert report.verdict
        assert all(r.margin >= -r.budget for r in report.rows)


def test_equivalence_monte_carlo(x1x2_samples):
    h = pg.histogram_density(x1x2_samples, 400)
    report = pg.modulus_equivalence_check(h, pg.dual_modulus_curve(h, pg.default_probe_grid(h)))
    assert report.verdict


def test_equivalence_near_dirac_flags_budget():
    rho = oracle_density("normal", -0.01, 0.01, 256, sigma=0.001)
    probes = geometric_grid(1e-3, 0.005, 12)
    report = pg.modulus_equivalence_check(rho, pg.dual_modulus_curve(rho, probes))
    assert report.verdict
    assert report.extras["budget_base"] > 0.01  # large budget is surfaced


def test_equivalence_rows_are_the_lower_half(normal_oracle):
    sigma = pg.dual_modulus_curve(normal_oracle, [0.05, 0.1])
    report = pg.modulus_equivalence_check(normal_oracle, sigma)
    omega_2eps = pg.shift_modulus_curve(normal_oracle, 2.0 * sigma.eps).values
    assert [r.eps for r in report.rows] == list(sigma.eps)
    assert [r.lhs for r in report.rows] == list(0.5 * omega_2eps)
    assert [r.rhs for r in report.rows] == list(sigma.values)


# Nonnegative cell vectors on four steps, normalised to unit mass, and
# probes eps = t * step: the vectors are what any histogram or closed form
# can hand the moduli.
CELLS = st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=2, max_size=200).filter(
    lambda v: sum(v) > 0)
STEPS = st.sampled_from([1e-3, 0.01, 0.05, 0.2])


def grid_density(cells, step):
    v = np.array(cells)
    return pg.GriddedDensity(0.0, step, v / (v.sum() * step))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cells=CELLS, step=STEPS, t=st.floats(2.0, 500.0))
def test_dual_modulus_below_proved_multiple_of_shift_modulus(cells, step, t):
    # sigma(eps) <= (1 + eps/(k step)) omega(k step), k = floor(eps/step) >= 2,
    # with zero budget: a theorem of the grid objects (CHANGES.md has the proof)
    rho = grid_density(cells, step)
    eps = t * step
    k = max_shift_index(rho, eps)
    bound = (1.0 + eps / (k * step)) * _shift_moduli(rho, [k])[0]
    assert pg.dual_modulus(rho, eps) <= bound


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cells=CELLS, step=STEPS, t=st.floats(2.0, 500.0))
def test_dual_modulus_above_half_the_shift_modulus(cells, step, t):
    # omega(2 eps)/2 <= sigma(eps) within float rounding, the check's row with
    # zero budget; it needs the LP node past the last cell
    rho = grid_density(cells, step)
    eps = t * step
    omega = _shift_moduli(rho, [max_shift_index(rho, 2.0 * eps)])[0]
    assert 0.5 * omega <= pg.dual_modulus(rho, eps) + 1e-12


# --- small-ball law ----------------------------------------------------------------


def _samples(kind: int, n: int, seed: int) -> pg.SampleSet:
    """Normals, atoms with a little spread, a spike plus normals, or Cauchy draws."""
    r = np.random.default_rng(seed)
    if kind == 0:
        v = r.normal(size=n)
    elif kind == 1:
        v = r.integers(0, 5, n) + (r.uniform(size=n) < 0.3) * r.normal(size=n)
    elif kind == 2:
        v = np.where(r.uniform(size=n) < 0.5, 0.0, r.normal(size=n))
    else:
        v = r.standard_cauchy(size=n)
    return pg.SampleSet(v, seed)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(kind=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), size=st.integers(16, 400),
       t=st.floats(2.0, 480.0), u=st.floats(0.0, 1.0))
def test_interval_mass_below_dual_modulus(kind, seed, size, t, u):
    # P(a < W <= b) <= sigma(rho, b - a) + clipped mass for b - a >= 2 step,
    # ECDF and histogram of one sample: the clamp phi = clamp(x - (a+b)/2,
    # -L/2, L/2) on the cells (a, b] meets (CHANGES.md).  The 1e-12 is float
    # rounding where (a, b] holds every value.
    s = _samples(kind, 16_000, seed)  # enough that Cauchy tails clip under 1e-3
    rho = pg.histogram_density(s, size)
    cdf = pg.ecdf(s)
    length = min(t, 1.2 * size) * rho.step
    a = rho.lo - length + u * (rho.hi - rho.lo + length)
    p_hat = cdf(a + length) - cdf(a)
    assert p_hat <= pg.dual_modulus(rho, length) + rho.clipped_mass + 1e-12


def centred_density(s: pg.SampleSet, size: int, half_span: float) -> pg.GriddedDensity:
    """Histogram of ``s`` on an odd cell count whose middle cell is centred
    on 0, the densest cell of the laws of x1^m."""
    step = 2.0 * half_span / size
    return pg.histogram_density(s, size, (-0.5 * size * step, step))


SYMMETRIC = (-0.15, 0.15)


def test_small_set_gaussian():
    # x1^m at c = 0 for m = 1, 2, 3: P(|x1|^m <= eps/2) ~ 2 phi(0) (eps/2)^(1/m),
    # the envelope's exponent, so the ratio is flat on the symmetric window.
    # A wrong power cap moves the exponent: x1 claimed m = 2 by -0.5, x1^2
    # claimed m = 1 by +0.5, x1^3 claimed m = 1 by +2/3; each fails.
    wrong = {1: 2, 2: 1, 3: 1}
    for m in (1, 2, 3):
        s = pg.sample(pg.monomial(1, (m,)), 10**6, seed=40 + m)
        rho = centred_density(s, 401, 4.5 ** m)
        report = pg.small_set_check(pg.ecdf(s), rho, pg.EnvelopeParams(m=m, d=m), SYMMETRIC)
        # x1's top is flat, so noise picks its sharpest run among those near 0
        assert abs(report.extras["centre"]) <= (0.1 if m == 1 else report.rows[0].eps)
        assert report.verdict, (m, report.extras["ratio_slope"])
        assert abs(report.extras["ratio_slope"]) <= 0.1
        assert report.rows[0].lhs == pytest.approx(1000 / s.count, rel=0.01)
        assert report.rows[-1].lhs == pytest.approx(10_000 / s.count, rel=0.01)
        w = wrong[m]
        bad = pg.small_set_check(pg.ecdf(s), rho, pg.EnvelopeParams(m=w, d=w), SYMMETRIC)
        assert not bad.verdict
        assert bad.extras["ratio_slope"] == pytest.approx(
            report.extras["ratio_slope"] + 1 / m - 1 / w, abs=1e-9)


def test_small_set_one_sided_window_fails_a_false_m1_claim():
    # x1^3 has exponent 1/3: claimed m = 1, its ratio slope is -2/3, below
    # the Monte Carlo window's lower end -0.6; claimed m = 3 it passes
    s = pg.sample(pg.monomial(1, (3,)), 10**6, seed=51)
    rho, cdf = centred_density(s, 401, 4.5 ** 3), pg.ecdf(s)
    bad = pg.small_set_check(cdf, rho, pg.EnvelopeParams(m=1, d=1), MC_SLOPE_RANGE)
    assert not bad.verdict and bad.worst_margin < 0
    assert pg.small_set_check(cdf, rho, pg.EnvelopeParams(m=3, d=3), MC_SLOPE_RANGE).verdict


def test_small_set_trivial_cases(x1_samples):
    params = pg.EnvelopeParams(m=1, d=1)
    # both ends come from the sample, so a coarse grid on a small one works
    few = pg.SampleSet(x1_samples.values[:20_000], x1_samples.seed)
    report = pg.small_set_check(pg.ecdf(few), pg.histogram_density(few, 400), params,
                                MC_SLOPE_RANGE)
    assert report.verdict and len(report.rows) >= 12
    # fewer samples than the largest ball holds
    tiny = pg.SampleSet(x1_samples.values[:9_999], x1_samples.seed)
    with pytest.raises(ResolutionError, match="needs 10000 samples"):
        pg.small_set_check(pg.ecdf(tiny), pg.histogram_density(tiny, 16), params, SYMMETRIC)
    # an atom of 1000 samples: the smallest ball has width 0
    atom = pg.SampleSet(np.concatenate([np.zeros(1000), x1_samples.values[:20_000]]), 0)
    with pytest.raises(ResolutionError, match="fewer than 3"):
        pg.small_set_check(pg.ecdf(atom), pg.histogram_density(atom, 64), params, SYMMETRIC)


# --- envelope ---------------------------------------------------------------------


def test_envelope_value_examples():
    p = pg.EnvelopeParams(m=1, d=2)
    assert pg.modulus_envelope(p, math.exp(-1)) == pytest.approx(2 * math.exp(-1))
    p = pg.EnvelopeParams(m=3, d=3, lead=5.0)
    assert pg.modulus_envelope(p, 5.0) == pytest.approx(1.0)
    p = pg.EnvelopeParams(m=2, d=3, lead=2.0)
    assert pg.modulus_envelope(p, 2 * math.exp(-2)) == pytest.approx(3 * math.exp(-1))


@pytest.mark.parametrize("bias", [-1e308, -math.inf, math.inf, math.nan])
def test_envelope_not_finite_and_positive_is_an_input_error(bias):
    # below eps = a the first two give an infinite envelope, the last two 0 and NaN
    with pytest.raises(InputError, match="not finite and positive"):
        pg.modulus_envelope(pg.EnvelopeParams(m=1, d=2), 0.1, exponent_bias=bias)


def test_envelope_fit_self_consistency():
    p = pg.EnvelopeParams(m=2, d=3)
    eps = np.geomspace(1e-3, 0.1, 20)
    vals = np.array([pg.modulus_envelope(p, e) for e in eps])
    curve = ModulusCurve(eps, vals)
    report = pg.envelope_check(curve, p)
    assert report.fitted_constant == pytest.approx(1.0)
    assert report.extras["ratio_slope"] == pytest.approx(0.0, abs=1e-9)
    assert report.extras["slope_adjusted"] == pytest.approx(0.5, abs=1e-12)


def test_envelope_gaussian_constant(normal_oracle):
    curve = pg.shift_modulus_curve(normal_oracle, np.geomspace(0.01, 0.1, 13))
    report = pg.envelope_check(curve, pg.EnvelopeParams(m=1, d=1))
    assert report.fitted_constant == pytest.approx(math.sqrt(2 / math.pi), abs=0.005)
    assert 0.97 <= report.extras["slope_loglog"] <= 1.01


def test_envelope_check_catches_corrupt_exponent(normal_oracle):
    curve = pg.shift_modulus_curve(normal_oracle, np.geomspace(0.01, 0.1, 13))
    p = pg.EnvelopeParams(m=1, d=1)
    good = pg.envelope_check(curve, p)
    assert good.verdict
    bad = pg.envelope_check(curve, p, exponent_bias=-0.5)
    assert not bad.verdict


def test_envelope_mc_window_fails_a_false_m1_claim():
    # the Monte Carlo window's lower end -0.6 lies above -1, the least ratio
    # slope of an m = 1 modulus that grows with eps: the claim m = 1 fails
    # the curve eps^(1/3) and holds eps and the smoother eps^2.  At m >= 2
    # the least slope -1/m is above -0.6, so no curve fails (CHANGES.md).
    eps = np.geomspace(0.01, 0.5, 13)
    p = pg.EnvelopeParams(m=1, d=1)
    verdicts = [pg.envelope_check(ModulusCurve(eps, eps ** a), p, MC_SLOPE_RANGE).verdict
                for a in (1 / 3, 1.0, 2.0)]
    assert verdicts == [False, True, True]


def test_degree_envelope_gaussian(normal_oracle):
    eps = np.geomspace(0.01, 0.3, 15)
    sigma = pg.dual_modulus_curve(normal_oracle, eps)
    report = pg.degree_envelope_check(1.0, sigma, d=1)
    assert report.verdict
    assert report.extras["slope"] == pytest.approx(1.0, abs=0.05)


def test_degree_envelope_chisq(chisq_oracle):
    eps = np.geomspace(0.02, 0.3, 12)
    sigma = pg.dual_modulus_curve(chisq_oracle, eps)
    report = pg.degree_envelope_check(2.0, sigma, d=2)
    assert report.verdict
    assert report.extras["slope"] >= 0.4


def test_degree_envelope_scaling_compensation(normal_oracle):
    # doubling the polynomial doubles scale; the variance factor compensates
    eps = np.geomspace(0.02, 0.3, 12)
    doubled = oracle_density("normal", -8.0, 8.0, 2048, sigma=2.0)
    c1 = pg.degree_envelope_check(
        1.0, pg.dual_modulus_curve(normal_oracle, eps), d=1
    ).fitted_constant
    c2 = pg.degree_envelope_check(
        4.0, pg.dual_modulus_curve(doubled, eps), d=1
    ).fitted_constant
    assert abs(c1 - c2) / c1 <= 0.05


def test_degree_envelope_fails_a_slope_below_its_floor():
    # sigma ~ eps^(1/2) is too rough for degree 1, whose floor is 1 - 0.1
    eps = np.geomspace(0.01, 0.3, 12)
    report = pg.degree_envelope_check(1.0, ModulusCurve(eps, eps ** 0.5), d=1)
    assert report.extras["slope"] == pytest.approx(0.5)
    assert not report.verdict
    assert report.worst_margin == pytest.approx(0.5 - 0.9)


def test_degree_envelope_rejects_zero_variance(normal_oracle):
    eps = np.geomspace(0.02, 0.3, 6)
    curve = pg.dual_modulus_curve(normal_oracle, eps)
    with pytest.raises(ResolutionError, match="positive variance"):
        pg.degree_envelope_check(0.0, curve, d=2)


def row_margin(report):
    return min(r.rhs - r.lhs for r in report.rows)


def test_envelope_margin_is_distance_to_nearer_window_end(normal_oracle, x1_samples):
    curve = pg.shift_modulus_curve(normal_oracle, np.geomspace(0.01, 0.1, 13))
    p = pg.EnvelopeParams(m=1, d=1)
    for lo, hi in [(-0.15, 0.15), (-0.6, 1.0)]:
        for bias in (0.0, -0.5):
            report = pg.envelope_check(curve, p, (lo, hi), exponent_bias=bias)
            s = report.extras["ratio_slope"]
            assert report.worst_margin == min(hi - s, s - lo)
            assert report.verdict == (report.worst_margin >= 0)
    h = pg.histogram_density(x1_samples, 400)
    for lo, hi in [(-0.15, 0.15), (-0.6, math.inf)]:
        report = pg.small_set_check(pg.ecdf(x1_samples), h, p, (lo, hi))
        s = report.extras["ratio_slope"]
        assert report.worst_margin == min(hi - s, s - lo)


def test_degree_envelope_margin_is_slope_above_floor(normal_oracle, chisq_oracle):
    for rho, var, d in [(normal_oracle, 1.0, 1), (chisq_oracle, 2.0, 2)]:
        sigma = pg.dual_modulus_curve(rho, np.geomspace(0.02, 0.3, 12))
        report = pg.degree_envelope_check(var, sigma, d)
        assert report.worst_margin == report.extras["slope"] - report.extras["slope_floor"]


def test_row_check_margins_are_smallest_rhs_minus_lhs(
    normal_oracle, chisq_oracle, product_oracle
):
    for rho in (normal_oracle, chisq_oracle, product_oracle):
        probes = pg.default_probe_grid(rho)
        report = pg.modulus_equivalence_check(rho, pg.dual_modulus_curve(rho, probes))
        assert report.worst_margin == row_margin(report)
    near = oracle_density("normal", -4.0, 10.0, 3584, mu=0.0)
    far = oracle_density("normal", -4.0, 10.0, 3584, mu=6.0)
    report = pg.tv_vs_kr_check(near, far, np.geomspace(0.05, 0.9, 6))
    assert report.worst_margin == row_margin(report)


# --- distances --------------------------------------------------------------------


def test_tv_identical_and_disjoint():
    near = oracle_density("normal", -4.0, 104.0, 27648, mu=0.0)
    far = oracle_density("normal", -4.0, 104.0, 27648, mu=100.0)
    assert pg.tv_distance(near, near) == 0.0
    assert pg.tv_distance(near, far) == pytest.approx(2.0, abs=1e-3)


def test_tv_gaussian_shift(normal_oracle):
    shifted = oracle_density("normal", -4.0, 4.0, 2048, mu=0.1)
    got = pg.tv_distance(normal_oracle, shifted)
    assert got == pytest.approx(gauss_shift_l1(0.1), abs=0.005)


def test_kr_basics():
    near = oracle_density("normal", -4.0, 104.0, 27648, mu=0.0)
    far = oracle_density("normal", -4.0, 104.0, 27648, mu=100.0)
    assert pg.kr_distance(near, near) == pytest.approx(0.0, abs=1e-12)
    assert pg.kr_distance(near, far) <= 2.0 + 1e-9


def test_kr_below_tv_on_random_pairs():
    rng = np.random.default_rng(8)
    size = 200
    step = 0.02
    for _ in range(50):
        a = rng.exponential(size=size)
        b = rng.exponential(size=size)
        rho_a = pg.GriddedDensity(0.0, step, a / (a.sum() * step))
        rho_b = pg.GriddedDensity(0.0, step, b / (b.sum() * step))
        tv = pg.tv_distance(rho_a, rho_b)
        kr = pg.kr_distance(rho_a, rho_b)
        assert 0.0 <= kr <= tv + 1e-9
        assert kr <= 2.0 + 1e-9


def test_metric_axioms_on_common_grid():
    rng = np.random.default_rng(21)
    size, step = 150, 0.03
    def rand_density():
        v = rng.exponential(size=size)
        return pg.GriddedDensity(0.0, step, v / (v.sum() * step))
    for _ in range(20):
        a, b, c = rand_density(), rand_density(), rand_density()
        for dist in (pg.tv_distance, pg.kr_distance):
            assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-9)
            assert dist(a, b) >= -1e-12
            assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9


def test_distances_need_one_grid(normal_oracle):
    coarse = oracle_density("normal", -4.0, 4.0, 1024)
    for distance in (pg.tv_distance, pg.kr_distance):
        with pytest.raises(InputError, match="one grid"):
            distance(normal_oracle, coarse)
    with pytest.raises(InputError, match="one grid"):
        pg.tv_vs_kr_check(normal_oracle, coarse, [0.1, 0.5])


def test_tv_vs_kr_check_same_density(normal_oracle):
    report = pg.tv_vs_kr_check(normal_oracle, normal_oracle, [0.1, 0.5])
    assert report.verdict
    assert report.extras["tv"] == 0.0


def test_tv_vs_kr_check_probe_domain(normal_oracle):
    with pytest.raises(InputError):
        pg.tv_vs_kr_check(normal_oracle, normal_oracle, [0.5, 1.5])


def test_tv_vs_kr_far_shift():
    near = oracle_density("normal", -4.0, 10.0, 3584, mu=0.0)
    far = oracle_density("normal", -4.0, 10.0, 3584, mu=6.0)
    report = pg.tv_vs_kr_check(near, far, np.geomspace(0.05, 0.9, 6))
    assert report.verdict  # the kr/eps term carries the bound


def test_tv_vs_kr_check_fails_when_kr_exceeds_tv(normal_oracle, monkeypatch):
    import polygauss.functionals as functionals

    shifted = oracle_density("normal", -4.0, 4.0, 2048, mu=0.3)
    monkeypatch.setattr(
        functionals, "kr_distance", lambda x, y: functionals.tv_distance(x, y) + 0.5
    )
    report = pg.tv_vs_kr_check(normal_oracle, shifted, [0.1, 0.5])
    assert all(r.passed for r in report.rows)
    assert not report.verdict


def test_balancing_epsilon():
    got = pg.balancing_epsilon(0.3, 1, 2)
    assert got == pytest.approx(0.1**0.5 * abs(math.log(0.1)) ** -0.5)
    # m = d: pure power, log factor is 1
    assert pg.balancing_epsilon(0.3, 2, 2) == pytest.approx(0.1 ** (2.0 / 3.0))
    # near-maximal distances push the balancing scale above 1: the two-term
    # bound no longer applies there and callers flag it
    assert pg.balancing_epsilon(1.9, 1, 2) > 1.0
    with pytest.raises(InputError, match="distance must be positive"):
        pg.balancing_epsilon(0.0, 1, 2)
    with pytest.raises(InputError):
        pg.balancing_epsilon(2.5, 1, 2)


def test_rate_ratio_guards():
    with pytest.raises(InputError, match="distance must be positive"):
        pg.tv_kr_rate_ratio(0.1, 0.0, 1, 2)
    assert pg.tv_kr_rate_ratio(0.2, 0.04, 1, 1) == pytest.approx(0.2 / 0.2)


# --- curves and reports -----------------------------------------------------------


def test_curve_validation():
    with pytest.raises(InputError):
        ModulusCurve(np.array([0.2, 0.1]), np.array([0.1, 0.2]))
    with pytest.raises(InputError):
        ModulusCurve(np.array([0.1, 0.2]), np.array([0.2, 0.1]))
    with pytest.raises(InputError):
        ModulusCurve(np.array([0.1, 0.2]), np.array([0.1, 3.0]))


def test_report_json_shape(normal_oracle):
    sigma = pg.dual_modulus_curve(normal_oracle, [0.05, 0.1])
    report = pg.modulus_equivalence_check(normal_oracle, sigma)
    data = report.to_json_dict()
    assert set(data) == {"id", "probes", "fitted_constant", "verdict", "extras"}
    assert all(set(p) == {"eps", "lhs", "rhs", "budget"} for p in data["probes"])


def test_boundary_correction_scales_with_eps(chisq_oracle):
    assert boundary_correction(chisq_oracle, 0.5) == pytest.approx(
        0.5 * chisq_oracle.clipped_mass
    )

