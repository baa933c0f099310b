import math

import numpy as np
import pytest

import polygauss as pg
from polygauss.errors import InputError
from polygauss.moments import (
    expectation,
    gaussian_moment,
    hermite_expand,
    variance,
    variance_via_hermite,
)
from polygauss.poly import ClassParams, Polynomial, monomial, random_in_class

from oracles import evaluate_expansion


def test_gaussian_moment():
    assert gaussian_moment(0) == 1.0
    assert gaussian_moment(2) == 1.0
    assert gaussian_moment(4) == 3.0
    assert gaussian_moment(6) == 15.0
    assert gaussian_moment(7) == 0.0
    with pytest.raises(InputError):  # 799!! exceeds the float range
        gaussian_moment(800)


def test_expectation_examples():
    f = Polynomial(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 0): 5.0})
    assert expectation(f) == 6.0
    assert expectation(monomial(2, (3, 1))) == 0.0
    assert expectation(monomial(2, (2, 2))) == 1.0


def test_variance_examples():
    assert variance(monomial(1, (2,))) == 2.0
    assert variance(monomial(2, (1, 1))) == 1.0
    assert variance(monomial(2, (2, 1))) == 3.0


def test_variance_of_constant_is_zero():
    assert variance(pg.constant(3, 7.0)) == 0.0
    assert variance(Polynomial(2, {})) == 0.0


def test_hermite_expand_examples():
    exp = hermite_expand(monomial(1, (2,)))
    assert exp.coeffs[(0,)] == pytest.approx(1.0)
    assert exp.coeffs[(2,)] == pytest.approx(math.sqrt(2.0))
    assert hermite_expand(monomial(1, (1,))).coeffs == {(1,): 1.0}
    assert hermite_expand(pg.constant(1, 3.5)).coeffs == {(0,): 3.5}


def test_variance_via_hermite_examples():
    assert variance_via_hermite(monomial(1, (2,))) == pytest.approx(2.0)
    assert variance_via_hermite(monomial(2, (1, 1))) == pytest.approx(1.0)
    assert variance_via_hermite(pg.constant(2, 9.0)) == 0.0


def test_parseval_second_moment(rng=np.random.default_rng(5)):
    for _ in range(50):
        params = ClassParams(int(rng.integers(1, 4)), int(rng.integers(1, 4)), 5)
        f = random_in_class(params, seed=int(rng.integers(0, 2**31)))
        exp = hermite_expand(f)
        second = expectation(pg.multiply(f, f))
        assert exp.second_moment == pytest.approx(second, rel=1e-9)
        assert exp.mean == pytest.approx(expectation(f), rel=1e-9, abs=1e-12)


def test_dual_method_agreement(rng=np.random.default_rng(17)):
    for _ in range(50):
        params = ClassParams(int(rng.integers(1, 5)), int(rng.integers(1, 4)), 6)
        f = random_in_class(params, seed=int(rng.integers(0, 2**31)))
        v1, v2 = variance(f), variance_via_hermite(f)
        assert abs(v1 - v2) <= 1e-9 * (1.0 + v1)


def test_hermite_reconstruction(rng=np.random.default_rng(23)):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        f = random_in_class(ClassParams(n, 3, 5), seed=int(rng.integers(0, 2**31)))
        pts = rng.normal(size=(50, n))
        got = evaluate_expansion(hermite_expand(f), pts)
        want = pg.evaluate_batch(f, pts.T)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


def test_full_degree_family_variance_floor(rng=np.random.default_rng(41)):
    # at d = m the variance admits a positive floor c * lead^2 over the family
    cs = []
    for _ in range(50):
        m = int(rng.integers(1, 4))
        f = random_in_class(ClassParams(2, m, m), seed=int(rng.integers(0, 2**31)))
        lead, _ = pg.leading_magnitude(f)
        cs.append(variance(f) / lead**2)
    fitted_floor = min(cs)
    print(f"\nfitted variance floor over 50 full-degree draws: {fitted_floor:.4f}")
    assert fitted_floor > 0.0


def test_monte_carlo_consistency(rng=np.random.default_rng(59)):
    for seed in range(5):
        f = random_in_class(ClassParams(3, 2, 4), seed=seed)
        v = variance(f)
        s = pg.sample(f, 200_000, seed=9_000 + seed)
        mc = float(np.var(s.values))
        m4 = float(np.mean((s.values - s.values.mean()) ** 4))
        se = math.sqrt(max(m4 - mc * mc, 0.0) / s.count)
        assert abs(mc - v) <= 5.0 * se
