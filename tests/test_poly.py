import json
import math
import tracemalloc

import numpy as np
import pytest

from polygauss.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    IndexOutOfRange,
    InputError,
    ZeroPolynomial,
    ZeroScale,
)
from polygauss.poly import (
    ClassParams,
    Polynomial,
    add,
    constant,
    degree,
    dumps,
    evaluate_batch,
    from_json_dict,
    in_class,
    leading_magnitude,
    loads,
    max_var_power,
    monomial,
    multiply,
    partial_derivative,
    random_in_class,
    restrict_variable,
    scale,
    to_json_dict,
    variable,
)

from oracles import evaluate

F = Polynomial(2, {(2, 1): 3.0, (1, 2): 1.0, (0, 1): -5.0})  # 3x1^2x2 + x1x2^2 - 5x2
ZERO2 = Polynomial(2, {})


def random_poly(rng, n=None):
    n = n or int(rng.integers(1, 4))
    params = ClassParams(n, int(rng.integers(1, 4)), int(rng.integers(3, 6)))
    return random_in_class(params, seed=int(rng.integers(0, 2**31)))


def test_degree_examples():
    assert degree(F) == 3
    assert degree(constant(3, 7.0)) == 0
    assert degree(monomial(3, (1, 1, 1))) == 3


def test_degree_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        degree(ZERO2)


def test_leading_magnitude_examples():
    assert leading_magnitude(F) == (3.0, (2, 1))
    # tie-break: lexicographically largest exponent tuple among maximizers
    assert leading_magnitude(Polynomial(2, {(1, 0): 1.0, (0, 1): -1.0})) == (1.0, (1, 0))
    mag, witness = leading_magnitude(Polynomial(1, {(3,): 0.5, (1,): 10.0}))
    assert mag == 0.5 and witness == (3,)


def test_leading_magnitude_constant():
    assert leading_magnitude(constant(2, -4.0)) == (4.0, (0, 0))


def test_max_var_power_examples():
    assert max_var_power(monomial(2, (2, 1))) == 2
    assert max_var_power(monomial(3, (1, 1, 1))) == 1
    assert max_var_power(constant(2, 3.0)) == 0


def test_evaluate_examples():
    assert evaluate(monomial(2, (1, 2)), [2.0, 3.0]) == 18.0
    assert evaluate(F, [0.0, 0.0]) == 0.0
    assert evaluate(Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0}), [3.0, 4.0]) == 25.0
    with pytest.raises(DimensionMismatch):
        evaluate(F, [1.0])


def test_evaluate_batch_matches_pointwise_with_exponent_gaps():
    f = Polynomial(2, {(5, 0): 1.0, (2, 3): -2.0, (0, 7): 0.5, (0, 0): 3.0})
    x = np.random.default_rng(8).standard_normal((50, 2))
    got = evaluate_batch(f, x)
    assert got == pytest.approx([evaluate(f, row) for row in x], rel=1e-12, abs=1e-12)


def test_evaluate_batch_memory_does_not_grow_with_degree():
    x = np.random.default_rng(0).standard_normal((100_000, 1))  # 0.8 MB a column
    tracemalloc.start()
    try:
        evaluate_batch(monomial(1, (100,)), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_scale_examples():
    g = scale(monomial(2, (1, 1)), 2.0)
    assert g.terms == {(1, 1): 2.0}
    assert leading_magnitude(g)[0] == 2.0
    assert scale(F, 1.0) == F
    h = scale(Polynomial(1, {(2,): 1.0, (0,): -1.0}), -1.0)
    assert h.terms == {(2,): -1.0, (0,): 1.0}
    assert leading_magnitude(h)[0] == 1.0
    with pytest.raises(ZeroScale):
        scale(F, 0.0)


def test_multiply_examples():
    x1 = variable(2, 1)
    x2 = variable(2, 2)
    assert multiply(x1, x1).terms == {(2, 0): 1.0}
    prod = multiply(add(x1, x2), add(x1, scale(x2, -1.0)))
    assert prod.terms == {(2, 0): 1.0, (0, 2): -1.0}  # cross terms cancel exactly
    assert multiply(F, constant(2, 1.0)) == F
    with pytest.raises(DimensionMismatch):
        multiply(F, variable(3, 1))


def test_partial_derivative_examples():
    assert partial_derivative(monomial(2, (2, 1)), 1).terms == {(1, 1): 2.0}
    assert partial_derivative(monomial(2, (0, 3)), 1).is_zero
    g = partial_derivative(partial_derivative(partial_derivative(
        monomial(2, (2, 1), 3.0), 1), 1), 2)
    assert g.terms == {(0, 0): 6.0}  # 2! * 1! * 3
    with pytest.raises(IndexOutOfRange):
        partial_derivative(F, 3)


def test_restrict_examples():
    f = Polynomial(2, {(1, 2): 1.0, (2, 0): 1.0})  # x1x2^2 + x1^2
    layers = restrict_variable(f, 2)
    assert layers[0].terms == {(2,): 1.0}
    assert layers[1].is_zero
    assert layers[2].terms == {(1,): 1.0}

    layers = restrict_variable(monomial(2, (1, 1)), 2)
    assert layers[0].is_zero and layers[1].terms == {(1,): 1.0}
    assert leading_magnitude(layers[1])[0] == 1.0

    f = Polynomial(2, {(2, 1): 3.0, (0, 3): 1.0})
    layers = restrict_variable(f, 2)
    assert layers[1].terms == {(2,): 3.0}
    assert layers[3].terms == {(0,): 1.0}
    assert leading_magnitude(f) == (3.0, (2, 1))
    assert leading_magnitude(layers[1])[0] == 3.0


def test_restrict_errors():
    with pytest.raises(DimensionTooSmall):
        restrict_variable(monomial(1, (2,)), 1)
    with pytest.raises(IndexOutOfRange):
        restrict_variable(F, 5)
    with pytest.raises(ZeroPolynomial):
        restrict_variable(ZERO2, 1)


def test_restriction_reconstructs(rng=np.random.default_rng(42)):
    for _ in range(20):
        f = random_poly(rng, n=int(rng.integers(2, 4)))
        i = int(rng.integers(1, f.n + 1))
        layers = restrict_variable(f, i)
        pts = rng.normal(size=(100, f.n))
        got = np.zeros(100)
        reduced_pts = np.delete(pts, i - 1, axis=1)
        for j, layer in enumerate(layers):
            if layer.is_zero:
                continue
            got += evaluate_batch(layer, reduced_pts) * pts[:, i - 1] ** j
        want = evaluate_batch(f, pts)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_restriction_preserves_leading_magnitude(rng=np.random.default_rng(7)):
    hits = 0
    for _ in range(50):
        f = random_poly(rng, n=int(rng.integers(2, 4)))
        mag, witness = leading_magnitude(f)
        for i in range(1, f.n + 1):
            if witness[i - 1] == 0:
                continue
            layers = restrict_variable(f, i)
            got, _ = leading_magnitude(layers[witness[i - 1]])
            assert got == pytest.approx(mag, rel=1e-12)
            assert degree(layers[witness[i - 1]]) <= degree(f) - witness[i - 1]
            hits += 1
    assert hits > 20


def test_full_order_derivative_at_witness(rng=np.random.default_rng(13)):
    # differentiating to the witness multi-index leaves j1! * ... * jn! * coef
    for _ in range(30):
        f = random_poly(rng, n=int(rng.integers(1, 4)))
        mag, witness = leading_magnitude(f)
        g = f
        for i, order in enumerate(witness, start=1):
            for _ in range(order):
                g = partial_derivative(g, i)
        expected = f.terms[witness] * math.prod(math.factorial(j) for j in witness)
        assert g.terms.get((0,) * f.n, 0.0) == pytest.approx(expected, rel=1e-12)
        assert abs(expected) == pytest.approx(
            mag * math.prod(math.factorial(j) for j in witness), rel=1e-12
        )


def test_scaling_properties(rng=np.random.default_rng(3)):
    for _ in range(100):
        f = random_poly(rng)
        alpha = float(rng.uniform(0.1, 10.0)) * (1 if rng.uniform() < 0.5 else -1)
        g = scale(f, alpha)
        assert degree(g) == degree(f)
        assert leading_magnitude(g)[0] == pytest.approx(
            abs(alpha) * leading_magnitude(f)[0], rel=1e-12
        )


def test_multiply_matches_pointwise(rng=np.random.default_rng(11)):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        f, g = random_poly(rng, n), random_poly(rng, n)
        pts = rng.uniform(-2, 2, size=(50, n))
        lhs = evaluate_batch(multiply(f, g), pts)
        rhs = evaluate_batch(f, pts) * evaluate_batch(g, pts)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_canonical_form_after_ops(rng=np.random.default_rng(19)):
    for _ in range(50):
        n = int(rng.integers(2, 4))
        f, g = random_poly(rng, n), random_poly(rng, n)
        results = [multiply(f, g), scale(f, -2.5), partial_derivative(f, 1)]
        results += restrict_variable(f, 1)
        for h in results:
            assert all(c != 0.0 for c in h.terms.values())
            assert all(len(e) == h.n for e in h.terms)


def test_random_in_class_contract():
    params = ClassParams(2, 1, 2)
    a = random_in_class(params, seed=123)
    b = random_in_class(params, seed=123)
    assert a == b
    for seed in range(20):
        f = random_in_class(ClassParams(3, 2, 4), seed=seed)
        assert in_class(f, ClassParams(3, 2, 4))
        assert degree(f) >= 1
        assert leading_magnitude(f)[0] == pytest.approx(1.0)


def test_class_params_validation():
    with pytest.raises(InputError):
        ClassParams(0, 1, 1)
    with pytest.raises(InputError):
        ClassParams(2, 3, 2)


def test_json_roundtrip():
    text = dumps(F)
    assert loads(text) == F
    data = json.loads(text)
    assert data["n"] == 2 and len(data["terms"]) == 3


def test_json_validation():
    with pytest.raises(InputError):
        loads("not json")
    with pytest.raises(InputError):
        from_json_dict({"n": 2, "terms": [{"exp": [1], "coef": 1.0}]})
    with pytest.raises(InputError):
        from_json_dict({"n": 2, "terms": [{"exp": [1, -1], "coef": 1.0}]})
    assert from_json_dict(to_json_dict(F)) == F
