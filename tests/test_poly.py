import hashlib
import json
import time
import tracemalloc

import numpy as np
import pytest

from polygauss.errors import InputError
from polygauss.poly import (
    ClassParams,
    Polynomial,
    _class_counts,
    _unrank,
    add,
    constant,
    degree,
    dumps,
    evaluate_batch,
    from_json_dict,
    leading_magnitude,
    loads,
    max_var_power,
    monomial,
    multiply,
    random_in_class,
    scale,
    to_json_dict,
    variable,
)

from oracles import class_exponents, evaluate

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
    with pytest.raises(InputError, match="degree of the zero polynomial"):
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
    with pytest.raises(InputError, match="point has length 1"):
        evaluate(F, [1.0])


def test_evaluate_batch_matches_pointwise_with_exponent_gaps():
    f = Polynomial(2, {(5, 0): 1.0, (2, 3): -2.0, (0, 7): 0.5, (0, 0): 3.0})
    x = np.random.default_rng(8).standard_normal((50, 2))
    got = evaluate_batch(f, x.T)
    assert got == pytest.approx([evaluate(f, row) for row in x], rel=1e-12, abs=1e-12)


def test_evaluate_batch_memory_does_not_grow_with_degree():
    x = np.random.default_rng(0).standard_normal((100_000, 1))  # 0.8 MB a column
    tracemalloc.start()
    try:
        evaluate_batch(monomial(1, (100,)), x.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_evaluate_batch_takes_n_columns_of_one_length():
    f = monomial(2, (1, 1))
    x = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(evaluate_batch(f, x.T), evaluate_batch(f, [x[:, 0], x[:, 1]]))
    with pytest.raises(InputError, match="3 columns for a polynomial in 2 variables"):
        evaluate_batch(f, x)  # the rows of an (N, n) array are not its columns
    with pytest.raises(InputError, match="1-D of one length"):
        evaluate_batch(f, [x[:, 0], x[:2, 1]])


def test_scale_examples():
    g = scale(monomial(2, (1, 1)), 2.0)
    assert g.terms == {(1, 1): 2.0}
    assert leading_magnitude(g)[0] == 2.0
    assert scale(F, 1.0) == F
    h = scale(Polynomial(1, {(2,): 1.0, (0,): -1.0}), -1.0)
    assert h.terms == {(2,): -1.0, (0,): 1.0}
    assert leading_magnitude(h)[0] == 1.0
    with pytest.raises(InputError, match="scaling by zero"):
        scale(F, 0.0)


def test_multiply_examples():
    x1 = variable(2, 1)
    x2 = variable(2, 2)
    assert multiply(x1, x1).terms == {(2, 0): 1.0}
    prod = multiply(add(x1, x2), add(x1, scale(x2, -1.0)))
    assert prod.terms == {(2, 0): 1.0, (0, 2): -1.0}  # cross terms cancel exactly
    assert multiply(F, constant(2, 1.0)) == F
    with pytest.raises(InputError, match="dimensions differ"):
        multiply(F, variable(3, 1))


def test_leading_magnitude_witness_is_a_top_term(rng=np.random.default_rng(13)):
    # the witness is a term of top total degree whose |coefficient| is the
    # magnitude, and no top-degree term is larger
    for _ in range(30):
        f = random_poly(rng, n=int(rng.integers(1, 4)))
        mag, witness = leading_magnitude(f)
        top = [abs(c) for e, c in f.terms.items() if sum(e) == degree(f)]
        assert sum(witness) == degree(f)
        assert abs(f.terms[witness]) == mag == max(top)


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
        lhs = evaluate_batch(multiply(f, g), pts.T)
        rhs = evaluate_batch(f, pts.T) * evaluate_batch(g, pts.T)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_canonical_form_after_ops(rng=np.random.default_rng(19)):
    for _ in range(50):
        n = int(rng.integers(2, 4))
        f, g = random_poly(rng, n), random_poly(rng, n)
        results = [multiply(f, g), scale(f, -2.5)]
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
        assert f.n == 3 and max_var_power(f) <= 2 and degree(f) <= 4
        assert degree(f) >= 1
        assert leading_magnitude(f)[0] == pytest.approx(1.0)


# First 16 hex digits of sha256(dumps(random_in_class(params, seed))).  verify-all
# members and the benchmark's verify pools are named by these seeds, so any
# rewrite of the class draw must keep every seed's polynomial bit-identical.
FAMILY_DRAWS = (  # ClassParams(3, 1, 3), seeds 1..80
    "992dff85f12b201f", "e7529216a5a106a6", "6248ef9982482377", "9e8bf4c476e6d376",
    "e6ae6745405b64d3", "d68f6fecd1de708e", "164d1293ad25a099", "2af2d7639518d6e1",
    "3e9a91b4473ee12b", "fcc418fab6ce71df", "57a358b7f6dc0fac", "20639ef9f193c000",
    "6f466874b3bf89d5", "2bb9c734b0d76eb1", "2a3e44aecd4260e1", "3db767cc7e10b3c4",
    "045245d9621f0c36", "152c35251fd90576", "c20854e037ca3258", "f3c8966989a8ff3e",
    "c7fb568fd01f12f9", "d8c5156a9bd59d06", "f18a7ce35463d405", "0c7fa61b48756302",
    "c9f2f4a406714cd1", "167aeeb9992f3c4e", "36debd490cee2ac8", "30b384541fcb706c",
    "0cd4d7aa5ac23abe", "707cf0f533e8322c", "bb89a7925899e6a1", "8df17de7b2a67ccc",
    "e61736478ed43357", "6c70cbac09a6bcf2", "e6e7ed8205120946", "783f06666e4de513",
    "6b6641bd465b8164", "37985c658c862a6a", "fd0b384851672e50", "26f33488ccc057af",
    "c77e69b6488c0f02", "45564839d7b918c0", "334e16f706ddd4f8", "ccdb29d2206583da",
    "d308c4bbc659c1fe", "c7b699a4fe52c25d", "3582343bee332285", "47e6a541ac58fc58",
    "2eb4613d79adf5b9", "e409b850572cc347", "50382e3b81d92d31", "b12f0a98cc23ec81",
    "f85cd5eb58657e28", "8e822baae8611c2c", "02b931996ec49a87", "508ff164508026c1",
    "892c5df65877629f", "0bf3ec1348d90b43", "47ba1a80086cd644", "b625c6f397be1f2f",
    "0abadb4b54a7f215", "c9c219a0afd32a95", "a222f872894d5a9d", "8c58e0c94fc06780",
    "630b36f46aa4b10c", "e75d71942b2b2171", "c51e5bf7feac71e0", "e2032caf546794f7",
    "2a6f0b01c8339e4b", "0c41424888cb1719", "0c728fff5004ff9b", "b3aa47b33e545bdb",
    "56bda959aeb06161", "7a9819920ae7ba89", "bb16ec4d29b77e6e", "d10301ca9e791682",
    "0eb91b64ce1e6b17", "5b99844529506d29", "76898b6bd6973e8c", "5c78d75d33198996",
)
WIDE_DRAWS = {1: "b37b5bdf1a227dfa", 7: "0e9c506dcc32f8c1"}  # ClassParams(14, 2, 3)
# ClassParams(14, 2, 3) drawn with the seed `verify-all --n 14 --m 2 --d 3
# --count 1 --seed s` passes its one member,
# SeedSequence(s).generate_state(3, dtype=np.uint64)[0], for s = 1..40.  The
# digests were computed by the draw that listed all 3^14 exponent tuples.
WIDE_MEMBER_DRAWS = (
    "b6aab60f56833277", "450cb8b3093ef123", "2bf33e9ecf3851d4", "ba66898917b4e3c0",
    "9439b56a69a4d8bf", "5d9716c29ab561f4", "d3ce4571bfb30257", "a02725087737370f",
    "7d6cfad4d59f3247", "0df3768981b64d3c", "57b35703edeb0e60", "e419e5b29fa7cc54",
    "e11b4a1d3c662998", "9b31b56256fdf316", "0d2dab29996e8735", "ce2508faeaac458c",
    "9071f0db4f440a95", "4c2a66cdf0952475", "dedb1ab387bf732d", "2fa3ee40838ddfa0",
    "fbf39cb205e2fc74", "a80cbd9d0e77cbd3", "7f0f4ea26d05336d", "3c2cb57633f97d68",
    "c7613e40d0daa471", "c2b1cace2c60ade4", "f3152b27daf696fb", "c93a457d244f3713",
    "746dfc2acb8862ef", "c0b2d0e1535d6e11", "5ef744b303a1e1f8", "d668ebfdbc3a3bf1",
    "91742b21af709a8f", "72f713b31f11f963", "8c1df7e9764bccda", "bbd49184f4738af0",
    "29444c9bcb250086", "fdca831c72d6a889", "68799e1fd4f6e107", "d187aa48bd897607",
)


def _draw_digest(params, seed):
    return hashlib.sha256(dumps(random_in_class(params, seed)).encode()).hexdigest()[:16]


def test_class_draws_are_pinned():
    family = ClassParams(3, 1, 3)
    assert tuple(_draw_digest(family, s) for s in range(1, 81)) == FAMILY_DRAWS
    wide = ClassParams(14, 2, 3)
    assert {s: _draw_digest(wide, s) for s in WIDE_DRAWS} == WIDE_DRAWS


def test_verify_wide_member_draws_are_pinned():
    wide = ClassParams(14, 2, 3)
    seeds = [
        int(np.random.SeedSequence(s).generate_state(3, dtype=np.uint64)[0])
        for s in range(1, 41)
    ]
    assert tuple(_draw_digest(wide, s) for s in seeds) == WIDE_MEMBER_DRAWS


def test_unranking_matches_enumeration():
    cases = [(n, m, d) for n in range(1, 7) for m in range(1, 4) for d in range(m, 7)]
    for params in [ClassParams(*c) for c in cases + [(2, 1, 5)]]:
        listed = class_exponents(params)
        table = _class_counts(params)
        assert table[0][-1] - 1 == len(listed), params
        assert [_unrank(table, i + 1) for i in range(len(listed))] == listed, params


def test_class_draw_is_polynomial_in_n():
    params = ClassParams(512, 2, 3)  # 22.6M admissible tuples among 3^512
    start = time.perf_counter()
    f = random_in_class(params, seed=5)
    assert time.perf_counter() - start < 0.5
    assert max_var_power(f) <= 2 and degree(f) <= 3
    # the table is capped at n * m, so a huge degree cap costs nothing
    g = random_in_class(ClassParams(2, 3, 10**6), seed=5)
    assert max_var_power(g) <= 3 and degree(g) <= 10**6


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
    # n and exponents are JSON integers, coefficients JSON numbers; a bool is neither
    for bad in ('{"n": 1.5, "terms": []}', '{"n": true, "terms": []}',
                '{"n": 1, "terms": [{"exp": [1.7], "coef": 1.0}]}',
                '{"n": 1, "terms": [{"exp": [true], "coef": 1.0}]}',
                '{"n": 1, "terms": [{"exp": "1", "coef": 1.0}]}',
                '{"n": 1, "terms": [{"exp": [1], "coef": "2"}]}',
                '{"n": 1, "terms": [{"exp": [1], "coef": true}]}'):
        with pytest.raises(InputError, match="malformed polynomial object"):
            loads(bad)
    assert loads('{"n": 1, "terms": [{"exp": [1], "coef": 2}]}') == monomial(1, (1,), 2.0)
    assert from_json_dict(to_json_dict(F)) == F


def test_json_like_terms_add_up():
    def terms(*coefs):
        return from_json_dict({"n": 1, "terms": [{"exp": [1], "coef": c} for c in coefs]}).terms

    assert terms(1, 2) == {(1,): 3.0}
    assert terms(1, -1) == {}
