import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polygauss as pg
from polygauss.errors import InputError
from polygauss.functionals import _dual_box, _telescoped_weights
from polygauss.lp import solve_chain_lp

from oracles import brute_force_chain_lp, highs_chain_lp


@pytest.mark.parametrize(
    "size,box,slope",
    [
        (4, 0.3, 0.1),
        (6, 0.3, 0.1),
        (8, 0.5, 0.05),
        (8, 0.2, 0.3),
        (10, 0.3, 0.08),
        (12, 0.1, 0.09),
        (12, 0.2, 0.12),
        (12, 1.0, 1.0 / 11.0),
    ],
)
def test_solver_matches_vertex_enumeration(size, box, slope):
    rng = np.random.default_rng(size * 1000 + int(box * 100))
    for _ in range(3):
        w = rng.normal(size=size)
        assert solve_chain_lp(w, box, slope) == pytest.approx(
            brute_force_chain_lp(w, box, slope), abs=1e-9
        )


DYADIC = st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(w=st.lists(st.integers(-2, 2), min_size=1, max_size=8), box=DYADIC, step=DYADIC)
def test_ties_and_degenerate_steps_match_vertex_enumeration(w, box, step):
    # integer weights give exact zeros and equal slope drops; dyadic box and
    # step (box below, at and above the step) give coincident breakpoints
    assert solve_chain_lp(w, box, step) == pytest.approx(
        brute_force_chain_lp(w, box, step), abs=1e-9
    )


@settings(derandomize=True, deadline=None, max_examples=400)
@given(w=st.lists(st.integers(-3, 3), min_size=1, max_size=30), box=DYADIC, step=DYADIC)
def test_negated_integer_weights_give_the_same_bits(w, box, step):
    # == and not approx: the feasible set is symmetric under phi -> -phi, and
    # both signs walk through the same float operations
    assert solve_chain_lp([-x for x in w], box, step) == solve_chain_lp(w, box, step)


def _alternating(size: int, rng) -> np.ndarray:
    return np.where(np.arange(size) % 2 == 0, 1.0, -1.0) * rng.uniform(0.5, 1.5, size)


@pytest.mark.parametrize("size", [50, 400, 2048])
def test_negated_float_weights_give_the_same_bits(size):
    rng = np.random.default_rng(size)
    for w in (rng.normal(size=size), _alternating(size, rng)):
        for box in (0.01, 0.1, 1.0):
            assert solve_chain_lp(-w, box, 1.0 / size) == solve_chain_lp(w, box, 1.0 / size)


# float.hex() of solve_chain_lp on fixed problems, so that a kernel edit that
# reorders float operations fails here.  Any rewrite of the kernel must keep
# these bits: every equivalence, degree-envelope and TV-KR output depends on them.
LP_PINS = [
    ("normal", 0.01, "0x1.964f094dd312bp+1"),
    ("normal", 0.3, "0x1.821d8c2714088p+4"),
    ("normal", 1.0, "0x1.139b719061dfbp+6"),
    ("alternating", 0.1, "0x1.d50bbc2209d3fp-1"),
    ("alternating", 1.0, "0x1.3a71cbef1f51cp+0"),
    ("ties", 0.5, "0x1.6000000000000p+1"),
]


@pytest.mark.parametrize("kind,box,want", LP_PINS)
def test_solver_bits_are_pinned(kind, box, want):
    if kind == "normal":
        w, step = np.random.default_rng(2048).normal(size=2048), 1.0 / 2048
    elif kind == "alternating":
        w, step = _alternating(400, np.random.default_rng(400)), 1.0 / 400
    else:  # integer weights: splits with equal and unequal drops
        w, step = [2, -1, -1, 2, 0, -2, 1, 1, -2, 2], 0.25
    assert solve_chain_lp(w, box, step).hex() == want


@pytest.mark.parametrize("size", [50, 400, 2048])
def test_solver_matches_highs(size, x1_samples, x1sq_samples, x1x2_samples):
    rng = np.random.default_rng(size)
    step = 1.0 / size
    alternating = _alternating(size, rng)
    cases = [(rng.normal(size=size), 0.3, step), (alternating, 0.1, step)]
    for s in (x1_samples, x1sq_samples, x1x2_samples):
        rho = pg.histogram_density(s, size)
        w = _telescoped_weights(rho.values)
        cases += [(w, _dual_box(rho, eps), rho.step) for eps in (0.01, 0.3, 100.0)]
    grid = pg.quantile_grid([x1_samples, x1x2_samples], size)
    hx = pg.histogram_density(x1_samples, size, grid)
    hy = pg.histogram_density(x1x2_samples, size, grid)
    kr_weights = hx.step * (hx.values - hy.values)
    assert pg.kr_distance(hx, hy) == solve_chain_lp(kr_weights, 1.0, hx.step)
    cases.append((kr_weights, 1.0, hx.step))
    for w, box, slope in cases:
        assert solve_chain_lp(w, box, slope) == pytest.approx(
            highs_chain_lp(w, box, slope), rel=1e-9
        )


def test_uniform_telescoped_weights_oracle():
    # weights of the uniform-density dual-modulus LP: +-1 at the ends
    for size, box in [(12, 0.1), (12, 0.5), (8, 0.25)]:
        w = np.zeros(size)
        w[0], w[-1] = -1.0, 1.0
        got = solve_chain_lp(w, box, 1.0 / (size - 1))
        assert got == pytest.approx(min(2 * box, 1.0), abs=1e-12)
        assert brute_force_chain_lp(w, box, 1.0 / (size - 1)) == pytest.approx(got, abs=1e-9)


def test_single_variable():
    assert solve_chain_lp([3.0], 0.5, 0.1) == pytest.approx(1.5)
    assert solve_chain_lp([-3.0], 0.5, 0.1) == pytest.approx(1.5)
    assert brute_force_chain_lp([3.0], 0.5, 0.1) == pytest.approx(1.5)


def test_zero_box():
    assert solve_chain_lp([1.0, -2.0, 3.0], 0.0, 0.1) == 0.0


def test_value_monotone_and_concave_in_box():
    rng = np.random.default_rng(2)
    w = rng.normal(size=50)
    boxes = np.linspace(0.01, 1.0, 30)
    vals = np.array([solve_chain_lp(w, b, 0.05) for b in boxes])
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(np.diff(vals, 2) <= 1e-9)


def test_invalid_inputs():
    with pytest.raises(InputError):
        solve_chain_lp([], 1.0, 0.1)
    with pytest.raises(InputError):
        solve_chain_lp([1.0], -1.0, 0.1)
    with pytest.raises(InputError):
        solve_chain_lp([1.0], 1.0, 0.0)
    with pytest.raises(InputError):
        solve_chain_lp([np.nan], 1.0, 0.1)
