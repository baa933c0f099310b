import numpy as np
import pytest

from polygauss.errors import InputError
from polygauss.lp import solve_chain_lp

from oracles import brute_force_chain_lp


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
