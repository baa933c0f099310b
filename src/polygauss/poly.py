"""Sparse multivariate polynomials in n real variables.

A polynomial is a dimension ``n`` plus a finite map from exponent tuples
``(j_1, ..., j_n)`` to nonzero float coefficients:

    f(x) = sum_J  a_J * x_1^{j_1} * ... * x_n^{j_n}

Canonical form never stores a zero coefficient, so the zero polynomial is
the empty map.  All values are immutable after construction and every
operation is a pure function, safe for concurrent use.

Class membership is described by ``ClassParams(n, m, d)``: each variable
enters to a power at most ``m`` and the total degree is at most ``d``.
Variable indices in the public API are 1-based (``x_1 .. x_n``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError

MultiIndex = tuple[int, ...]

CLASS_MAX_TERMS = 12  # most non-constant terms random_in_class draws


def _validate_terms(n: int, terms: Mapping[Sequence[int], float]) -> dict[MultiIndex, float]:
    out: dict[MultiIndex, float] = {}
    for exps, coef in terms.items():
        key = tuple(int(e) for e in exps)
        if len(key) != n:
            raise InputError(
                f"exponent tuple {key} has length {len(key)}, expected {n}"
            )
        if any(e < 0 for e in key):
            raise InputError(f"negative exponent in {key}")
        c = float(coef)
        if not np.isfinite(c):
            raise InputError(f"non-finite coefficient {coef!r} at {key}")
        if c != 0.0:
            out[key] = out.get(key, 0.0) + c
            if out[key] == 0.0:
                del out[key]
    return out


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial in canonical form (no zero coefficients)."""

    n: int
    terms: dict[MultiIndex, float]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise InputError(f"dimension must be a positive int, got {self.n!r}")
        object.__setattr__(self, "terms", _validate_terms(self.n, self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if self.is_zero:
            return f"Polynomial({self.n}, 0)"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            mono = "*".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(exps)
                if e > 0
            )
            parts.append(f"{self.terms[exps]:g}{'*' + mono if mono else ''}")
        return f"Polynomial({self.n}, {' + '.join(parts)})"


def constant(n: int, value: float) -> Polynomial:
    """The constant polynomial ``value`` in n variables."""
    return Polynomial(n, {(0,) * n: float(value)})


def variable(n: int, i: int) -> Polynomial:
    """The coordinate polynomial ``x_i`` (1-based) in n variables."""
    if not 1 <= i <= n:
        raise InputError(f"variable index {i} outside 1..{n}")
    exps = [0] * n
    exps[i - 1] = 1
    return Polynomial(n, {tuple(exps): 1.0})


def monomial(n: int, exps: Sequence[int], coef: float = 1.0) -> Polynomial:
    return Polynomial(n, {tuple(exps): coef})


@dataclass(frozen=True)
class ClassParams:
    """Structural constraints: dimension n, per-variable power cap m, total degree cap d."""

    n: int
    m: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.m <= self.d:
            raise InputError(f"need 1 <= m <= d, got m={self.m}, d={self.d}")


def degree(f: Polynomial) -> int:
    """Total degree: the maximum of j_1 + ... + j_n over stored terms."""
    if f.is_zero:
        raise InputError("degree of the zero polynomial is undefined")
    return max(sum(j) for j in f.terms)


def leading_magnitude(f: Polynomial) -> tuple[float, MultiIndex]:
    """Largest |coefficient| among the top-total-degree terms, with a witness.

    Ties are broken by picking the lexicographically largest exponent tuple,
    so the witness is deterministic.
    """
    d = degree(f)
    best: tuple[float, MultiIndex] | None = None
    for exps, coef in f.terms.items():
        if sum(exps) != d:
            continue
        mag = abs(coef)
        if best is None or mag > best[0] or (mag == best[0] and exps > best[1]):
            best = (mag, exps)
    assert best is not None
    return best


def active_variables(f: Polynomial) -> list[int]:
    """Positions (0-based, in the exponent tuples) of the variables some term
    uses, ascending; a constant has none."""
    return sorted({i for exps in f.terms for i, e in enumerate(exps) if e})


def max_var_power(f: Polynomial) -> int:
    """Largest power to which any single variable enters."""
    if f.is_zero:
        raise InputError("max_var_power of the zero polynomial is undefined")
    return max(max(j) for j in f.terms)


def evaluate_batch(
    f: Polynomial, cols: Sequence[np.ndarray], out: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate f at N points given by its n coordinate columns: any sequence
    of n equal-length 1-D arrays, such as column views of a block of normals
    (an (N, n) array ``x`` gives them as ``x.T``).  The values go into
    ``out``, a float64 array of length N such as a slice of a larger output,
    or a new array when it is None; either is returned.

    Each variable's powers come from one running product, of which only the
    exponents some term uses are kept, so memory does not grow with the
    degree; the cost is O(terms * n * N) multiplies.  Each term is built in
    one buffer, ``coef * p_first`` and then ``*= p`` for its other factors,
    and added to a sum that starts from zeros: the rounding of every value
    depends only on its own point, so evaluating the points in blocks gives
    the same bits as evaluating them at once.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in cols]
    if len(cols) != f.n:
        raise InputError(f"{len(cols)} columns for a polynomial in {f.n} variables")
    if any(c.ndim != 1 or c.shape != cols[0].shape for c in cols):
        raise InputError(f"columns must be 1-D of one length, got shapes "
                         f"{sorted({c.shape for c in cols})}")
    size = cols[0].shape[0]
    if out is None:
        out = np.empty(size)
    elif out.shape != (size,) or out.dtype != np.float64:
        raise InputError(f"out must be float64 of shape ({size},), got "
                         f"{out.dtype} of shape {out.shape}")
    out.fill(0.0)
    if f.is_zero:
        return out
    pows: list[dict[int, np.ndarray]] = []
    for i, x in enumerate(cols):
        wanted = {exps[i] for exps in f.terms}
        col, power = {}, x
        for e in range(1, max(wanted) + 1):
            if e > 1:
                power = power * x
            if e in wanted:
                col[e] = power
        pows.append(col)
    term = np.empty(size)
    for exps, coef in f.terms.items():
        factors = [pows[i][e] for i, e in enumerate(exps) if e]
        if not factors:
            out += coef
            continue
        np.multiply(coef, factors[0], out=term)
        for p in factors[1:]:
            term *= p
        out += term
    return out


def add(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.n != g.n:
        raise InputError(f"dimensions differ: {f.n} vs {g.n}")
    terms = dict(f.terms)
    for exps, coef in g.terms.items():
        terms[exps] = terms.get(exps, 0.0) + coef
    return Polynomial(f.n, terms)


def scale(f: Polynomial, alpha: float) -> Polynomial:
    """Multiply every coefficient by a nonzero scalar."""
    alpha = float(alpha)
    if alpha == 0.0:
        raise InputError("scaling by zero is rejected")
    return Polynomial(f.n, {exps: alpha * c for exps, c in f.terms.items()})


def multiply(f: Polynomial, g: Polynomial) -> Polynomial:
    """Distributive product in canonical sparse form."""
    if f.n != g.n:
        raise InputError(f"dimensions differ: {f.n} vs {g.n}")
    terms: dict[MultiIndex, float] = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            terms[key] = terms.get(key, 0.0) + ca * cb
    return Polynomial(f.n, terms)


def _class_counts(params: ClassParams) -> list[list[int]]:
    """Count table for the exponent tuples in {0..m}^n of total at most d.

    ``table[p][r]`` is the number of tuples over positions p..n-1 whose
    entries sum to at most r, for r up to ``min(d, n * m)``; row n is all
    ones (the empty tuple).  Raises ``InputError`` as soon as a count passes
    the int64 range ``rng.choice`` can draw from, since counts only grow
    towards row 0.
    """
    n, m, d = params.n, params.m, params.d
    width = min(d, n * m) + 1
    limit = int(np.iinfo(np.int64).max)
    table = [[1] * width]
    for _ in range(n):
        below = table[-1]
        row = [sum(below[max(0, r - m) : r + 1]) for r in range(width)]
        if row[-1] - 1 > limit:
            raise InputError(
                f"class (n={n}, m={m}, d={d}) has more than {limit} exponent tuples"
            )
        table.append(row)
    table.reverse()
    return table


def _unrank(table: list[list[int]], rank: int) -> MultiIndex:
    """The tuple at position ``rank`` among the tuples ``table`` counts, in
    ``itertools.product(range(m + 1), repeat=n)`` order: at each position,
    skip the blocks of smaller entries while the rank lies past them."""
    exps = []
    r = len(table[0]) - 1
    for below in table[1:]:
        e = 0
        while rank >= below[r - e]:
            rank -= below[r - e]
            e += 1
        exps.append(e)
        r -= e
    return tuple(exps)


def random_in_class(params: ClassParams, seed: int) -> Polynomial:
    """Draw a random polynomial from the (n, m, d) class, deterministic per seed.

    Picks a random subset of 2 to ``CLASS_MAX_TERMS`` admissible exponent
    tuples (fewer if the class has fewer), draws coefficients uniformly on
    [-1, 1], adds a constant term with probability 1/2, and rescales so that
    the leading magnitude equals 1.  Degenerate draws (constant, or with a
    vanishing leading coefficient) are redrawn from the same stream.

    The admissible tuples are the nonzero ones in {0..m}^n of total at most
    d, indexed in ``itertools.product`` order.  They are never listed: a
    count table gives their number, and unranking (Kreher & Stinson,
    *Combinatorial Algorithms*, ch. 2) turns each drawn index into its
    tuple.  The zero tuple comes first in that order, so index i is rank
    i + 1.  This costs O(n * m * min(d, n * m)) for the table and O(n * m)
    per term, against (m + 1)^n for listing them.  The RNG calls are the
    ones a draw from the listed tuples makes, so a seed gives the same
    polynomial either way (``tests/test_poly.py`` pins 122 seeds' draws).
    A class of more than 2^63 - 1 tuples is an ``InputError``.
    """
    table = _class_counts(params)
    count = table[0][-1] - 1
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pool = min(CLASS_MAX_TERMS, count)
    for _ in range(100):
        k = int(rng.integers(min(2, pool), pool + 1))
        chosen = rng.choice(count, size=k, replace=False)
        terms: dict[MultiIndex, float] = {}
        for idx in chosen:
            terms[_unrank(table, int(idx) + 1)] = float(rng.uniform(-1.0, 1.0))
        if rng.uniform() < 0.5:
            terms[(0,) * params.n] = float(rng.uniform(-1.0, 1.0))
        f = Polynomial(params.n, terms)
        if f.is_zero or degree(f) < 1:
            continue
        lead, _ = leading_magnitude(f)
        if lead < 1e-6:
            continue
        return scale(f, 1.0 / lead)
    raise InputError("could not draw a non-degenerate polynomial in 100 tries")


# --- JSON wire format: {"n": int, "terms": [{"exp": [j1, ..., jn], "coef": c}]} ---


def to_json_dict(f: Polynomial) -> dict:
    return {
        "n": f.n,
        "terms": [
            {"exp": list(exps), "coef": f.terms[exps]} for exps in sorted(f.terms)
        ],
    }


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def from_json_dict(data: Mapping) -> Polynomial:
    """The polynomial of ``{"n": int, "terms": [{"exp": [int, ...], "coef": number}]}``."""
    try:
        n, raw = data["n"], data["terms"]
        exps, coefs = [t["exp"] for t in raw], [t["coef"] for t in raw]
        if not all(_is_int(v) for v in (n, *(e for exp in exps for e in exp))):
            raise TypeError("n and every exponent must be integers")
        if not all(_is_int(c) or isinstance(c, float) for c in coefs):
            raise TypeError("every coefficient must be a number")
        terms: dict[MultiIndex, float] = {}
        for exp, c in zip(exps, coefs):  # like terms add up
            key = tuple(exp)
            terms[key] = terms.get(key, 0.0) + float(c)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed polynomial object: {exc}") from exc
    return Polynomial(n, terms)


def dumps(f: Polynomial) -> str:
    return json.dumps(to_json_dict(f), sort_keys=True)


def loads(text: str) -> Polynomial:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid polynomial JSON: {exc}") from exc
    return from_json_dict(data)
