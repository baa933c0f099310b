"""The four workloads: which CLI invocations a run makes, derived from its seed.

A run repeats one *round* of operations.  The round's inputs are drawn by the
seed from pools in which every input was run once at the commit that added
the benchmark (``vet.py``) and exited 0.  The CLI is deterministic given its
arguments, so no seed can pick an input that fails.  The one failing input
(``WIDE_FAILING_SEED``) sits in every ``verify-wide`` round, so the failed
share is the same in every run, whatever the seed and the run length.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

SAMPLES = 1_000_000
FAMILY_CHECKS = (
    "cf-decay",
    "degree-envelope",
    "modulus-envelope",
    "modulus-equivalence",
    "small-set",
    "tv-vs-kr",
)

# verify-all members (n=3, m=1, d=3), one family seed each.  Of seeds 1..80,
# these exit 3 because the histogram step leaves fewer than 3 probes below
# eps = 1 ("probe range [...] is empty" or "envelope fit needs at least 3
# positive curve points"): see the FOUND line on random_in_class in CHANGES.md.
FAMILY_EXIT_3 = (2, 6, 29, 44, 66, 67, 71)
FAMILY_POOL = tuple(s for s in range(1, 81) if s not in FAMILY_EXIT_3)
FAMILY_ROUND = 6

# verify-all members (n=14, m=2, d=3).  Of seeds 1..40, 7, 9, 10, 11, 14, 16,
# 22, 23, 25, 27, 29, 31, 32, 33 and 37 fail modulus-envelope with a ratio
# slope above MC_SLOPE_RANGE's upper end (the other FOUND line).  Seed 7 is
# in every round and counts as failed.
WIDE_FAILING_SEED = 7
# The passing seeds, in strata by the number of terms of the member's
# polynomial (2-4, 6-7, 8-9, 10-13), which sets most of the differences in
# operation time (evaluating 3 x 1M samples of 14 variables).  A round takes
# one seed from each stratum, so every round has the same cost profile.
WIDE_STRATA = (
    (1, 17, 18, 21, 28, 40),
    (3, 12, 13, 26, 38),
    (2, 4, 6, 15, 24, 35, 39),
    (5, 8, 19, 20, 30, 34, 36),
)

# modulus inputs: every sample seed in 1..16 passes for each polynomial.
MODULUS_POLYS = {
    "x1": {"n": 1, "terms": [{"exp": [1], "coef": 1.0}]},
    "x1^2": {"n": 1, "terms": [{"exp": [2], "coef": 1.0}]},
    "x1*x2": {"n": 2, "terms": [{"exp": [1, 1], "coef": 1.0}]},
}
MODULUS_SEEDS = tuple(range(1, 17))

# cf inputs: indices into cf_pieces(), all of 1..30 pass; the sample seed is
# the index too.
CF_POOL = tuple(range(1, 31))
CF_ROUND = 3


@dataclass(frozen=True)
class Op:
    """One CLI invocation (``--out`` is added per run) and what its checks need."""

    kind: str  # "verify" | "modulus" | "cf"
    label: str
    argv: tuple[str, ...]
    spec: dict


def verify_op(n: int, m: int, d: int, seed: int) -> Op:
    """``may_fail`` names the check families this member is known to fail
    (exit 2); every other member must exit 0."""
    argv = ("verify-all", "--n", str(n), "--m", str(m), "--d", str(d),
            "--count", "1", "--samples", str(SAMPLES), "--grid", "400",
            "--seed", str(seed))
    known = (n, m, d, seed) == (14, 2, 3, WIDE_FAILING_SEED)
    return Op("verify", f"verify n={n} m={m} d={d} seed={seed}", argv,
              {"n": n, "m": m, "d": d, "may_fail": ("modulus-envelope",) if known else ()})


def modulus_op(name: str, seed: int) -> Op:
    argv = ("modulus", "--poly", json.dumps(MODULUS_POLYS[name]),
            "--samples", str(SAMPLES), "--grid", "2048", "--seed", str(seed))
    return Op("modulus", f"modulus {name} seed={seed}", argv, {"poly": name})


def cf_pieces(index: int) -> list[tuple[str, float]]:
    """Independent pieces of the index-th cf polynomial: ("prod", a) is
    a*x_i*x_j, ("sq", b) is b*x_i^2 and ("lin", c) is c*x_i, each on its own
    variables, so |phi| is the product of the pieces' closed forms."""
    rng = random.Random(f"cf-closed-form:{index}")
    a = round(rng.uniform(0.5, 2.0), 3)
    b = round(rng.uniform(0.2, 1.0), 3)
    c = round(rng.uniform(0.05, 0.5), 3)
    shapes = ([("prod", a), ("lin", c)],
              [("prod", a), ("sq", b)],
              [("prod", a), ("sq", b), ("lin", c)])
    return shapes[index % 3]


def cf_polynomial(pieces: list[tuple[str, float]]) -> dict:
    n = sum(2 if kind == "prod" else 1 for kind, _ in pieces)
    terms, var = [], 0
    for kind, coef in pieces:
        exp = [0] * n
        if kind == "prod":
            exp[var] = exp[var + 1] = 1
            var += 2
        else:
            exp[var] = 2 if kind == "sq" else 1
            var += 1
        terms.append({"exp": exp, "coef": coef})
    return {"n": n, "terms": terms}


def cf_op(index: int) -> Op:
    pieces = cf_pieces(index)
    argv = ("cf", "--poly", json.dumps(cf_polynomial(pieces)),
            "--samples", str(SAMPLES), "--seed", str(index))
    return Op("cf", f"cf index={index}", argv, {"pieces": pieces})


def build_round(workload: str, seed: int) -> list[Op]:
    """The operations one round of ``workload`` runs for benchmark seed ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-family":
        return [verify_op(3, 1, 3, s) for s in rng.sample(FAMILY_POOL, FAMILY_ROUND)]
    if workload == "verify-wide":
        return [verify_op(14, 2, 3, WIDE_FAILING_SEED)] + [
            verify_op(14, 2, 3, rng.choice(stratum)) for stratum in WIDE_STRATA]
    if workload == "modulus-fine":
        return [modulus_op(name, rng.choice(MODULUS_SEEDS)) for name in MODULUS_POLYS]
    if workload == "cf-closed-form":
        return [cf_op(i) for i in rng.sample(CF_POOL, CF_ROUND)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-family", "verify-wide", "modulus-fine", "cf-closed-form")
