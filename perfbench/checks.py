"""Output checks, computed apart from the program under test.

Each check reads the files one CLI invocation wrote and compares them with
closed forms built from scipy's ``ndtr`` and ``quad`` alone; nothing here
imports polygauss.  A check raises ``CheckFailed`` with the first
discrepancy it finds.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from workloads import FAMILY_CHECKS, SAMPLES, Op

CF_T_COUNT = 65  # default t grid: 16 per decade over [0.1, 1000]
CF_STDERR_MULTIPLE = 5.0
MAX_STDERR_RATIO = 1.5
# The largest density error budget (``budget_base`` in the report) each
# modulus polynomial may state: about 15% above the largest budget one run of
# each of the 16 pool seeds stated at the commit that added the benchmark
# (x1 0.0748, x1^2 0.181, x1*x2 0.0749; README.md).  The budget is the
# tolerance of the omega/sigma check, so a change cannot widen it unseen.
MODULUS_BUDGET_CAP = {"x1": 0.086, "x1^2": 0.208, "x1*x2": 0.086}


class CheckFailed(Exception):
    pass


def _csv(path: Path) -> np.ndarray:
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    if rows.shape[0] < 3:
        raise CheckFailed(f"{path.name}: {rows.shape[0]} rows, expected at least 3")
    return rows


def _json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


# --- verify-all ---------------------------------------------------------------


def failing_families(out: Path) -> list[str]:
    checks = _json(out / "summary.json").get("checks", {})
    return sorted(n for n, v in checks.items() if v.get("passed") != v.get("total"))


def check_verify(op: Op, out: Path, code: int) -> None:
    """Every check family is present with total 1, and the verdicts agree
    with the exit code."""
    summary = _json(out / "summary.json")
    family = summary.get("family")
    want = {k: op.spec[k] for k in ("n", "m", "d")} | {"count": 1}
    if family != want:
        raise CheckFailed(f"summary family {family}, expected {want}")
    checks = summary.get("checks", {})
    if sorted(checks) != list(FAMILY_CHECKS):
        raise CheckFailed(f"check families {sorted(checks)}, expected {list(FAMILY_CHECKS)}")
    for name, slot in checks.items():
        if slot.get("total") != 1 or slot.get("passed") not in (0, 1):
            raise CheckFailed(f"{name}: passed/total {slot.get('passed')}/{slot.get('total')}")
    all_pass = all(slot["passed"] == 1 for slot in checks.values())
    if summary.get("verdict") is not all_pass or (code == 0) is not all_pass:
        raise CheckFailed(
            f"exit {code}, verdict {summary.get('verdict')}, all families pass: {all_pass}")
    failing = failing_families(out)
    if failing and failing != list(op.spec["may_fail"]):
        raise CheckFailed(f"failing families {failing}, expected none or {list(op.spec['may_fail'])}")


# --- modulus: closed forms of omega and sigma -----------------------------------


def _p_abs_product_below(u: float) -> float:
    """P(|X1 X2| < u) = integral over y > 0 of (2 Phi(u/y) - 1) 2 phi(y) dy."""
    def integrand(y: float) -> float:
        return (2.0 * ndtr(u / y) - 1.0) * 2.0 * math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)

    return quad(integrand, 0.0, math.inf, limit=200)[0]


def _p_abs_normal_below(u: float) -> float:
    return 2.0 * float(ndtr(u)) - 1.0


def _chisq1_cdf(u: float) -> float:
    return 2.0 * float(ndtr(math.sqrt(u))) - 1.0 if u > 0 else 0.0


def modulus_closed_forms(poly: str):
    """(omega, sigma) as functions of eps for the law W of the polynomial.

    Symmetric unimodal W (x1, x1*x2): omega(eps) = 2 P(|W| < eps/2) and
    sigma(eps) = P(|W| <= eps).  Monotone W on [0, inf) (x1^2):
    omega(eps) = 2 P(W < eps) and sigma(eps) = P(W <= 2 eps).
    """
    if poly == "x1^2":
        return (lambda e: 2.0 * _chisq1_cdf(e)), (lambda e: _chisq1_cdf(2.0 * e))
    p_abs = _p_abs_normal_below if poly == "x1" else _p_abs_product_below
    return (lambda e: 2.0 * p_abs(0.5 * e)), p_abs


def check_modulus(op: Op, out: Path, code: int) -> None:
    """omega.csv and sigma.csv match the closed forms within the density's
    error budget as the report states it, and that budget is within the
    polynomial's cap, so a change cannot widen its own check."""
    report = _json(out / "modulus_report.json")
    budget = report.get("equivalence", {}).get("extras", {}).get("budget_base")
    cap = MODULUS_BUDGET_CAP[op.spec["poly"]]
    if not isinstance(budget, float) or not 0.0 < budget <= cap:
        raise CheckFailed(f"density budget {budget!r} outside (0, {cap}]")
    omega, sigma = modulus_closed_forms(op.spec["poly"])
    for name, exact in (("omega.csv", omega), ("sigma.csv", sigma)):
        for eps, value in _csv(out / name):
            want = exact(eps)
            if not abs(value - want) <= budget:
                raise CheckFailed(
                    f"{name} at eps={eps:.6g}: {value:.6g} vs closed form {want:.6g}, "
                    f"budget {budget:.4g}")


# --- cf: closed form of |phi| ------------------------------------------------------


def cf_closed_form(pieces, t: np.ndarray) -> np.ndarray:
    """|E exp(i t f)| for a sum of independent pieces a x_i x_j, b x_i^2, c x_i."""
    out = np.ones_like(t)
    for kind, coef in pieces:
        if kind == "prod":
            out *= (1.0 + (coef * t) ** 2) ** -0.5
        elif kind == "sq":
            out *= (1.0 + 4.0 * (coef * t) ** 2) ** -0.25
        else:
            out *= np.exp(-0.5 * (coef * t) ** 2)
    return out


def check_cf(op: Op, out: Path, code: int) -> None:
    """cf_curve.csv is the default t grid, its stderr is at least 1/sqrt(N)
    and at most MAX_STDERR_RATIO times that (room for a stated truncation
    bound), and the modulus is within CF_STDERR_MULTIPLE stderr of the
    closed form."""
    rows = _csv(out / "cf_curve.csv")
    t, mod, se = rows[:, 0], rows[:, 1], rows[:, 2]
    grid = np.geomspace(0.1, 1000.0, CF_T_COUNT)
    if t.shape != grid.shape or not np.allclose(t, grid, rtol=1e-12):
        raise CheckFailed(f"t grid of {t.shape[0]} points is not the default grid")
    floor = 1.0 / math.sqrt(SAMPLES)
    if not np.all((se >= floor * (1 - 1e-12)) & (se <= MAX_STDERR_RATIO * floor)):
        raise CheckFailed(f"stderr outside [1, {MAX_STDERR_RATIO}] / sqrt(N)")
    err = np.abs(mod - cf_closed_form(op.spec["pieces"], t)) / se
    worst = int(np.argmax(err))
    if not err[worst] <= CF_STDERR_MULTIPLE:
        raise CheckFailed(f"|phi| at t={t[worst]:.6g} is {err[worst]:.2f} stderr off")


CHECKS = {"verify": check_verify, "modulus": check_modulus, "cf": check_cf}


def check_op(op: Op, out: Path, code: int) -> None:
    """Check the exit code and the outputs of one operation.

    Every input was vetted, so its exit code is known: 0, or for a verify-all
    member with families that may fail, 2 with exactly those failing (0 is
    accepted too, for when the fault behind them is mended).  Any other code
    -- a traceback (-1), an input error (3), a failed verdict elsewhere -- is
    a check failure, so a change cannot make operations fail quickly and
    still be correct.
    """
    allowed = (0, 2) if op.spec.get("may_fail") else (0,)
    if code not in allowed:
        raise CheckFailed(f"exit {code}, expected {' or '.join(map(str, allowed))}")
    CHECKS[op.kind](op, out, code)


def data_digests(out: Path) -> dict[str, str]:
    """sha256 of every data file an operation wrote; the run manifest holds
    timings and is left out."""
    if not out.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "run_manifest.json"
    }
