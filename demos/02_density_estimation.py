"""Monte Carlo density estimates against closed-form references.

Three laws with known densities anchor the estimators: X1 (standard normal),
X1^2 (density e^{-x/2}/sqrt(2 pi x), singular at 0), and X1*X2 (a Bessel-type
density, log-singular at 0).  Histograms are compared to cell-averaged
closed forms in L1, next to the L1 noise the histogram's counts are expected
to carry.
"""

import sys
from pathlib import Path

import numpy as np

import polygauss as pg

# the closed-form densities are test oracles, kept beside the tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import oracle_density  # noqa: E402

N = 400_000
cases = [
    ("normal", pg.monomial(1, (1,)), "normal"),
    ("square", pg.monomial(1, (2,)), "chisq1"),
    ("product", pg.monomial(2, (1, 1)), "product_normal"),
]

for name, f, kind in cases:
    s = pg.sample(f, N, seed=42)
    hist = pg.histogram_density(s, 400)
    oracle = oracle_density(kind, hist.lo, hist.hi, hist.size)
    l1_hist = hist.step * np.abs(hist.values - oracle.values).sum()
    print(f"{name:8s} histogram L1 error {l1_hist:.4f}")
    print(f"{'':8s} grid [{hist.lo:+.2f}, {hist.hi:+.2f}] step {hist.step:.4f} "
          f"mass {hist.mass:.4f} clipped {hist.clipped_mass:.1e} "
          f"expected noise {hist.l1_noise:.4f}")

# empirical CDF interval probabilities
cdf = pg.ecdf(pg.sample(pg.monomial(1, (2,)), N, seed=42))
print("\nP(X^2 in (0, 1]) empirical:", round(cdf(1.0) - cdf(0.0), 4),
      "(exact 0.6827)")
