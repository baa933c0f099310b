"""Moduli of continuity of polynomial-image densities and their scaling law.

The shift modulus omega(rho, eps) and its dual form sigma(rho, eps) (a small
linear program over discretized test functions) measure the L1 regularity of
a density.  They are equivalent up to fixed factors:

    omega(rho, 2 eps) / 2  <=  sigma(rho, eps)  <=  2.5 omega(rho, eps)

For the image of a polynomial with per-variable power cap m, degree d and
leading magnitude a, the modulus and the small-ball probability
P(|W - c| <= eps/2) obey

    omega(rho_f, eps)  <=  C(m, d) (eps/a)^(1/m) (|ln(eps/a)|^(d-m) + 1)

This demo fits the constant and the exponent on closed-form densities where
everything is known: the product X1*X2 has m=1, d=2 and its modulus really
does carry the extra log factor (the raw log-log slope sits near 0.81 over
eps in [0.01, 0.1], not at 1; dividing the log factor out recovers 1/m).
"""

import sys
from pathlib import Path

import numpy as np

import polygauss as pg

# the closed-form densities are test oracles, kept beside the tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import oracle_density  # noqa: E402

# equivalence of the two moduli on a Monte Carlo histogram
s = pg.sample(pg.monomial(2, (1, 1)), 400_000, seed=7)
rho = pg.histogram_density(s, 400)
report = pg.modulus_equivalence_check(rho, pg.dual_modulus_curve(rho, pg.default_probe_grid(rho)))
print("equivalence (lower half) on the product histogram:",
      "pass" if report.verdict else "FAIL",
      f"(worst margin {report.worst_margin:+.4f})")

# scaling-law fit on the closed-form product density (m=1, d=2)
rho_p = oracle_density("product_normal", -9.0, 9.0, 9000)
curve = pg.shift_modulus_curve(rho_p, np.geomspace(0.01, 0.1, 13))
env = pg.envelope_check(curve, pg.EnvelopeParams(m=1, d=2))
fit = env.extras
print("\nproduct law (m=1, d=2):")
print(f"  fitted constant        {env.fitted_constant:.4f}")
print(f"  ratio trend slope      {fit['ratio_slope']:+.4f}  (flat = envelope shape is right)")
print(f"  raw log-log slope      {fit['slope_loglog']:.4f}  (dragged below 1 by the log factor)")
print(f"  log-adjusted exponent  {fit['slope_adjusted']:.4f}  (recovers 1/m = 1)")

# the square law has m = d = 2: pure exponent 1/2, no log factor
rho_c = oracle_density("chisq1", 0.0, 16.0, 8000)
curve_c = pg.shift_modulus_curve(rho_c, np.geomspace(0.01, 0.1, 13))
fit_c = pg.envelope_check(curve_c, pg.EnvelopeParams(m=2, d=2)).extras
print(f"\nsquare law (m=d=2): log-log slope {fit_c['slope_loglog']:.4f} (expect 1/2)")

# degree-only fallback: sigma <= C(d) Var^(-1/2d) eps^(1/d)
sigma_curve = pg.dual_modulus_curve(rho_c, np.geomspace(0.02, 0.3, 12))
drep = pg.degree_envelope_check(2.0, sigma_curve, d=2)
print(f"degree-only bound: slope {drep.extras['slope']:.3f} "
      f">= floor {drep.extras['slope_floor']:.3f} -> "
      f"{'pass' if drep.verdict else 'FAIL'}")

# small-ball law of x1^2: P(|x1^2 - c| <= eps/2), read from the ECDF between
# the balls that hold 1000 and 10000 samples, below the grid's reach.  The
# grid puts a cell centred on 0, the densest one; the sharpest run of 1000
# samples there is [0, w], so c = w/2 and the smallest ball reads
# P(x1^2 <= eps) = (2 eps/pi)^(1/2), the larger ones nearly P(x1^2 <= eps/2)
# = (eps/pi)^(1/2).  The window is the tight symmetric one, since x1^2 is the
# extremal law of m = 2.
s1 = pg.sample(pg.monomial(1, (2,)), 400_000, seed=9)
h1 = pg.histogram_density(s1, 401, (-0.02, 0.04))
rep = pg.small_set_check(pg.ecdf(s1), h1, pg.EnvelopeParams(m=2, d=2), (-0.15, 0.15))
print(f"\nsmall-ball law of x1^2 at c = {rep.extras['centre']:.1e}, "
      f"eps in [{rep.rows[0].eps:.1e}, {rep.rows[-1].eps:.1e}]:")
print(f"  fitted constant {rep.fitted_constant:.4f} (expect pi^(-1/2) = 0.5642 to "
      f"(2/pi)^(1/2) = 0.7979), ratio slope {rep.extras['ratio_slope']:+.4f} -> "
      f"{'pass' if rep.verdict else 'FAIL'}")
