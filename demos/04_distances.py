"""Total variation versus bounded-Lipschitz distance for polynomial images.

The total variation distance is the L1 distance of densities; the bounded-
Lipschitz (Kantorovich-Rubinstein) distance restricts the test functions to
be 1-Lipschitz as well, which makes it metrize weak convergence.  The two
are linked through the dual modulus: for any eps in (0, 1)

    d_TV <= 6 max(sigma_X(eps), sigma_Y(eps)) + d_KR / eps

Optimizing eps turns this into d_TV <= C d_KR^(1/(m+1)) (log factors), so
for laws in a fixed polynomial class, closeness in the weak metric forces
closeness in total variation at a quantified rate.
"""

import numpy as np

import polygauss as pg

N = 400_000
f = pg.monomial(2, (1, 1))
sf = pg.sample(f, N, seed=100)

print(f"{'delta':>6s} {'tv':>8s} {'kr':>8s} {'bound ok':>9s} {'eps*':>7s} {'ratio':>7s}")
for i, delta in enumerate((0.02, 0.05, 0.1, 0.2)):
    g = pg.Polynomial(2, {(1, 1): 1.0, (1, 0): delta})
    sg = pg.sample(g, N, seed=200 + i)
    grid = pg.quantile_grid([sf, sg], 400)
    hf = pg.histogram_density(sf, 400, grid)
    hg = pg.histogram_density(sg, 400, grid)
    rep = pg.tv_vs_kr_check(hf, hg, np.geomspace(0.05, 0.9, 8))
    tv, kr = rep.extras["tv"], rep.extras["kr"]
    eps_star = pg.balancing_epsilon(kr, 1, 2)
    ratio = pg.tv_kr_rate_ratio(tv, kr, 1, 2)
    print(f"{delta:6.2f} {tv:8.4f} {kr:8.4f} {str(rep.verdict):>9s} "
          f"{eps_star:7.4f} {ratio:7.3f}")

print("\nbounded rate ratios across the family witness the comparison law;")
print("at this sample size the small-delta distances sit at the Monte Carlo")
print("noise floor, so the table reports estimator output, not exact values.")
