"""Acceptance suite: every stated exit criterion at its stated tolerance.

Each test prints one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import numpy as np
from scipy.special import ndtr

import polygauss as pg
import polygauss.density as density
from polygauss.cli import main as cli_main
from polygauss.functionals import _shift_moduli, max_shift_index
from polygauss.lp import solve_chain_lp
from polygauss.poly import ClassParams, Polynomial, monomial, random_in_class

from oracles import brute_force_chain_lp, oracle_density


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status}  {detail}")


def test_criterion_1_variance_triple_agreement():
    t0 = time.perf_counter()
    params = ClassParams(4, 3, 6)
    worst_rel = 0.0
    for k in range(200):
        f = random_in_class(params, seed=10_000 + k)
        v1, v2 = pg.variance(f), pg.variance_via_hermite(f)
        worst_rel = max(worst_rel, abs(v1 - v2) / (1.0 + v1))
    worst_z = 0.0
    for k in range(20):
        f = random_in_class(params, seed=20_000 + k)
        v = pg.variance(f)
        s = pg.sample(f, 10**6, seed=30_000 + k)
        mc = float(np.var(s.values))
        m4 = float(np.mean((s.values - s.values.mean()) ** 4))
        se = math.sqrt(max(m4 - mc * mc, 0.0) / s.count)
        worst_z = max(worst_z, abs(mc - v) / se)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-9 and worst_z <= 4.0 and elapsed < 60.0
    report(1, "variance triple agreement", ok,
           f"rel gap {worst_rel:.2e}, worst z {worst_z:.2f}, {elapsed:.1f}s")
    assert worst_rel <= 1e-9
    assert worst_z <= 4.0
    assert elapsed < 60.0


def test_criterion_2_cf_oracles(x1_samples, x1sq_samples, x1x2_samples):
    n = x1_samples.count
    tol = 4.0 / math.sqrt(n)
    cases = [
        ("x1", x1_samples, lambda t: np.exp(-t**2 / 2), np.geomspace(0.2, 3.0, 10)),
        ("x1^2", x1sq_samples, lambda t: (1 + 4 * t**2) ** -0.25,
         np.geomspace(0.2, 500.0, 10)),
        ("x1*x2", x1x2_samples, lambda t: (1 + t**2) ** -0.5,
         np.geomspace(0.2, 100.0, 10)),
    ]
    worst = 0.0
    for _, samples, exact, ts in cases:
        curve = pg.ecf_modulus(samples, ts)
        worst = max(worst, float(np.abs(curve.modulus - exact(curve.t)).max()))
    curve = pg.ecf_modulus(x1x2_samples, pg.default_t_grid(10.0, 1e3, 16))
    keep = curve.modulus >= 5.0 / math.sqrt(n)
    slope = float(np.polyfit(np.log(curve.t[keep]), np.log(curve.modulus[keep]), 1)[0])
    ok = worst <= tol and -1.1 <= slope <= -0.9
    report(2, "cf oracle agreement", ok,
           f"worst |diff| {worst:.5f} vs {tol:.5f}, decay slope {slope:.3f}")
    assert worst <= tol
    assert -1.1 <= slope <= -0.9


def test_criterion_3_gaussian_shift_modulus():
    s = pg.sample(monomial(1, (1,)), 30_000_000, seed=101)
    h = pg.histogram_density(s, 3200)
    worst = 0.0
    for eps in (0.05, 0.1, 0.2):
        got = pg.shift_modulus_curve(h, [eps]).values[0]
        exact = 4.0 * ndtr(eps / 2.0) - 2.0
        worst = max(worst, abs(got - exact))
    ok = worst <= 0.005
    report(3, "gaussian shift modulus", ok, f"worst |diff| {worst:.5f} vs 0.005")
    assert worst <= 0.005


def test_criterion_4_dual_modulus_oracle():
    size = 100
    rho = pg.GriddedDensity(0.0, 1.0 / size, np.ones(size))
    worst = 0.0
    for eps in (0.1, 0.2, 0.5, 1.0):
        got = pg.dual_modulus(rho, eps)
        worst = max(worst, abs(got - min(2 * eps, 1.0)))
    uniform_ok = worst <= 2.0 / size

    rng = np.random.default_rng(404)
    lp_gap = 0.0
    grids = [(4, 0.3, 0.1), (6, 0.25, 0.07), (8, 0.5, 0.05),
             (12, 0.1, 0.09), (12, 0.2, 0.12), (12, 1.0, 1.0 / 11.0)]
    for size, box, slope in grids:
        for _ in range(2):
            w = rng.normal(size=size)
            a = solve_chain_lp(w, box, slope)
            b = brute_force_chain_lp(w, box, slope)
            lp_gap = max(lp_gap, abs(a - b))
    ok = uniform_ok and lp_gap <= 1e-9
    report(4, "dual modulus oracle", ok,
           f"uniform gap {worst:.4f} vs {2.0/100}, vertex-enum gap {lp_gap:.2e}")
    assert uniform_ok
    assert lp_gap <= 1e-9


def test_criterion_5_equivalence_suite(normal_oracle, chisq_oracle, product_oracle):
    densities = [
        ("normal", normal_oracle),
        ("chisq1", chisq_oracle),
        ("product", product_oracle),
    ]
    params = ClassParams(3, 2, 3)
    for k in range(5):
        f = random_in_class(params, seed=50_000 + k)
        s = pg.sample(f, 10**6, seed=60_000 + k)
        densities.append((f"random{k}", pg.histogram_density(s, 400)))
    failures = []
    worst = math.inf
    for name, rho in densities:
        sigma = pg.dual_modulus_curve(rho, pg.default_probe_grid(rho))
        rep = pg.modulus_equivalence_check(rho, sigma)
        worst = min(worst, rep.worst_margin + max(r.budget for r in rep.rows))
        # the upper half at its proved factor, zero budget:
        # sigma(eps) <= (1 + eps/(k step)) omega(k step), k = floor(eps/step)
        ks = [max_shift_index(rho, e) for e in sigma.eps]
        factors = 1.0 + sigma.eps / (np.array(ks) * rho.step)
        upper_ok = bool(np.all(sigma.values <= factors * _shift_moduli(rho, ks)))
        if not (rep.verdict and upper_ok):
            failures.append(name)
    ok = not failures
    report(5, "modulus equivalence suite", ok,
           f"{len(densities)} densities, failures: {failures or 'none'}")
    assert not failures


def test_criterion_6_scaling_envelope():
    # product case (power cap 1, degree 2): fine closed-form grid, eps in [1e-2, 1e-1]
    rho_p = oracle_density("product_normal", -9.0, 9.0, 9000)
    probes = np.geomspace(0.01, 0.1, 13)
    curve = pg.shift_modulus_curve(rho_p, probes)
    env_p = pg.envelope_check(curve, pg.EnvelopeParams(m=1, d=2))
    fit_p = env_p.extras
    # every row's rhs is the one fitted constant times the envelope, so
    # lhs / rhs spreads as value / envelope does
    ratios = [row.lhs / row.rhs for row in env_p.rows]
    ratios_ok = (
        math.isfinite(env_p.fitted_constant)
        and abs(fit_p["ratio_slope"]) <= 0.15
        and max(ratios) / min(ratios) < 2.0
    )
    # exponent check with the log factor divided out; the raw log-log slope
    # is pinned near 0.81 by the log factor itself and is reported alongside
    exponent_ok = 0.9 <= fit_p["slope_adjusted"] <= 1.1

    rho_c = oracle_density("chisq1", 0.0, 16.0, 8000)
    curve_c = pg.shift_modulus_curve(rho_c, probes)
    fit_c = pg.envelope_check(curve_c, pg.EnvelopeParams(m=2, d=2)).extras
    square_ok = 0.4 <= fit_c["slope_loglog"] <= 0.6

    ok = ratios_ok and exponent_ok and square_ok
    report(6, "scaling-law envelope", ok,
           f"ratio slope {fit_p['ratio_slope']:+.3f}, adjusted exponent "
           f"{fit_p['slope_adjusted']:.3f} (raw {fit_p['slope_loglog']:.3f}), "
           f"square-case slope {fit_c['slope_loglog']:.3f}")
    assert ratios_ok
    assert exponent_ok
    assert square_ok


def test_criterion_7_distance_comparison(x1x2_samples):
    f = monomial(2, (1, 1))
    n = x1x2_samples.count
    all_pass = True
    ratios = []
    for i, delta in enumerate((0.02, 0.05, 0.1, 0.2)):
        g = Polynomial(2, {(1, 1): 1.0, (1, 0): delta})
        sg = pg.sample(g, n, seed=70_000 + i)
        grid = pg.quantile_grid([x1x2_samples, sg], 400)
        hf = pg.histogram_density(x1x2_samples, 400, grid)
        hg = pg.histogram_density(sg, 400, grid)
        rep = pg.tv_vs_kr_check(hf, hg, np.geomspace(0.05, 0.9, 8))
        all_pass &= rep.verdict
        ratios.append(pg.tv_kr_rate_ratio(rep.extras["tv"], rep.extras["kr"], 1, 2))
    bounded = all(math.isfinite(r) and 0 < r < 10.0 for r in ratios)
    ok = all_pass and bounded
    report(7, "tv vs kr comparison", ok,
           f"probes pass: {all_pass}, rate ratios {[f'{r:.3f}' for r in ratios]}")
    assert all_pass
    assert bounded


def test_criterion_8_determinism(tmp_path, monkeypatch):
    cfg = {
        "n": 2, "m": 1, "d": 2, "count": 2,
        "samples": 150_000, "grid": 128, "seed": 7,
    }
    outputs = []
    for tag in ("a", "b"):
        run_cfg = dict(cfg, out=str(tmp_path / tag))
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(run_cfg))
        assert cli_main(["verify-all", "--config", str(path)]) == 0
        outputs.append({
            p.name: p.read_bytes()
            for p in sorted((tmp_path / tag).iterdir())
            if p.name != "run_manifest.json"
        })
    bytes_ok = outputs[0] == outputs[1]

    f = random_in_class(ClassParams(3, 2, 4), seed=88)
    monkeypatch.setattr(density, "THREADS", 1)
    s1 = pg.sample(f, 2_500_000, seed=99)
    monkeypatch.setattr(density, "THREADS", 8)
    s8 = pg.sample(f, 2_500_000, seed=99)
    threads_ok = np.array_equal(s1.values, s8.values)
    ok = bytes_ok and threads_ok
    report(8, "determinism", ok,
           f"byte-identical outputs: {bytes_ok}, thread-count invariance: {threads_ok}")
    assert bytes_ok
    assert threads_ok


def test_criterion_9_verify_all_budget(tmp_path):
    t0 = time.perf_counter()
    code = cli_main([
        "verify-all", "--n", "3", "--m", "1", "--d", "3", "--count", "10",
        "--samples", "1000000", "--grid", "400",
        "--seed", "20260808", "--out", str(tmp_path / "va"),
    ])
    elapsed = time.perf_counter() - t0
    summary = json.loads((tmp_path / "va" / "summary.json").read_text())
    ok = code == 0 and elapsed < 120.0 and summary["verdict"]
    report(9, "end-to-end budget", ok,
           f"exit {code}, {elapsed:.1f}s < 120s, "
           f"{sum(v['passed'] for v in summary['checks'].values())} checks passed")
    assert code == 0
    assert summary["verdict"] is True
    assert elapsed < 120.0
