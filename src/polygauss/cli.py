"""Command-line harness: polynomial -> samples -> density -> functionals -> reports.

Subcommands: variance | modulus | cf | distance | verify-all.
A flat JSON config holds the fields a subcommand reads (``COMMANDS``) and
nothing else; each flag overrides its field.  Identical config + seed
reproduces byte-identical data outputs (timings live only in the run
manifest).

Exit codes: 0 all verdicts pass, 2 verdict failure, 3 input error,
4 resolution or noise-floor error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .charfn import cf_decay_check, decay_exponents, default_t_grid, ecf_modulus
from .density import (
    GriddedDensity,
    SampleSet,
    add_samples,
    ecdf,
    histogram_density,
    quantile_grid,
    sample,
    sample_many,
)
from .errors import InputError, ResolutionError
from .functionals import (
    BoundReport,
    EnvelopeParams,
    balancing_epsilon,
    default_probe_grid,
    degree_envelope_check,
    dual_modulus_curve,
    envelope_check,
    modulus_equivalence_check,
    shift_modulus_curve,
    small_set_check,
    tv_kr_rate_ratio,
    tv_vs_kr_check,
)
from .moments import variance, variance_via_hermite
from .poly import (
    ClassParams,
    Polynomial,
    active_variables,
    degree,
    from_json_dict,
    leading_magnitude,
    loads,
    max_var_power,
    random_in_class,
    scale,
    to_json_dict,
    variable,
)

EXIT_OK = 0
EXIT_VERDICT = 2
EXIT_INPUT = 3
EXIT_RESOLUTION = 4

# Ratio-trend window of the Monte Carlo scaling laws (modulus and small
# ball).  The laws are upper bounds, so only a ratio that grows as eps falls
# refutes one.  Omega and the small-ball mass never fall as eps grows, so
# below the leading magnitude no ratio slope is under -1/m: the lower end
# can fail an m = 1 law only.  Oracle-grade small-eps curves are held to the
# tight symmetric window.
MC_SLOPE_RANGE = (-0.6, math.inf)

CF_SAMPLES = 200_000  # verify-all's decay check reads this many of a member's samples
# verify-all's distance check compares f with g = f + PERTURBATION * x1, the
# sum of the draws of f and PERTURBATION * x1: one add, not a second
# evaluation of f (``distance`` still evaluates its ``polynomial_b``)
PERTURBATION = 0.1


# Every config field: its default, accepted JSON types, smallest value (None:
# not checked here; ClassParams checks n, m and d) and flag (None: config only).
_Field = namedtuple("_Field", "default types least flag", defaults=(None, None))
FIELDS = {
    "seed": _Field(1, int, 0, "--seed"),
    "samples": _Field(1_000_000, int, 1, "--samples"),
    "grid": _Field(400, int, 1, "--grid"),
    "out": _Field("out", str, flag="--out"),
    "svg": _Field(False, bool, flag="--svg"),
    "corrupt_envelope_exponent": _Field(0.0, (int, float)),
    "polynomial": _Field(None, (str, dict), flag="--poly"),
    "polynomial_b": _Field(None, (str, dict), flag="--poly-b"),
    **{key: _Field(None, int, flag=f"--{key}") for key in ("n", "m", "d")},
    "count": _Field(10, int, 0, "--count"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route usage errors to exit code 3
        raise InputError(message)


def _build_parser() -> _Parser:
    """One subparser per command, holding the flags of the fields it reads."""
    p = _Parser(prog="polygauss", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, fields) in COMMANDS.items():
        s = sub.add_parser(name)
        s.add_argument("--config", type=str, default=None)
        for key in fields:
            f = FIELDS[key]
            if f.types is bool:
                s.add_argument(f.flag, dest=key, action="store_true", default=None)
            elif f.flag is not None:
                s.add_argument(f.flag, dest=key, type=int if f.types is int else str)
    return p


def _fits(val, rule) -> bool:
    """``val`` has a type in ``rule`` (a bool is no int) and, if a float, is
    finite: json.loads reads NaN and Infinity, which JSON lacks."""
    return (isinstance(val, rule) and (rule is bool or not isinstance(val, bool))
            and (not isinstance(val, float) or math.isfinite(val)))


def _read_text(path: Path, what: str) -> str:
    if not path.exists():
        raise InputError(f"{what} file not found: {path}")
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} file {path} is not UTF-8: {exc.reason} "
                         f"at byte {exc.start}") from exc


def _load_config(args: argparse.Namespace) -> dict:
    """The fields ``args.command`` reads: defaults, then the config file,
    then the flags; a field the command does not read exits 3."""
    fields = COMMANDS[args.command][1]
    cfg = {key: FIELDS[key].default for key in fields}
    if args.config is not None:
        try:
            user = json.loads(_read_text(Path(args.config), "config"))
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid config JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise InputError("config must be a JSON object")
        unknown = set(user) - set(fields)
        if unknown:
            raise InputError(f"unknown config fields for {args.command}: {sorted(unknown)}")
        for key, val in user.items():
            if not ((val is None and FIELDS[key].default is None)
                    or _fits(val, FIELDS[key].types)):
                raise InputError(f"invalid config field {key!r}: {json.dumps(val)}")
        cfg.update(user)
    cfg.update({k: v for k in fields if (v := getattr(args, k, None)) is not None})
    for key in fields:
        if (least := FIELDS[key].least) is not None and cfg[key] < least:
            raise InputError(f"{key} must be >= {least}, got {cfg[key]}")
    return cfg


def _resolve_polynomial(spec, what: str = "polynomial") -> Polynomial:
    """A polynomial from a config dict, inline JSON, or a file named by
    ``@path`` or a bare path; errors name the field ``what``."""
    if spec is None:
        raise InputError(f"no {what} given (config field or --poly)")
    if isinstance(spec, str) and not spec.lstrip().startswith("{"):
        spec = _read_text(Path(spec.removeprefix("@")), what)
    try:
        return loads(spec) if isinstance(spec, str) else from_json_dict(spec)
    except InputError as exc:
        raise InputError(f"{what}: {exc}") from exc


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()[:16]


class _Run:
    """Collects output files, per-stage wall times and work counters for the
    run manifest."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.out = Path(cfg["out"])
        self.files: list[str] = []
        self.timings: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._t0 = time.perf_counter()

    def path(self, name: str) -> Path:
        """Where output ``name`` goes; the directory is made on first use, so
        a run that fails before writing leaves nothing behind."""
        self.out.mkdir(parents=True, exist_ok=True)
        self.files.append(name)
        return self.out / name

    def write_csv(self, name: str, header: str, *columns) -> None:
        """One row per index of ``columns``; ``.17g`` reads back every float exactly."""
        with open(self.path(name), "w") as fh:
            fh.write(header + "\n")
            for row in zip(*columns):
                fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")

    def write_json(self, name: str, payload) -> None:
        self.path(name).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )

    @contextlib.contextmanager
    def stage(self, name: str):
        """Add the wall time of the ``with`` body to stage ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - start

    def count(self, name: str, k: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def finish(self) -> None:
        self.timings["total"] = time.perf_counter() - self._t0
        self.write_json("run_manifest.json", {
            "config_hash": _config_hash(self.cfg),
            "tool_version": __version__,
            "files": sorted(self.files),
            "timings": self.timings,
            "counters": self.counters,
        })


def _sample(run: _Run, cfg: dict, jobs: list[tuple[Polynomial, int]]) -> list[SampleSet]:
    """The samples of each (polynomial, seed) job, drawn at once; the
    ``sample`` stage is the wall time of the joint draw.  ``samples_drawn``
    counts the values returned, ``normals_drawn`` the normals drawn for them:
    one per sample and variable some job uses."""
    with run.stage("sample"):
        if len(jobs) == 1:  # through ``sample``, which perfbench's tracer wraps
            out = [sample(jobs[0][0], cfg["samples"], jobs[0][1])]
        else:
            out = sample_many(jobs, cfg["samples"])
    run.count("samples_drawn", sum(s.count for s in out))
    used = set().union(*(active_variables(f) for f, _ in jobs))
    run.count("normals_drawn", cfg["samples"] * len(used))
    return out


def _envelope_params(f: Polynomial) -> EnvelopeParams:
    lead, _ = leading_magnitude(f)  # first, so the zero polynomial keeps its own message
    if degree(f) == 0:
        raise InputError("the scaling laws need a non-constant polynomial")
    return EnvelopeParams(m=max_var_power(f), d=degree(f), lead=lead)


def _modulus_reports(rho: GriddedDensity, params: EnvelopeParams, cfg: dict):
    """Probe grid, shift and dual modulus curves, and the envelope and
    equivalence reports built from them: (omega, sigma, envelope, equivalence)."""
    probes = default_probe_grid(rho)
    omega = shift_modulus_curve(rho, probes)
    sigma = dual_modulus_curve(rho, probes)
    env_report = envelope_check(
        omega, params, slope_range=MC_SLOPE_RANGE,
        exponent_bias=cfg["corrupt_envelope_exponent"],
    )
    return omega, sigma, env_report, modulus_equivalence_check(rho, sigma)


def _maybe_svg(run: _Run, cfg: dict, name: str, x, y, title, xlab, ylab) -> None:
    if cfg["svg"]:
        from .svg import line_chart

        line_chart(run.path(name), x, y, title, xlab, ylab)


# --- Subcommands --------------------------------------------------------------


def cmd_variance(cfg: dict) -> int:
    f = _resolve_polynomial(cfg["polynomial"])
    run = _Run(cfg)
    v_moment = variance(f)
    v_hermite = variance_via_hermite(f)
    (s,) = _sample(run, cfg, [(f, cfg["seed"])])
    mc = float(np.var(s.values))
    m4 = float(np.mean((s.values - s.values.mean()) ** 4))
    se = math.sqrt(max(m4 - mc * mc, 0.0) / s.count)
    rel_gap = abs(v_moment - v_hermite) / (1.0 + abs(v_moment))
    methods_ok = rel_gap <= 1e-9
    mc_ok = abs(mc - v_moment) <= 4.0 * se + 1e-12
    if v_moment == 0.0:
        print("warning: variance is zero (constant polynomial)")
    payload = {
        "moment_method": v_moment,
        "hermite_method": v_hermite,
        "monte_carlo": mc,
        "monte_carlo_se": se,
        "samples": s.count,
        "seed": cfg["seed"],
        "agreement": bool(methods_ok and mc_ok),
    }
    run.write_json("variance.json", payload)
    run.finish()
    print(f"variance (moment method) : {v_moment:.12g}")
    print(f"variance (hermite method): {v_hermite:.12g}")
    print(f"variance (monte carlo)   : {mc:.12g} +- {se:.3g}")
    print(f"agreement: {'pass' if payload['agreement'] else 'FAIL'}")
    return EXIT_OK if payload["agreement"] else EXIT_VERDICT


def cmd_modulus(cfg: dict) -> int:
    f = _resolve_polynomial(cfg["polynomial"])
    run = _Run(cfg)
    (s,) = _sample(run, cfg, [(f, cfg["seed"])])
    with run.stage("histogram"):
        rho = histogram_density(s, cfg["grid"])
    params = _envelope_params(f)
    with run.stage("checks"):
        omega, sigma, env_report, equiv_report = _modulus_reports(rho, params, cfg)
    s.values.astype("<f8", copy=False).tofile(run.path("samples.bin"))
    run.write_json("samples.bin.json",
                   {"seed": s.seed, "N": s.count, "polynomial": to_json_dict(f)})
    run.write_csv("omega.csv", "eps,value", omega.eps, omega.values)
    run.write_csv("sigma.csv", "eps,value", sigma.eps, sigma.values)
    run.write_csv("envelope_ratios.csv", "eps,ratio",
                  [row.eps for row in env_report.rows],
                  [row.lhs / (row.rhs / env_report.fitted_constant)
                   for row in env_report.rows])
    run.write_json("modulus_report.json", {
        "envelope": env_report.to_json_dict(),
        "equivalence": equiv_report.to_json_dict(),
        "params": {"m": params.m, "d": params.d, "lead": params.lead},
    })
    _maybe_svg(run, cfg, "omega.svg", omega.eps, omega.values,
               "shift modulus", "eps", "omega")
    _maybe_svg(run, cfg, "sigma.svg", sigma.eps, sigma.values,
               "dual modulus", "eps", "sigma")
    run.finish()
    ok = env_report.verdict and equiv_report.verdict
    print(f"envelope: fitted constant {env_report.fitted_constant:.4g}, "
          f"ratio slope {env_report.extras['ratio_slope']:+.3f} "
          f"-> {'pass' if env_report.verdict else 'FAIL'}")
    print(f"equivalence: worst margin {equiv_report.worst_margin:+.4g} "
          f"-> {'pass' if equiv_report.verdict else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_cf(cfg: dict) -> int:
    f = _resolve_polynomial(cfg["polynomial"])
    run = _Run(cfg)
    (s,) = _sample(run, cfg, [(f, cfg["seed"])])
    params = _envelope_params(f)
    with run.stage("checks"):
        curve = ecf_modulus(s, default_t_grid())
        report = cf_decay_check(curve, params)
    alpha_new, alpha_prior = decay_exponents(params, f.n)
    run.write_csv("cf_curve.csv", "t,modulus,stderr", curve.t, curve.modulus, curve.stderr)
    run.write_json("cf_report.json", {
        "decay": report.to_json_dict(),
        "log_exponents": {
            "structure_aware": alpha_new,
            "dimension_dependent": alpha_prior,
            "n": f.n, "m": params.m, "d": params.d,
        },
    })
    _maybe_svg(run, cfg, "cf_curve.svg", curve.t, np.maximum(curve.modulus, 1e-12),
               "ecf modulus", "t", "|phi|")
    run.finish()
    print(f"log-exponent comparison (n={f.n}, m={params.m}, d={params.d}): "
          f"structure-aware {alpha_new:g} vs dimension-dependent {alpha_prior:g}")
    slope = report.extras["ratio_slope"]  # None when too few probes have |a t| >= 1
    print(f"cf decay: fitted constant {report.fitted_constant:.4g}, "
          f"ratio slope {'n/a' if slope is None else format(slope, '+.3f')} "
          f"-> {'pass' if report.verdict else 'FAIL'}")
    return EXIT_OK if report.verdict else EXIT_VERDICT


def _distance_reports(
    run: _Run, params: EnvelopeParams, sf: SampleSet, sg: SampleSet, cfg: dict
) -> tuple[dict, BoundReport]:
    """Distances between f (envelope ``params``, samples ``sf``) and g
    (samples ``sg``), both histogrammed on the quantile grid of their pooled
    samples: the distance report's payload and the two-term report."""
    with run.stage("histogram"):
        grid = quantile_grid([sf, sg], cfg["grid"])
        rho_f = histogram_density(sf, cfg["grid"], grid)
        rho_g = histogram_density(sg, cfg["grid"], grid)
    with run.stage("checks"):
        report = tv_vs_kr_check(rho_f, rho_g, np.geomspace(0.05, 0.9, 8))
    tv = report.extras["tv"]
    kr = report.extras["kr"]
    if kr > 1e-9:
        eps_star = balancing_epsilon(kr, params.m, params.d)
        ratio = tv_kr_rate_ratio(tv, kr, params.m, params.d)
    else:
        eps_star, ratio = None, None
    return {
        "tv": tv,
        "kr": kr,
        "kr_le_tv": bool(kr <= tv + 1e-9),
        "two_term_bound": report.to_json_dict(),
        "balancing_eps": eps_star,
        "balancing_eps_in_range": None if eps_star is None else bool(0 < eps_star < 1),
        "rate_ratio": ratio,
        "verdict": report.verdict,
    }, report


def cmd_distance(cfg: dict) -> int:
    f = _resolve_polynomial(cfg["polynomial"])
    g = _resolve_polynomial(cfg["polynomial_b"], what="polynomial_b")
    run = _Run(cfg)
    params = _envelope_params(f)  # first, so a constant f keeps its message
    sf, sg = _sample(run, cfg, [(f, cfg["seed"]), (g, cfg["seed"] + 1)])
    payload, _ = _distance_reports(run, params, sf, sg, cfg)
    run.write_json("distance_report.json", payload)
    run.finish()
    print(f"tv = {payload['tv']:.6g}   kr = {payload['kr']:.6g}")
    if payload["rate_ratio"] is not None:
        print(f"rate ratio = {payload['rate_ratio']:.6g} "
              f"(balancing eps = {payload['balancing_eps']:.6g})")
    print(f"two-term bound: {'pass' if payload['verdict'] else 'FAIL'}")
    return EXIT_OK if payload["verdict"] else EXIT_VERDICT


def cmd_verify_all(cfg: dict) -> int:
    if None in (cfg["n"], cfg["m"], cfg["d"]):
        raise InputError("verify-all needs n, m and d")
    params = ClassParams(cfg["n"], cfg["m"], cfg["d"])
    count = cfg["count"]
    run = _Run(cfg)
    seeds = np.random.SeedSequence(cfg["seed"]).generate_state(
        max(3 * count, 1), dtype=np.uint64
    )
    families: dict[str, dict] = {}

    def record(report: BoundReport) -> None:
        slot = families.setdefault(
            report.check_id, {"passed": 0, "total": 0, "worst_margin": math.inf}
        )
        slot["total"] += 1
        slot["passed"] += int(report.verdict)
        slot["worst_margin"] = min(slot["worst_margin"], report.worst_margin)

    for k in range(count):
        with run.stage("draw"):
            f = random_in_class(params, int(seeds[3 * k]))
        x1 = scale(variable(params.n, 1), PERTURBATION)
        s, sd = _sample(run, cfg, [(f, int(seeds[3 * k + 1])), (x1, int(seeds[3 * k + 2]))])
        with run.stage("sample"):
            sg = add_samples(s, sd)
        del sd  # before the histograms, so peak memory holds two laws, not three
        with run.stage("histogram"):
            rho = histogram_density(s, cfg["grid"])
        env_params = _envelope_params(f)
        with run.stage("checks"):
            _, sigma, env_report, equiv_report = _modulus_reports(rho, env_params, cfg)
            record(equiv_report)
            record(small_set_check(ecdf(s), rho, env_params, MC_SLOPE_RANGE))
            record(env_report)
            record(degree_envelope_check(variance(f), sigma, env_params.d))

            cf_sub = SampleSet(s.values[:CF_SAMPLES], s.seed)
            curve = ecf_modulus(cf_sub, default_t_grid(lo=0.01))
            record(cf_decay_check(curve, env_params))

        record(_distance_reports(run, env_params, s, sg, cfg)[1])

    verdict = all(v["passed"] == v["total"] for v in families.values())
    for name, slot in families.items():
        if slot["worst_margin"] == math.inf:
            slot["worst_margin"] = None
    summary = {
        "family": {"n": params.n, "m": params.m, "d": params.d, "count": count},
        "seed": cfg["seed"],
        "checks": families,
        "verdict": verdict,
    }
    run.write_json("summary.json", summary)
    run.finish()
    failing = [n for n, v in families.items() if v["passed"] != v["total"]]
    for name, slot in sorted(families.items()):
        print(f"{name:20s} {slot['passed']}/{slot['total']} pass")
    if failing:
        print(f"FAIL: {', '.join(failing)}")
        return EXIT_VERDICT
    print("all checks pass" if count else "empty family, nothing to check")
    return EXIT_OK


# Each command's function and the config fields it reads; it takes no others.
COMMANDS = {
    "variance": (cmd_variance, ("seed", "samples", "out", "polynomial")),
    "modulus": (cmd_modulus, ("seed", "samples", "grid", "out", "svg",
                              "corrupt_envelope_exponent", "polynomial")),
    "cf": (cmd_cf, ("seed", "samples", "out", "svg", "polynomial")),
    "distance": (cmd_distance, ("seed", "samples", "grid", "out", "polynomial",
                                "polynomial_b")),
    "verify-all": (cmd_verify_all, ("seed", "samples", "grid", "out",
                                    "corrupt_envelope_exponent", "n", "m", "d", "count")),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        return COMMANDS[args.command][0](cfg)
    except ResolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    except (InputError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
