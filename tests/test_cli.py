import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polygauss as pg
from polygauss.cli import COMMANDS, FIELDS, _build_parser, main
from polygauss.errors import InputError, ResolutionError
from polygauss.poly import dumps, monomial, scale, variable

from oracles import oracle_density

X1X2 = dumps(monomial(2, (1, 1)))
X1SQ = dumps(monomial(1, (2,)))
CONSTANT = '{"n": 1, "terms": [{"exp": [0], "coef": 3.0}]}'
ZERO_1E17 = '{"n": 100000000000000000, "terms": []}'


def run(args):
    return main(args)


def small_family_cfg(tmp_path, out, **extra):
    cfg = {
        "n": 2, "m": 1, "d": 2, "count": 2,
        "samples": 150_000,
        "grid": 128,
        "seed": 7,
        "out": str(tmp_path / out),
    }
    cfg.update(extra)
    path = tmp_path / f"{out}.json"
    path.write_text(json.dumps(cfg))
    return path


def read_outputs(outdir):
    return {
        p.name: p.read_bytes()
        for p in sorted(Path(outdir).iterdir())
        if p.name != "run_manifest.json"
    }


def test_variance_command(tmp_path, capsys):
    code = run([
        "variance", "--poly", X1X2, "--samples", "200000",
        "--seed", "3", "--out", str(tmp_path / "v"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "v" / "variance.json").read_text())
    assert payload["moment_method"] == pytest.approx(1.0)
    assert payload["hermite_method"] == pytest.approx(1.0)
    assert payload["agreement"] is True
    assert "pass" in capsys.readouterr().out


def test_variance_command_constant_warns(tmp_path, capsys):
    code = run([
        "variance", "--poly", '{"n": 1, "terms": [{"exp": [0], "coef": 2.0}]}',
        "--samples", "200000", "--out", str(tmp_path / "v"),
    ])
    assert code == 0
    assert "variance is zero" in capsys.readouterr().out


def test_modulus_command_files_and_rerun(tmp_path):
    out1 = tmp_path / "m1"
    args = ["modulus", "--poly", X1X2, "--samples", "200000",
            "--grid", "128", "--seed", "11"]
    assert run(args + ["--out", str(out1)]) == 0
    for name in ("omega.csv", "sigma.csv", "envelope_ratios.csv",
                 "modulus_report.json", "samples.bin", "run_manifest.json"):
        assert (out1 / name).exists()
    # omega and the envelope ratios have a row per envelope probe; sigma and
    # the equivalence check a row per eps
    report = json.loads((out1 / "modulus_report.json").read_text())
    n_env = len(report["envelope"]["probes"])
    n_sigma = len(report["equivalence"]["probes"])
    for name, header, rows in (("omega.csv", "eps,value", n_env),
                               ("sigma.csv", "eps,value", n_sigma),
                               ("envelope_ratios.csv", "eps,ratio", n_env)):
        lines = (out1 / name).read_text().splitlines()
        assert lines[0] == header and len(lines) == 1 + rows, name
    out2 = tmp_path / "m2"
    assert run(args + ["--out", str(out2)]) == 0
    assert read_outputs(out1) == read_outputs(out2)
    # the raw little-endian float64 samples and their JSON sidecar
    values = np.fromfile(out1 / "samples.bin", dtype="<f8")
    assert np.array_equal(values, pg.sample(monomial(2, (1, 1)), 200_000, 11).values)
    assert json.loads((out1 / "samples.bin.json").read_text()) == {
        "seed": 11, "N": 200_000, "polynomial": json.loads(X1X2),
    }


def test_modulus_probes_past_the_grid_span(tmp_path, capsys):
    # step ~2.5e-229: every probe's box holds the whole grid, where sigma is flat
    poly = '{"n": 1, "terms": [{"exp": [34], "coef": 1.46e-246}]}'
    out = tmp_path / "m"
    code = run(["modulus", "--poly", poly, "--samples", "12000", "--out", str(out)])
    assert "modulus values must lie in [0, 2]" not in capsys.readouterr().err
    assert code == 0
    sigma = [float(line.split(",")[1])
             for line in (out / "sigma.csv").read_text().splitlines()[1:]]
    assert max(sigma) <= 1.0


def test_cf_command(tmp_path, capsys):
    code = run([
        "cf", "--poly", X1SQ, "--samples", "200000",
        "--seed", "5", "--out", str(tmp_path / "cf"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "cf" / "cf_report.json").read_text())
    assert report["decay"]["verdict"] is True
    assert report["log_exponents"]["structure_aware"] == 0.0
    assert "log-exponent comparison" in capsys.readouterr().out
    lines = (tmp_path / "cf" / "cf_curve.csv").read_text().splitlines()
    assert lines[0] == "t,modulus,stderr"
    assert len(lines) == 1 + len(pg.default_t_grid())


def test_cf_noise_floor_exit(tmp_path):
    poly = '{"n": 1, "terms": [{"exp": [1], "coef": 50.0}]}'
    code = run([
        "cf", "--poly", poly, "--samples", "10000",
        "--seed", "5", "--out", str(tmp_path / "cf"),
    ])
    assert code == 4


def test_distance_command_same_poly(tmp_path):
    code = run([
        "distance", "--poly", X1X2, "--poly-b", X1X2,
        "--samples", "150000", "--grid", "128",
        "--seed", "9", "--out", str(tmp_path / "d"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "d" / "distance_report.json").read_text())
    # one law twice: g reads every normal of f, so the samples are equal
    assert payload["tv"] == 0.0 and payload["kr"] == 0.0
    assert payload["rate_ratio"] is None
    assert payload["verdict"] is True


def test_distance_command_perturbed(tmp_path):
    g = '{"n": 2, "terms": [{"exp": [1, 1], "coef": 1.0}, {"exp": [1, 0], "coef": 0.2}]}'
    code = run([
        "distance", "--poly", X1X2, "--poly-b", g,
        "--samples", "150000", "--grid", "128",
        "--seed", "9", "--out", str(tmp_path / "d"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "d" / "distance_report.json").read_text())
    assert payload["rate_ratio"] is not None
    assert payload["balancing_eps_in_range"] is True


def test_verify_all_small_family(tmp_path):
    cfg = small_family_cfg(tmp_path, "va")
    assert run(["verify-all", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "va" / "summary.json").read_text())
    assert summary["verdict"] is True
    assert len(summary["checks"]) == 6
    assert all(v["passed"] == v["total"] == 2 for v in summary["checks"].values())
    manifest = json.loads((tmp_path / "va" / "run_manifest.json").read_text())
    timings = manifest["timings"]
    assert set(timings) == {"draw", "sample", "histogram", "checks", "total"}
    assert all(t >= 0.0 for t in timings.values())
    stages = sum(t for name, t in timings.items() if name != "total")
    assert stages <= timings["total"]
    # two members, each drawing f and 0.1 x1, on the normals of x1 and x2
    assert manifest["counters"] == {"samples_drawn": 2 * 2 * 150_000,
                                    "normals_drawn": 2 * 2 * 150_000}


def test_verify_all_draws_each_member_once(tmp_path, monkeypatch):
    import polygauss.cli as cli

    drawn, real_sample_many = [], cli.sample_many

    def counting_sample_many(jobs, n_samples):
        drawn.append([f for f, _ in jobs])
        return real_sample_many(jobs, n_samples)

    def no_single_draw(*args, **kwargs):
        raise AssertionError("drew one law apart from the joint draw")

    monkeypatch.setattr(cli, "sample_many", counting_sample_many)
    monkeypatch.setattr(cli, "sample", no_single_draw)
    cfg = small_family_cfg(tmp_path, "va")
    assert run(["verify-all", "--config", str(cfg)]) == 0
    # per member one joint draw: f (shared by every check) and 0.1 x1, whose
    # sum with f is the perturbed law g
    assert len(drawn) == 2
    assert all(laws[1:] == [scale(variable(2, 1), 0.1)] for laws in drawn)


def test_verify_all_ecf_reads_the_first_samples_in_draw_order(tmp_path, monkeypatch):
    import polygauss.cli as cli

    heads, read = [], []
    real_sample_many, real_ecf = cli.sample_many, cli.ecf_modulus

    def recording_sample_many(jobs, n_samples):
        out = real_sample_many(jobs, n_samples)
        heads.append(out[0].values[:cli.CF_SAMPLES].copy())  # f, before it is sorted
        return out

    def recording_ecf(s, ts):
        read.append(np.sort(s.values))
        return real_ecf(s, ts)

    monkeypatch.setattr(cli, "sample_many", recording_sample_many)
    monkeypatch.setattr(cli, "ecf_modulus", recording_ecf)
    cfg = small_family_cfg(tmp_path, "vc", samples=300_000)
    assert run(["verify-all", "--config", str(cfg)]) == 0
    assert len(heads) == len(read) == 2
    for head, sub in zip(heads, read):
        assert sub.tobytes() == np.sort(head).tobytes()


def test_verify_all_reads_order_statistics_from_one_sort(tmp_path, monkeypatch):
    def full_sample_pass(*args, **kwargs):
        raise AssertionError("a quantile, median or partition pass over a whole sample")

    for name in ("quantile", "median", "partition"):
        monkeypatch.setattr(np, name, full_sample_pass)
    cfg = small_family_cfg(tmp_path, "vs", count=1)
    assert run(["verify-all", "--config", str(cfg)]) == 0


def test_verify_all_deterministic(tmp_path):
    cfg1 = small_family_cfg(tmp_path, "va1")
    cfg2 = small_family_cfg(tmp_path, "va2")
    assert run(["verify-all", "--config", str(cfg1)]) == 0
    assert run(["verify-all", "--config", str(cfg2)]) == 0
    assert read_outputs(tmp_path / "va1") == read_outputs(tmp_path / "va2")


def test_verify_all_corrupted_envelope_hook(tmp_path):
    # a positive bias makes the envelope too tight, a false bound, which the
    # window's lower end rejects; a negative one only loosens a true bound
    cfg = small_family_cfg(tmp_path, "vc", corrupt_envelope_exponent=1.0)
    assert run(["verify-all", "--config", str(cfg)]) == 2
    checks = json.loads((tmp_path / "vc" / "summary.json").read_text())["checks"]
    assert checks["modulus-envelope"]["passed"] == 0


@pytest.mark.parametrize("samples, grid", [(20_000, 1000), (50_000, 2000)])
def test_verify_all_small_ball_probes_need_no_fine_sample(tmp_path, samples, grid):
    # the small-ball probes run between two sample counts, so few samples on
    # a fine grid leave them their range (an upper end of 2 * step did not)
    cfg = small_family_cfg(tmp_path, "vs", samples=samples, grid=grid)
    assert run(["verify-all", "--config", str(cfg)]) == 0
    checks = json.loads((tmp_path / "vs" / "summary.json").read_text())["checks"]
    assert (checks["small-set"]["passed"], checks["small-set"]["total"]) == (2, 2)


def test_verify_all_empty_family(tmp_path):
    cfg = small_family_cfg(tmp_path, "ve")
    data = json.loads(cfg.read_text())
    data["count"] = 0
    cfg.write_text(json.dumps(data))
    assert run(["verify-all", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "ve" / "summary.json").read_text())
    assert summary["checks"] == {}


def test_manifest_references_all_outputs(tmp_path):
    out = tmp_path / "m"
    assert run(["modulus", "--poly", X1X2, "--samples", "200000",
                "--grid", "128", "--seed", "11", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    on_disk = {p.name for p in out.iterdir()} - {"run_manifest.json"}
    assert set(manifest["files"]) == on_disk
    assert "config_hash" in manifest
    assert set(manifest["timings"]) == {"sample", "histogram", "checks", "total"}
    assert manifest["counters"] == {"samples_drawn": 200_000, "normals_drawn": 2 * 200_000}


def test_input_errors_exit_3(tmp_path):
    assert run(["variance", "--poly", "not json",
                "--out", str(tmp_path / "x")]) == 3
    assert run(["variance", "--config", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "x")]) == 3
    assert run(["verify-all", "--out", str(tmp_path / "x")]) == 3  # no n, m, d
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_field": 1}))
    assert run(["variance", "--config", str(bad), "--poly", X1X2,
                "--out", str(tmp_path / "x")]) == 3


def test_class_too_large_exits_3_before_sampling(tmp_path, capsys, monkeypatch):
    import polygauss.cli as cli

    def no_sample(*args, **kwargs):
        raise AssertionError("sampled a member of an undrawable class")

    monkeypatch.setattr(cli, "sample", no_sample)
    monkeypatch.setattr(cli, "sample_many", no_sample)
    assert run(["verify-all", "--n", "400", "--m", "10", "--d", "40", "--count", "1",
                "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exponent tuples" in err


# The third and fourth ask for 10^17 float64 samples or 3 * 10^17 member
# seeds, more bytes than a 64-bit address space holds, so the allocation fails
# at once.  The last three give the zero polynomial in 10^17 variables: it has
# no active variable, so no normal is drawn and it fails as in one variable.
@pytest.mark.parametrize("argv, code", [
    (["verify-all", "--n", "400", "--m", "10", "--d", "40", "--count", "1"], 3),
    (["modulus", "--poly", '{"n": 1, "terms": [{"exp": [0], "coef": 2.0}]}'], 4),
    (["variance", "--poly", X1X2, "--samples", str(10**17)], 3),
    (["verify-all", "--n", "3", "--m", "1", "--d", "3", "--count", str(10**17)], 3),
    (["distance", "--poly", ZERO_1E17, "--poly-b", ZERO_1E17], 3),
    (["modulus", "--poly", ZERO_1E17], 4),
    (["cf", "--poly", ZERO_1E17], 3),
    # after the draw and the sort: t times the largest value overflows; too
    # few samples for the histogram
    (["cf", "--poly", dumps(scale(monomial(1, (1,)), 1e306)), "--samples", "20000"], 3),
    (["distance", "--poly", X1X2, "--poly-b", X1SQ, "--samples", "1000"], 3),
])
@pytest.mark.filterwarnings("error")  # a warning would be a second line of stderr
def test_failed_run_leaves_no_output_directory(tmp_path, capsys, argv, code):
    assert run([*argv, "--out", str(tmp_path / "big")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.strip() != "error:"
    assert not (tmp_path / "big").exists()


@pytest.mark.parametrize("command, code", [("variance", 0), ("modulus", 4), ("cf", 3)])
def test_zero_polynomial_runs_alike_in_any_number_of_variables(tmp_path, capsys, command, code):
    # only the variables some term uses are drawn, so 10^17 unused ones cost nothing
    seen = []
    for n in (1, 10**17):
        out = tmp_path / str(n)
        assert run([command, "--poly", json.dumps({"n": n, "terms": []}),
                    "--samples", "20000", "--out", str(out)]) == code
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))
                 if p.name != "run_manifest.json"}
        seen.append((capsys.readouterr(), files))
    assert seen[0] == seen[1]
    assert bool(seen[0][1]) == (code == 0)


@pytest.mark.parametrize("argv", [
    ["cf", "--poly", CONSTANT],
    ["distance", "--poly", CONSTANT, "--poly-b", dumps(monomial(1, (1,)))],
    # g overflows, but f is checked before the two laws are drawn
    ["distance", "--poly", CONSTANT, "--poly-b",
     '{"n": 1, "terms": [{"exp": [200], "coef": 1e300}]}'],
])
def test_scaling_laws_need_a_non_constant_polynomial(tmp_path, capsys, argv):
    assert run([*argv, "--samples", "20000", "--out", str(tmp_path / "x")]) == 3
    assert "non-constant polynomial" in capsys.readouterr().err


def _cli_subprocess(argv, tmp_path):
    """The CLI run in its own process with every warning shown, so that
    whatever numpy prints reaches its stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONWARNINGS": "default", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, "-m", "polygauss.cli", *argv, "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
    )


X400 = '{"n": 1, "terms": [{"exp": [400], "coef": 1.0}]}'


@pytest.mark.parametrize("argv, code, lines", [
    # the largest samples lie some 1e40 grid cells past the grid's end
    (["modulus", "--poly", X400], 4, 1),
    (["distance", "--poly", X400, "--poly-b", dumps(monomial(1, (1,)))], 0, 0),
])
def test_values_far_off_the_grid_print_no_warning(tmp_path, argv, code, lines):
    proc = _cli_subprocess([*argv, "--samples", "100000"], tmp_path)
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == lines, proc.stderr


TINY_X1 = '{"n": 1, "terms": [{"exp": [1], "coef": 1e-320}]}'  # a subnormal scale


@pytest.mark.parametrize("argv, code", [
    # the grid step is subnormal, so 1/step overflows
    (["modulus", "--poly", TINY_X1, "--grid", "16"], 4),
    (["distance", "--poly", TINY_X1, "--poly-b", TINY_X1, "--grid", "16"], 4),
    # |a t|^(-1/m) overflows at the smallest t
    (["cf", "--poly", TINY_X1], 3),
])
def test_subnormal_scale_exits_with_one_line(tmp_path, argv, code):
    proc = _cli_subprocess([*argv, "--samples", "20000"], tmp_path)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_cli_import_does_not_load_scipy_optimize():
    """Neither the package nor the CLI loads any scipy module: scipy is a
    test dependency only, and its import would be paid by every command."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for module in ("polygauss", "polygauss.cli"):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", (module, proc.stdout)


def test_error_classes_are_value_errors():
    assert issubclass(InputError, ValueError) and issubclass(ResolutionError, ValueError)


def _oracle():
    return oracle_density("normal", -4.0, 4.0, 2048)


# Each case names one condition that must end a run with exit 4, and raises it
# the way a command would reach it.
@pytest.mark.parametrize("trigger, message", [
    pytest.param(lambda: pg.quantile_grid([pg.SampleSet(np.ones(10), 0)], 64), "constant",
                 id="DegenerateRange"),
    pytest.param(lambda: pg.shift_modulus_curve(_oracle(), [_oracle().step * 1.5]),
                 "below resolution", id="EpsilonBelowResolution"),
    pytest.param(lambda: pg.cf_decay_check(
        pg.ecf_modulus(pg.sample(scale(monomial(1, (1,)), 50.0), 10_000, seed=4),
                       pg.default_t_grid(0.1, 100.0, 8)),
        pg.EnvelopeParams(m=1, d=1, lead=50.0)),
                 "less than a decade", id="InsufficientDecay"),
    pytest.param(lambda: pg.degree_envelope_check(
        0.0, pg.dual_modulus_curve(_oracle(), np.geomspace(0.02, 0.3, 6)), d=2),
                 "positive variance", id="ZeroVariance"),
])
def test_exit_4_errors_are_resolution_errors(trigger, message):
    with pytest.raises(ResolutionError, match=message):
        trigger()


@pytest.mark.parametrize("flag", ["--config", "--poly"])
def test_non_utf8_file_exits_3(tmp_path, capsys, flag):
    path = tmp_path / "f"
    path.write_bytes(b"\xff\xfe\x00")
    arg = str(path) if flag == "--config" else f"@{path}"
    assert run(["variance", flag, arg, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not UTF-8" in err


def test_svg_emission(tmp_path):
    out = tmp_path / "s"
    assert run(["modulus", "--poly", X1X2, "--samples", "200000",
                "--grid", "128", "--seed", "11", "--svg",
                "--out", str(out)]) == 0
    svg = (out / "omega.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_verify_all_grid_too_coarse_exits_4(tmp_path, capsys):
    # seed 2 draws a member with coefficients near 120: its histogram step
    # exceeds 1/2, so the default probe range [2 * step, 1] holds no probe
    assert run(["verify-all", "--n", "3", "--m", "1", "--d", "3", "--count", "1",
                "--seed", "2", "--samples", "200000",
                "--out", str(tmp_path / "x")]) == 4
    assert "no probe" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    {"samples": "abc"},
    {"grid": "x"},
    {"samples": True},
    {"seed": -1},
    {"family": {"n": "a", "m": 1, "d": 2}},
    {"family": {"n": 2, "m": 1, "d": 2, "size": 3}},
    {"eps": {"hi": 1.0, "step": 0.1}},
    {"t": None},
    {"samples": 0},
    {"grid": 0},
    {"workers": -3},
    {"cf_samples": -5},
    {"eps": {"per_decade": 0}},
    {"t": {"per_decade": -4}},
    {"n": "a"},
    {"count": -1},
])
def test_bad_config_field_exits_3(tmp_path, capsys, override):
    cfg = small_family_cfg(tmp_path, "bad", **override)
    assert run(["verify-all", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert next(iter(override)) in err


@pytest.mark.parametrize("command,override", [
    ("cf", {"t": {"hi": math.inf}}),
    ("cf", {"t": {"lo": 1e-320}}),
    ("modulus", {"eps": {"lo": 1e-320}}),
    ("modulus", {"eps": {"per_decade": 10**12}}),
    ("cf", {"t": {"per_decade": 10**12}}),
])
def test_grid_spanning_infinite_decades_exits_3(tmp_path, capsys, command, override):
    # The probe and t ranges are the program's own, so a config that sets one,
    # even to infinitely many decades or too many points, exits 3 naming the field.
    cfg = {"polynomial": json.loads(X1X2), "samples": 20_000, **override}
    if command == "modulus":
        cfg["grid"] = 64
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(next(iter(override))) in err
    assert not (tmp_path / "o").exists()


def _subparsers():
    return next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_flag_is_a_config_field():
    # per command: its flags and the config-only fields are the fields it reads
    config_only = {key for key, field in FIELDS.items() if field.flag is None}
    subparsers = _subparsers()
    assert set(subparsers) == set(COMMANDS)
    for command, parser in subparsers.items():
        dests = {a.dest for a in parser._actions} - {"config", "help"}
        fields = set(COMMANDS[command][1])
        assert dests | (config_only & fields) == fields, command
        assert not dests & config_only, command


# A flag or config key of a field the command does not read exits 3, even
# where its value would be out of range for a command that reads it.
@pytest.mark.parametrize("argv, config, named", [
    (["variance", "--poly", X1X2, "--grid", "7", "--n", "500"], None, "--grid 7 --n 500"),
    (["variance", "--poly", X1X2, "--count", "-1"], None, "--count -1"),
    (["distance", "--poly", X1X2, "--poly-b", X1X2, "--svg"], None, "--svg"),
    (["variance"], {"polynomial": json.loads(X1X2), "grid": 7}, "['grid']"),
])
def test_unread_field_exits_3(tmp_path, capsys, argv, config, named):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    assert run([*argv, "--samples", "1000", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["modulus", "verify-all"])
@pytest.mark.parametrize("value", [-1e308, -math.inf, math.inf, math.nan])
def test_corrupt_envelope_exponent_out_of_range_exits_3(tmp_path, capsys, command, value):
    # -1e308 overflows the envelope; json.dumps writes the other three as
    # -Infinity, Infinity and NaN, which json.loads reads back but JSON lacks
    if command == "modulus":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"polynomial": json.loads(X1X2), "samples": 20_000,
                                    "grid": 64, "out": str(tmp_path / "o"),
                                    "corrupt_envelope_exponent": value}))
    else:
        path = small_family_cfg(tmp_path, "o", count=1, corrupt_envelope_exponent=value)
    assert run([command, "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    named = "not finite and positive" if value == -1e308 else "'corrupt_envelope_exponent'"
    assert named in err
    assert not (tmp_path / "o").exists()


def test_readme_lists_each_commands_flags_and_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = {}
    for line in map(str.strip, readme.splitlines()):
        cells = line.strip("|").split("|")
        if line.startswith("| `") and len(cells) == 3:
            command, flags, keys = (c.replace("`", "").split() for c in cells)
            rows[command[0]] = (set(flags), set(keys))
    subparsers = _subparsers()
    assert set(rows) == set(subparsers)
    for command, parser in subparsers.items():
        flags = {o for a in parser._actions for o in a.option_strings}
        flags -= {"-h", "--help", "--config"}
        assert rows[command] == (flags, set(COMMANDS[command][1])), command


def test_overflow_is_an_input_error(tmp_path, capsys):
    huge = '{"n": 1, "terms": [{"exp": [200], "coef": 1e300}]}'
    for cmd, extra in (("modulus", ["--grid", "128"]), ("cf", [])):
        assert run([cmd, "--poly", huge, "--samples", "20000", *extra,
                    "--out", str(tmp_path / cmd)]) == 3
        assert "overflow" in capsys.readouterr().err
    # degree 218 with leading magnitude 1e-300: |ln(a eps)|^109 overflows
    tiny = '{"n": 2, "terms": [{"exp": [109, 109], "coef": 1e-300}]}'
    assert run(["modulus", "--poly", tiny, "--samples", "12000", "--grid", "16",
                "--out", str(tmp_path / "tiny")]) == 3
    assert "overflows" in capsys.readouterr().err
    x400 = '{"n": 1, "terms": [{"exp": [400], "coef": 1.0}]}'
    assert run(["variance", "--poly", x400, "--out", str(tmp_path / "v")]) == 3
    assert "overflows" in capsys.readouterr().err
    big_coef = '{"n": 1, "terms": [{"exp": [1], "coef": 1' + "0" * 400 + '}]}'
    assert run(["variance", "--poly", big_coef, "--out", str(tmp_path / "v")]) == 3
    assert "malformed polynomial" in capsys.readouterr().err


def test_cf_without_ratio_trend(tmp_path, capsys):
    # leading magnitude 1e-3 leaves no probe with |a t| >= 1, so no trend is fitted
    poly = '{"n": 1, "terms": [{"exp": [1], "coef": 0.001}]}'
    assert run(["cf", "--poly", poly, "--samples", "20000",
                "--out", str(tmp_path / "cf")]) == 0
    assert "ratio slope n/a" in capsys.readouterr().out


# Values of the wrong type for any config field.
WRONG = st.sampled_from(["abc", True, None, 1.5, [], {}, -1])


def _term(n):
    return st.fixed_dictionaries({
        "exp": st.lists(st.one_of(st.integers(0, 3), st.integers(0, 300)),
                        min_size=n, max_size=n),
        "coef": st.one_of(st.floats(-1e3, 1e3), st.sampled_from([1e200, -1e300, 1e-300])),
    })


POLYS = st.integers(1, 2).flatmap(lambda n: st.fixed_dictionaries(
    {"n": st.just(n), "terms": st.lists(_term(n), max_size=3)}
))
# Count fields, which must be at least 1.
COUNT_FIELDS = ("samples", "grid")
# Keys the fuzzed commands do not read: an unknown one and a field of verify-all.
UNREAD = ("bogus", "count")


def _count_below_one(cfg):
    return any(type(cfg.get(name)) is int and cfg[name] < 1 for name in COUNT_FIELDS)


def _config(cfg, low, bad):
    return {**cfg, **dict(low), **dict(bad)}


def _configs(command):
    """Configs of the fields ``command`` reads, right-typed with values in and
    out of range: at most one count field set to 0 or below, and up to two
    fields of the wrong type or keys the command does not read."""
    fields = [k for k in ("polynomial", "samples", "seed", "grid", "svg")
              if k in COMMANDS[command][1]]
    base = {"polynomial": st.one_of(st.just(json.loads(X1X2)), POLYS),
            "samples": st.sampled_from([12_000, 20_000]),
            "grid": st.sampled_from([16, 64])}
    return st.builds(
        _config,
        st.fixed_dictionaries({k: v for k, v in base.items() if k in fields},
                              optional={"seed": st.integers(-2, 50)}),
        st.lists(st.tuples(st.sampled_from([k for k in COUNT_FIELDS if k in fields]),
                           st.integers(-3, 0)), max_size=1),
        st.lists(st.tuples(st.sampled_from(fields + list(UNREAD)), WRONG), max_size=2),
    )


CASES = st.sampled_from(["variance", "modulus", "cf"]).flatmap(
    lambda command: st.tuples(st.just(command), _configs(command)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=CASES)
def test_any_config_runs_or_exits_with_one_line_error(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3, 4)
    if _count_below_one(cfg) or set(cfg) & set(UNREAD):
        assert code == 3
    if code in (3, 4):
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
