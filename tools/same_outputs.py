"""Check that two polygauss trees write the same outputs on a fixed set of runs.

    python tools/same_outputs.py PARENT_DIR

PARENT_DIR is the root of another checkout of this repository (it holds
``src/polygauss``), usually the commit a change starts from.  The two trees
each run every invocation in ``invocations()`` in one subprocess of their
own, with ``PYTHONPATH`` set to that tree's ``src``; the two subprocesses run
side by side.  For each invocation the exit code, standard output, standard
error, the names of the files written and the sha256 of each of them must
agree.  ``run_manifest.json`` is left out: it holds timings and a hash of the
config, whose ``--out`` path differs.  Every difference is printed; the exit
code is 1 if there is one and 0 otherwise.  A run takes a few minutes on two
cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = "run_manifest.json"

MODULUS_POLYS = {
    "x1": {"n": 1, "terms": [{"exp": [1], "coef": 1.0}]},
    "x1^2": {"n": 1, "terms": [{"exp": [2], "coef": 1.0}]},
    "x1*x2": {"n": 2, "terms": [{"exp": [1, 1], "coef": 1.0}]},
}
# The second law of the distance run: x1*x2 + 0.2*x1.
X1X2_PLUS = {"n": 2, "terms": [{"exp": [1, 1], "coef": 1.0}, {"exp": [1, 0], "coef": 0.2}]}
# Sums of independent pieces (a*x1*x2 plus a square or a linear term on
# other variables), the cf inputs of the benchmark's indices 1-3; the sample
# seed is the index.
CF_POLYS = {
    1: {"n": 3, "terms": [{"exp": [1, 1, 0], "coef": 1.681},
                          {"exp": [0, 0, 2], "coef": 0.423}]},
    2: {"n": 4, "terms": [{"exp": [1, 1, 0, 0], "coef": 1.886},
                          {"exp": [0, 0, 2, 0], "coef": 0.95},
                          {"exp": [0, 0, 0, 1], "coef": 0.175}]},
    3: {"n": 3, "terms": [{"exp": [1, 1, 0], "coef": 1.041},
                          {"exp": [0, 0, 1], "coef": 0.151}]},
}

# Runs each invocation through polygauss.cli.main with its output captured.
# argv: the tree's src directory, the base output directory and a JSON file
# holding the list of [label, argv] pairs; stdout: one JSON list of results.
RUNNER = r"""
import contextlib, io, json, sys, traceback
from pathlib import Path

src, base, runs = Path(sys.argv[1]).resolve(), Path(sys.argv[2]), Path(sys.argv[3])
import polygauss.cli

if src not in Path(polygauss.cli.__file__).resolve().parents:
    sys.exit(f"polygauss was imported from {polygauss.cli.__file__}, not {src}")
results = []
for index, (label, argv) in enumerate(json.loads(runs.read_text())):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = polygauss.cli.main(argv + ["--out", str(base / str(index))])
        except Exception:
            code = None
            traceback.print_exc(file=err)
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
print(json.dumps(results))
"""


def invocations() -> list[tuple[str, list[str]]]:
    """(label, argv) of every compared run."""
    runs = []
    for (n, m, d), seeds in (((3, 1, 3), range(1, 81)), ((14, 2, 3), range(1, 41))):
        for seed in seeds:
            runs.append((f"verify-all n={n} m={m} d={d} seed={seed}", [
                "verify-all", "--n", str(n), "--m", str(m), "--d", str(d),
                "--count", "1", "--samples", "1000000", "--grid", "400",
                "--seed", str(seed)]))
    for name, poly in MODULUS_POLYS.items():
        runs.append((f"modulus {name}", [
            "modulus", "--poly", json.dumps(poly), "--samples", "1000000",
            "--grid", "2048", "--seed", "1"]))
    for index, poly in CF_POLYS.items():
        runs.append((f"cf index={index}", [
            "cf", "--poly", json.dumps(poly), "--samples", "1000000",
            "--seed", str(index)]))
    runs.append(("distance x1*x2 vs x1*x2+0.2*x1", [
        "distance", "--poly", json.dumps(MODULUS_POLYS["x1*x2"]),
        "--poly-b", json.dumps(X1X2_PLUS), "--samples", "1000000",
        "--grid", "400", "--seed", "9"]))
    # Three members in one run, so each member's joint draw of f and g
    # follows the checks of the one before.
    runs.append(("verify-all n=14 m=2 d=3 count=3 seed=1", [
        "verify-all", "--n", "14", "--m", "2", "--d", "3", "--count", "3",
        "--seed", "1"]))
    # Two chunks of 2^20 samples per law, so the joint draw of f and g puts
    # four chunks in one pool.
    runs.append(("distance x1*x2 vs x1*x2+0.2*x1 two chunks", [
        "distance", "--poly", json.dumps(MODULUS_POLYS["x1*x2"]),
        "--poly-b", json.dumps(X1X2_PLUS), "--samples", "1500000",
        "--grid", "400", "--seed", "9"]))
    runs.append(("variance x1*x2", [
        "variance", "--poly", json.dumps(MODULUS_POLYS["x1*x2"]),
        "--samples", "1000000", "--seed", "1"]))
    # Three chunks of 2^20 samples, so sampling draws more than one at once
    # wherever there is more than one CPU.
    runs.append(("variance x1*x2 three chunks", [
        "variance", "--poly", json.dumps(MODULUS_POLYS["x1*x2"]),
        "--samples", "3000000", "--seed", "2"]))
    # The CSV and SVG writers of modulus and cf.
    runs.append(("modulus x1*x2 svg", [
        "modulus", "--poly", json.dumps(MODULUS_POLYS["x1*x2"]), "--samples", "200000",
        "--grid", "400", "--seed", "3", "--svg"]))
    runs.append(("cf index=1 svg", [
        "cf", "--poly", json.dumps(CF_POLYS[1]), "--samples", "200000",
        "--seed", "1", "--svg"]))
    # Error paths: two input errors (exit 3) and two resolution errors (exit 4).
    zero = json.dumps({"n": 1, "terms": []})
    runs += [
        ("variance exponent length", ["variance", "--poly", json.dumps(
            {"n": 2, "terms": [{"exp": [1], "coef": 1.0}]})]),
        ("cf zero polynomial", ["cf", "--poly", zero, "--samples", "20000"]),
        ("modulus zero polynomial", ["modulus", "--poly", zero, "--samples", "20000"]),
        ("cf 100*x1", ["cf", "--poly", json.dumps(
            {"n": 1, "terms": [{"exp": [1], "coef": 100.0}]}), "--samples", "10000"]),
    ]
    return runs


def data_files(outdir: Path) -> dict[str, str]:
    """sha256 of every file a run wrote, but the manifest."""
    if not outdir.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.name != MANIFEST
    }


def start(tree: Path, base: Path, runs_file: Path) -> subprocess.Popen:
    base.mkdir()
    return subprocess.Popen(
        [sys.executable, "-c", RUNNER, str(tree / "src"), str(base), str(runs_file)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=base,
        env={**os.environ, "PYTHONPATH": str(tree / "src")}, text=True,
    )


def collect(proc: subprocess.Popen, name: str) -> list[dict]:
    out, err = proc.communicate()
    if proc.returncode != 0:
        sys.exit(f"{name} tree: runner exited {proc.returncode}\n{err}")
    return json.loads(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir", type=Path, help="root of the tree to compare with")
    args = p.parse_args(argv)
    parent = args.parent_dir.resolve()
    if not (parent / "src" / "polygauss" / "cli.py").is_file():
        p.error(f"{parent} holds no src/polygauss/cli.py")
    runs = invocations()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        runs_file = Path(tmp) / "runs.json"
        runs_file.write_text(json.dumps(runs))
        trees = {"parent": parent, "this": ROOT}
        procs = {name: start(tree, Path(tmp) / name, runs_file)
                 for name, tree in trees.items()}
        results = {name: collect(proc, name) for name, proc in procs.items()}
        differences = 0
        for index, (label, _) in enumerate(runs):
            got = {
                name: {**results[name][index],
                       "files": data_files(Path(tmp) / name / str(index))}
                for name in trees
            }
            for key in ("code", "stdout", "stderr", "files"):
                if got["parent"][key] != got["this"][key]:
                    differences += 1
                    print(f"DIFF {label}: {key}\n  parent: {got['parent'][key]!r}\n"
                          f"  this:   {got['this'][key]!r}")
    codes: dict = {}
    for (label, _), result in zip(runs, results["this"]):
        codes.setdefault(result["code"], []).append(label)
    for code, labels in sorted(codes.items(), key=lambda kv: str(kv[0])):
        print(f"exit {code}: {len(labels)} runs"
              + ("" if code == 0 else ": " + "; ".join(labels)))
    print(f"{len(runs)} runs, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
