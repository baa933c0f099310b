"""Check that two polygauss trees write the same outputs on a fixed set of runs.

    python tools/same_outputs.py PARENT_DIR

PARENT_DIR is the root of another checkout of this repository (it holds
``src/polygauss``), usually the commit a change starts from.  The two trees
each run every invocation in ``invocations()`` in one subprocess of their
own, with ``PYTHONPATH`` set to that tree's ``src``; the two subprocesses run
side by side.  For each invocation the exit code, standard output, standard
error, the names of the files written and the sha256 of each of them must
agree.  ``run_manifest.json`` is left out: it holds timings and a hash of the
config, whose ``--out`` path differs.  Every difference is printed, and for
a JSON file that differs, so are the first ``JSON_DIFFS_SHOWN`` dotted key
paths whose values differ, with both values; the exit code is 1 if there is
a difference and 0 otherwise.  A run takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JSON_DIFFS_SHOWN = 10  # key paths printed per differing JSON file
ABSENT = "<absent>"  # the value shown for a key one document lacks

# The benchmark's modulus polynomials and the cf inputs of its indices 1-3
# (sums of independent pieces); the cf sample seed is the index.
sys.path.insert(0, str(ROOT / "perfbench"))
from checks import data_digests  # noqa: E402
from workloads import MODULUS_POLYS, cf_pieces, cf_polynomial  # noqa: E402

CF_POLYS = {index: cf_polynomial(cf_pieces(index)) for index in (1, 2, 3)}
# The second laws of the distance runs: x1*x2 + 0.2*x1, which reads every
# normal of f, and x1*x2 + 0.2*x3, which draws x3 from its own seed.
X1X2_PLUS = {"n": 2, "terms": [{"exp": [1, 1], "coef": 1.0}, {"exp": [1, 0], "coef": 0.2}]}
X1X2_PLUS_X3 = {"n": 3, "terms": [{"exp": [1, 1, 0], "coef": 1.0},
                                  {"exp": [0, 0, 1], "coef": 0.2}]}

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
    runs.append(("distance x1*x2 vs itself", [
        "distance", "--poly", json.dumps(MODULUS_POLYS["x1*x2"]),
        "--poly-b", json.dumps(MODULUS_POLYS["x1*x2"]), "--samples", "1000000",
        "--grid", "400", "--seed", "9"]))
    runs.append(("distance x1*x2 vs x1*x2+0.2*x3", [
        "distance", "--poly", json.dumps(MODULUS_POLYS["x1*x2"]),
        "--poly-b", json.dumps(X1X2_PLUS_X3), "--samples", "1000000",
        "--grid", "400", "--seed", "9"]))
    # Three members in one run, so each member's joint draw of f and g
    # follows the checks of the one before.
    runs.append(("verify-all n=14 m=2 d=3 count=3 seed=1", [
        "verify-all", "--n", "14", "--m", "2", "--d", "3", "--count", "3",
        "--seed", "1"]))
    # Six chunks of 2^18 samples per law, the last one short, so the joint
    # draw of f and g is six pool tasks, each drawing both laws' rows.
    runs.append(("distance x1*x2 vs x1*x2+0.2*x1 six chunks", [
        "distance", "--poly", json.dumps(MODULUS_POLYS["x1*x2"]),
        "--poly-b", json.dumps(X1X2_PLUS), "--samples", "1500000",
        "--grid", "400", "--seed", "9"]))
    runs.append(("variance x1*x2", [
        "variance", "--poly", json.dumps(MODULUS_POLYS["x1*x2"]),
        "--samples", "1000000", "--seed", "1"]))
    # Twelve chunks of 2^18 samples, the last one short, so sampling draws
    # more than one at once wherever there is more than one CPU.
    runs.append(("variance x1*x2 twelve chunks", [
        "variance", "--poly", json.dumps(MODULUS_POLYS["x1*x2"]),
        "--samples", "3000000", "--seed", "2"]))
    # Quantile ranks at the edges of the sort: 4000 samples put the bottom
    # quantile between order statistics 0 and 1, and an odd sample count
    # takes the median's middle value.
    runs.append(("modulus x1*x2 4000 samples", [
        "modulus", "--poly", json.dumps(MODULUS_POLYS["x1*x2"]), "--samples", "4000",
        "--grid", "400", "--seed", "1"]))
    runs.append(("verify-all n=3 m=1 d=3 odd samples", [
        "verify-all", "--n", "3", "--m", "1", "--d", "3", "--count", "1",
        "--samples", "1000001", "--seed", "1"]))
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


def json_differences(a, b, path: str = "") -> list[tuple[str, object, object]]:
    """(dotted key path, value in a, value in b) of every place where the JSON
    documents a and b differ; list items are keyed by their index."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = list(a) + [k for k in b if k not in a]
        pairs = [(k, a.get(k, ABSENT), b.get(k, ABSENT)) for k in keys]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(i, x, y) for i, (x, y) in enumerate(zip(a, b))]
    else:  # compared as text, so that NaN equals NaN
        return [] if json.dumps(a) == json.dumps(b) else [(path, a, b)]
    return [diff for k, x, y in pairs
            for diff in json_differences(x, y, f"{path}.{k}" if path else str(k))]


def print_json_differences(parent: Path, this: Path, parent_files: dict,
                           this_files: dict) -> None:
    """The first key paths that differ in each JSON file both runs wrote,
    given the directories of the two runs and their ``data_digests``."""
    for name, digest in parent_files.items():
        if not name.endswith(".json") or this_files.get(name, digest) == digest:
            continue
        diffs = json_differences(json.loads((parent / name).read_text()),
                                 json.loads((this / name).read_text()))
        for path, a, b in diffs[:JSON_DIFFS_SHOWN]:
            print(f"  {name} {path}: {a!r} -> {b!r}")
        if len(diffs) > JSON_DIFFS_SHOWN:
            print(f"  {name}: {len(diffs) - JSON_DIFFS_SHOWN} more key paths differ")


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
                       "files": data_digests(Path(tmp) / name / str(index))}
                for name in trees
            }
            for key in ("code", "stdout", "stderr", "files"):
                if got["parent"][key] != got["this"][key]:
                    differences += 1
                    print(f"DIFF {label}: {key}\n  parent: {got['parent'][key]!r}\n"
                          f"  this:   {got['this'][key]!r}")
            print_json_differences(Path(tmp) / "parent" / str(index),
                                   Path(tmp) / "this" / str(index),
                                   got["parent"]["files"], got["this"]["files"])
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
