"""Show that every output check accepts real outputs and rejects corrupted ones.

    python3 perfbench/selftest.py

Runs one operation of each kind through the CLI, checks its outputs, then
checks copies with one deliberate corruption each; every corrupted copy, and
the real outputs under an exit code other than the known one, must raise
CheckFailed, and a one-byte change to a data file must change the
digests the traced/untraced comparison uses.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import sys

import run  # sets the thread variables and puts src/ on the path first

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import workloads as wl
from checks import MODULUS_BUDGET_CAP, CheckFailed, check_op, data_digests


def _edit_json(name: str, edit):
    def corrupt(out: Path) -> None:
        data = json.loads((out / name).read_text())
        edit(data)
        (out / name).write_text(json.dumps(data))
    return corrupt


def _edit_csv(name: str, edit):
    def corrupt(out: Path) -> None:
        header = (out / name).read_text().splitlines()[0]
        rows = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
        rows = edit(rows)
        np.savetxt(out / name, rows, delimiter=",", header=header, comments="", fmt="%.17g")
    return corrupt


def _bump(col: int, amount: float, row: int = 3):
    def edit(rows):
        rows[row, col] += amount
        return rows
    return edit


def _budget(out: Path) -> float:
    return json.loads((out / "modulus_report.json").read_text())["equivalence"]["extras"]["budget_base"]


def _drop_family(d):
    d["checks"].pop("small-set")


def _double_total(d):
    d["checks"]["cf-decay"]["total"] = 2


def _flip_verdict(d):
    d["verdict"] = False


def _budget_above_cap(poly: str):
    def edit(d):
        d["equivalence"]["extras"]["budget_base"] = 1.01 * MODULUS_BUDGET_CAP[poly]
    return edit


def _fail_small_set(d):
    d["checks"]["small-set"]["passed"] = 0
    d["verdict"] = False


CASES = [
    (wl.verify_op(3, 1, 3, wl.FAMILY_POOL[0]), {
        "family missing": _edit_json("summary.json", _drop_family),
        "total 2": _edit_json("summary.json", _double_total),
        "verdict against exit code": _edit_json("summary.json", _flip_verdict),
    }),
    (wl.verify_op(14, 2, 3, wl.WIDE_FAILING_SEED), {
        "another family failing": _edit_json("summary.json", _fail_small_set),
    }),
    *[(wl.modulus_op(name, wl.MODULUS_SEEDS[0]), {
        "omega off by 2 budgets": lambda out: _edit_csv("omega.csv", _bump(1, 2 * _budget(out)))(out),
        "sigma off by 2 budgets": lambda out: _edit_csv("sigma.csv", _bump(1, 2 * _budget(out)))(out),
        "budget above the cap": _edit_json("modulus_report.json", _budget_above_cap(name)),
    }) for name in wl.MODULUS_POLYS],
    (wl.cf_op(wl.CF_POOL[0]), {
        "modulus off by 6 stderr": _edit_csv("cf_curve.csv", _bump(1, 6e-3)),
        "stderr doubled": _edit_csv("cf_curve.csv", lambda r: np.column_stack([r[:, :2], 2 * r[:, 2]])),
        "t grid row missing": _edit_csv("cf_curve.csv", lambda r: r[1:]),
    }),
]


def _rejected(what: str, op: wl.Op, out: Path, code: int) -> bool:
    try:
        check_op(op, out, code)
    except CheckFailed as exc:
        print(f"rejected  {what}: {exc}")
        return True
    print(f"MISSED    {what}")
    return False


def main() -> int:
    cli_main, _ = run.setup("verify-family", 0)
    run.RUNS_DIR.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RUNS_DIR))
    problems = 0
    try:
        for op, corruptions in CASES:
            out = root / "clean"
            code, text = run.invoke(cli_main, op, out)
            try:
                check_op(op, out, code)
                print(f"accepted  {op.label} (exit {code})")
            except CheckFailed as exc:
                problems += 1
                print(f"REJECTED  {op.label}: {exc}")
            for what, corrupt in corruptions.items():
                bad = root / "bad"
                shutil.copytree(out, bad)
                corrupt(bad)
                problems += not _rejected(what, op, bad, code)
                shutil.rmtree(bad)
            for wrong in (-1, 2, 3):
                if wrong != code and not (wrong == 2 and op.spec.get("may_fail")):
                    problems += not _rejected(f"exit code {wrong}", op, out, wrong)
            bad = root / "bad"
            shutil.copytree(out, bad)
            victim = sorted(data_digests(bad))[0]
            blob = bytearray((bad / victim).read_bytes())
            blob[-2] ^= 1
            (bad / victim).write_bytes(bytes(blob))
            if data_digests(bad) == data_digests(out):
                problems += 1
                print(f"MISSED    one byte changed in {victim}")
            else:
                print(f"rejected  one byte changed in {victim}")
            shutil.rmtree(bad)
            shutil.rmtree(out)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("self-test", "passed" if problems == 0 else f"FAILED ({problems} problems)")
    return 0 if problems == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
