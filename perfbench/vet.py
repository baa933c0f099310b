"""Run every candidate input of one workload once and report which fail.

    python3 perfbench/vet.py verify-family

Each candidate runs through ``polygauss.cli.main`` in this process, with the
same thread settings as ``run.py``.  One line per failing candidate names its
exit code and why it failed; the last line lists the failing keys, which
``workloads.py`` leaves out of its pools.  This is how the pools were made;
re-running it after a program change shows which inputs changed verdict.
"""

from __future__ import annotations

import sys

import run  # sets the thread variables and puts src/ on the path first

import shutil
import tempfile
from pathlib import Path

import workloads as wl
from checks import failing_families

CANDIDATES = {
    "verify-family": lambda: [wl.verify_op(3, 1, 3, s) for s in range(1, 81)],
    "verify-wide": lambda: [wl.verify_op(14, 2, 3, s) for s in range(1, 41)],
    "modulus-fine": lambda: [wl.modulus_op(name, s) for name in wl.MODULUS_POLYS
                             for s in wl.MODULUS_SEEDS],
    "cf-closed-form": lambda: [wl.cf_op(i) for i in wl.CF_POOL],
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in CANDIDATES:
        print(f"usage: vet.py {{{'|'.join(CANDIDATES)}}}", file=sys.stderr)
        return 2
    cli_main, _ = run.setup(argv[0], 0)
    run.RUNS_DIR.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="vet-", dir=run.RUNS_DIR))
    failing = []
    try:
        for op in CANDIDATES[argv[0]]():
            out = root / "op"
            code, text = run.invoke(cli_main, op, out)
            if code == 2 and op.kind == "verify":
                why = "failing: " + ", ".join(failing_families(out))
            else:
                why = text.strip().splitlines()[-1] if text.strip() else ""
            shutil.rmtree(out, ignore_errors=True)
            if code != 0:
                failing.append(op.argv[-1])
                print(f"{op.label}: exit {code}: {why}", flush=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"failing keys: ({', '.join(failing)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
