"""Benchmark of the polygauss verification pipeline through its CLI.

    python3 perfbench/run.py --workload verify-family --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  One process per run: it imports polygauss
from ``src/``, builds the workload's round of CLI invocations from the seed,
and calls ``polygauss.cli.main`` on them in a closed loop, one after another,
repeating the round while at least half a round still fits in ``--seconds``
of operation time.  Every operation's outputs are checked (``checks.py``)
outside the timing.  Times are divided by a host speed index sampled while
they ran (``hostspeed.py``); raw wall times go to the run's ``result.json``.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
operation untraced and then traced (both count towards ``--seconds``),
requires byte-identical data files from the two, and reports the per-layer
metrics (``tracing.py``).
"""

from __future__ import annotations

import os

# One thread everywhere: set before numpy is imported by anything.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 5


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """What every run does before its first operation: import the CLI (and
    with it numpy and scipy) and build the round."""
    import polygauss.cli

    src = (ROOT / "src").resolve()
    if src not in Path(polygauss.cli.__file__).resolve().parents:
        raise ImportError(f"polygauss was imported from {polygauss.cli.__file__}, not {src}")
    return polygauss.cli.main, wl.build_round(workload, seed)


def time_setup(args: argparse.Namespace) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter on this script until it has
    set up and says so, and the host index meanwhile; the child then
    exits and is waited for."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited {code} after printing {line!r}")
    return elapsed, hostspeed.slowdown(sampler.samples)


def invoke(cli_main, op: wl.Op, out: Path) -> tuple[int, str]:
    """One CLI invocation writing to ``out``; returns (exit code, its output).
    A traceback counts as exit code -1."""
    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            code = int(cli_main([*op.argv, "--out", str(out)]))
    except Exception:  # a traceback is a program fault: count it, keep running
        return -1, text.getvalue() + traceback.format_exc()
    return code, text.getvalue()


class Run:
    def __init__(self, args: argparse.Namespace, cli_main, ops: list[wl.Op]):
        self.args = args
        self.cli_main = cli_main
        self.ops = ops
        RUNS_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=RUNS_DIR))
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.walls: list[float] = []  # untraced operation wall times
        self.traced_walls: list[float] = []
        self.bytes_written: list[int] = []
        self.slowdowns: list[float] = []  # host index during each untraced operation
        self.tracer = None
        if args.trace:
            import tracing  # only traced runs pay for it

            self.tracer = tracing.Tracer()

    def _call(self, op: wl.Op, out: Path, traced: bool) -> tuple[float, int]:
        """One CLI invocation.  Untraced calls of an untraced run are timed
        with the host-speed sampler running; traced runs are not."""
        gc.collect()
        sampler = hostspeed.Sampler() if self.tracer is None else contextlib.nullcontext()
        if traced:
            self.tracer.install()
        try:
            with sampler:
                t0 = time.perf_counter()
                if traced:
                    code, text = self.tracer.operation(op.label, invoke, self.cli_main, op, out)
                else:
                    code, text = invoke(self.cli_main, op, out)
                wall = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        if self.tracer is None:
            self.slowdowns.append(hostspeed.slowdown(sampler.samples))
        self.attempted += 1
        if code != 0:
            self.failed += 1
        self._log(op, out, wall, code, text)
        return wall, code

    def _log(self, op: wl.Op, out: Path, wall: float, code: int, text: str) -> None:
        note = ""
        if code == 2 and op.kind == "verify":
            from checks import failing_families

            note = f" failing: {', '.join(failing_families(out))}"
        elif code != 0:
            note = f" {text.strip().splitlines()[-1] if text.strip() else ''}"
        speed = f", host index {self.slowdowns[-1]:.3f}" if self.tracer is None else ""
        print(f"{op.label}: exit {code} in {wall:.3f} s{speed}{note}", file=sys.stderr, flush=True)

    def _fail(self, op: wl.Op, message: str) -> None:
        self.correct = False
        print(f"CHECK FAILED {op.label}: {message}", file=sys.stderr, flush=True)

    def operation(self, op: wl.Op) -> float:
        """Run, check and clean up one operation (two calls when tracing);
        returns the wall time of the calls."""
        # Imported here, after set-up was timed: scipy.integrate is the
        # benchmark's cost, not the CLI's.
        from checks import CheckFailed, check_op, data_digests

        out, twin = self.dir / "a", self.dir / "b"
        wall, code = self._call(op, out, traced=False)
        self.walls.append(wall)
        try:
            check_op(op, out, code)
        except CheckFailed as exc:
            self._fail(op, str(exc))
        self.bytes_written.append(sum(p.stat().st_size for p in out.rglob("*") if p.is_file()))
        if self.tracer is not None:
            traced_wall, traced_code = self._call(op, twin, traced=True)
            self.traced_walls.append(traced_wall)
            wall += traced_wall
            if traced_code != code or data_digests(out) != data_digests(twin):
                self._fail(op, "traced run wrote other data files than the untraced one")
            shutil.rmtree(twin, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    def timed_phase(self) -> None:
        """Whole rounds; another one starts while at least half of it is
        expected to fit in --seconds of operation time."""
        spent, rounds = 0.0, 0
        while rounds == 0 or spent + 0.5 * spent / rounds < self.args.seconds:
            for op in self.ops:
                spent += self.operation(op)
            rounds += 1

    def end_to_end(self, setup_s: float) -> dict:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        normalised = [w / s for w, s in zip(self.walls, self.slowdowns)]
        return {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(normalised) / sum(normalised), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(normalised), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    def per_layer(self) -> dict:
        import tracing

        spans = self.tracer.spans
        per_op = [tracing.op_metrics(spans, i) for i in range(len(self.traced_walls))]
        total = {k: sum(m[k] for m in per_op) for k in per_op[0]}
        n = len(per_op)
        values = {k: total[k] / n for k in tracing.PER_OP_MEANS}
        values["lp.unique_ratio"] = total["lp.distinct"] / total["lp.solves"] if total["lp.solves"] else 1.0
        values["lp.us_per_cell"] = 1e6 * total["lp.solve_s"] / total["lp.cells"] if total["lp.cells"] else 0.0
        values["charfn.ns_per_term"] = (
            1e9 * total["charfn.ecf_s"] / total["charfn.ecf_terms"] if total["charfn.ecf_terms"] else 0.0)
        values["cli.bytes_written"] = sum(self.bytes_written) / len(self.bytes_written)
        values["trace.overhead_ratio"] = statistics.median(self.traced_walls) / statistics.median(self.walls)
        out = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.PER_LAYER_UNITS.items()}
        with open(self.dir / "spans.json", "w") as fh:
            json.dump([vars(s) for s in spans], fh)
        return out


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        cli_main, ops = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import polygauss from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    setups = [] if args.trace else [time_setup(args) for _ in range(SETUP_REPEATS)]
    run = Run(args, cli_main, ops)
    run.timed_phase()
    if args.trace:
        metrics = run.per_layer()
    else:
        metrics = run.end_to_end(statistics.median(e / slow for e, slow in setups))
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    raw = {"op_walls": run.walls, "op_slowdowns": run.slowdowns, "setups": setups}
    (run.dir / "result.json").write_text(json.dumps(result | raw, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
