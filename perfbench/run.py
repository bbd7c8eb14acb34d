"""operadkit benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload models|tails|transfer
                             [--seed N] [--seconds S] [--trace 0|1]

A closed loop with one client: the workload's jobs run back to back, one at
a time, each in a fresh child process (``child.py``), and a pass is one run
of every job.  Untraced, passes repeat while the next one is predicted to end
within ``--seconds``; the end-to-end metrics are medians over passes.
Traced, one untraced pass is followed by one traced pass, which gives the
per-layer metrics and the tracing overhead.

Every job's verdict and, where pinned, its output digest are checked; a
mismatch counts as a failed job.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS  # noqa: E402
from tracer import COUNTER_NAMES, SIZE_NAMES, SPAN_NAMES  # noqa: E402

CHILD_TIMEOUT_S = 150
# Each job is set up at least this often per run, so setup_s is a median.
MIN_SETUP_SAMPLES = 3

ALL_JOBS = [j for jobs in WORKLOADS.values() for j in jobs]
PER_LAYER = (
    [f"cli.job.{j}.wall_s" for j in ALL_JOBS]
    + [f"{s}.{k}" for s in SPAN_NAMES for k in ("calls", "self_s", "total_s")]
    + list(SIZE_NAMES)
    + list(COUNTER_NAMES)
    + [
        "serialize.bytes_out",
        "tails.useful_ratio",
        "transfer.residuals_per_unknown",
        "trace.wall_s",
        "trace.overhead_s",
        "trace.layer_share",
    ]
)


RATIOS = ("tails.useful_ratio", "transfer.residuals_per_unknown", "trace.layer_share")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "linalg.elim_work":
        return "ops_computed"  # computed from sizes, not measured
    if name in RATIOS:
        return "ratio"
    if name == "serialize.bytes_out":
        return "bytes"
    return "count"


class BenchError(RuntimeError):
    """The harness itself failed; no result is printed."""


class Runner:
    def __init__(self, seed: int, workdir: Path, spans_dir: Path | None):
        self.seed = seed
        self.workdir = workdir
        self.spans_dir = spans_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        # Fixed so that set iteration order, and with it the work done, is
        # the same in every child.  Outputs do not depend on it.
        self.env["PYTHONHASHSEED"] = "0"
        self.count = 0

    def job(self, job: str, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        result = self.workdir / f"result-{self.count}.json"
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--job", job, "--seed", str(self.seed),
            "--workdir", str(self.workdir), "--result", str(result),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--spans", str(self.spans_dir / f"{job}.spans.json")]
        spawned = time.monotonic()
        cmd += ["--spawned", repr(spawned)]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{job}: child did not finish within {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"{job}: child exited {proc.returncode}\n{proc.stderr[-2000:]}")
        return json.loads(result.read_text())

    def run_pass(self, jobs, trace=False):
        return [self.job(j, trace=trace) for j in jobs]


def job_failed(r: dict) -> bool:
    return bool(r["error"]) or not r["verdict_ok"] or not r["digest_ok"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name, values, unit):
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return f"{name}: median {median:.4f} {unit}, q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


def measure(runner: Runner, jobs, seconds: float):
    """Untraced passes; returns (end-to-end metrics, all job results)."""
    start = time.monotonic()
    passes, durations = [], []
    while True:
        t = time.monotonic()
        passes.append(runner.run_pass(jobs))
        durations.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break
    results = [r for p in passes for r in p]
    setups = {j: [r["setup_s"] for r in results if r["job"] == j] for j in jobs}
    for j in jobs:
        while len(setups[j]) < MIN_SETUP_SAMPLES:
            setups[j].append(runner.job(j, setup_only=True)["setup_s"])

    wall = [sum(r["wall_s"] for r in p) for p in passes]
    cpu = [sum(r["cpu_s"] for r in p) for p in passes]
    for line in (describe("wall_s", wall, "s"), describe("cpu_s", cpu, "s")):
        print(line)
    for j in jobs:
        print(describe(f"  {j}.wall_s", [r["wall_s"] for r in results if r["job"] == j], "s"))
        print(describe(f"  {j}.setup_s", setups[j], "s"))
    metrics = {
        "wall_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "setup_s": (sum(statistics.median(v) for v in setups.values()), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in results) / 1024, "MB"),
    }
    return metrics, results


def trace(runner: Runner, jobs):
    """One untraced and one traced pass; returns (per-layer metrics, results)."""
    plain = runner.run_pass(jobs)
    traced = runner.run_pass(jobs, trace=True)
    totals = dict.fromkeys(PER_LAYER, 0)
    unattributed = 0.0
    for r in traced:
        for key, value in r["metrics"].items():
            if key in ("trace.unattributed_s", "cli.main.self_s"):
                unattributed += value
            if key in totals:
                totals[key] += value
    # Span-clock job time: excludes the size bookkeeping, includes wrapper
    # cost.  The layer share counts what lies below the cli layer.
    traced_wall = sum(totals[f"cli.job.{j}.wall_s"] for j in jobs)
    totals["trace.wall_s"] = traced_wall
    totals["trace.overhead_s"] = traced_wall - sum(r["wall_s"] for r in plain)
    totals["trace.layer_share"] = 1 - unattributed / traced_wall
    if totals["tails.candidates"]:
        totals["tails.useful_ratio"] = totals["tails.tail_terms"] / totals["tails.candidates"]
    if totals["transfer.unknowns"]:
        steps = sum(r["metrics"].get("transfer.step_residuals", 0) for r in traced)
        totals["transfer.residuals_per_unknown"] = steps / totals["transfer.unknowns"]
    print(f"traced wall_s {traced_wall:.4f} s vs untraced {sum(r['wall_s'] for r in plain):.4f} s")
    return {k: (v, layer_unit(k)) for k, v in totals.items()}, plain + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "operadkit" / "__init__.py").is_file():
        print(f"error: no operadkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    jobs = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    spans_dir = None
    if args.trace:
        spans_dir = HERE / "_out" / args.workload
        spans_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.seed, workdir, spans_dir)
    try:
        if args.trace:
            metrics, results = trace(runner, jobs)
        else:
            metrics, results = measure(runner, jobs, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in results if job_failed(r)]
    for r in failed:
        print(
            f"FAILED {r['job']}: exit {r['exit']}, verdict_ok {r['verdict_ok']}, "
            f"digest {r['digest']} ok {r['digest_ok']}\n{r['error'] or ''}".rstrip()
        )
    out = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
