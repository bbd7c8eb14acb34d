"""Run one benchmark job in this (fresh) process and write its result as JSON.

Usage: child.py --job NAME --seed N --workdir DIR --result FILE
                --spawned T [--spans FILE] [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, ``import operadkit``
and input generation.  The timed region is the single ``cli.main(argv)`` or
library call, with standard output captured for the digest.  With
``--spans`` the call is traced and the spans are written to that file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import operadkit  # noqa: E402,F401  (counted in set-up time)

import jobs  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--job", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    call, finish = jobs.prepare(args.job, args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned
    result = {"job": args.job, "setup_s": setup_s}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    tracer = Tracer() if args.spans else None
    if tracer:
        tracer.install()
        root = tracer.begin(f"cli.job.{args.job}")
    out = io.StringIO()
    value, error = None, None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            value = call()
    except Exception:  # an internal error is a failed job, not a harness crash
        error = traceback.format_exc()
    t1 = time.perf_counter()
    c1 = time.process_time()
    if tracer:
        tracer.end(root)
        tracer.uninstall()

    ok, data = (False, b"") if error else finish(value, out.getvalue())
    digest_ok = not error and jobs.check_digest(args.job, args.seed, data)
    result.update(
        wall_s=t1 - t0,
        cpu_s=c1 - c0,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        exit=value if isinstance(value, int) else None,
        verdict_ok=ok,
        digest=jobs.digest(data),
        digest_ok=digest_ok,
        error=error,
    )
    if tracer:
        metrics = summarize(tracer.spans, tracer.counters)
        metrics[f"cli.job.{args.job}.wall_s"] = root[4] - root[3]
        metrics["serialize.bytes_out"] = 0 if args.job in jobs.LIBRARY_JOBS else len(data)
        result["metrics"] = metrics
        tracer.write(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
