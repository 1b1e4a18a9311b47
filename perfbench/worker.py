"""Run one workload's passes in this process and print them as one JSON object.

run.py starts this with the checkout's ``src`` on PYTHONPATH, so the
package measured is the one imported from source, with whatever kernel
backend its import picked. The passes form a closed loop: one caller,
and each pass starts only after the previous one has returned.

    PYTHONPATH=src python3 perfbench/worker.py --workload verify --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np
from spans import Tracer

from smith_spectra import bounds, cli, eig

# argv for the CLI workloads; hong-c6 calls bounds.hong_cn(6) directly
WORKLOADS = {
    "bounds-lcm": ["bounds", "--family", "lcm", "--n", "2..2000", "--format", "csv"],
    "inertia-lcm": ["inertia-sweep", "--family", "lcm", "--n", "2..100", "--format", "csv"],
    "verify": ["verify", "--n-max", "80", "--format", "json"],
    "hong-c6": None,
}
HONG_N = 6

# tiny versions of each workload, run once before timing so that lazy
# imports and first-call set-up inside numpy are not timed
WARMUPS = {
    "bounds-lcm": ["bounds", "--family", "lcm", "--n", "2..20", "--format", "csv"],
    "inertia-lcm": ["inertia-sweep", "--family", "lcm", "--n", "2..10", "--format", "csv"],
    "verify": ["verify", "--n-max", "6", "--format", "json"],
    "hong-c6": None,
}


def environment() -> dict:
    return {
        "backend": eig.default_backend(),
        "available_backends": list(eig.available_backends()),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def run_pass(argv: list[str] | None, hong_n: int = HONG_N) -> tuple[int, str, str | None]:
    """One pass: (exit code, captured stdout, traceback or None)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            if argv is None:
                result = bounds.hong_cn(hong_n)
                print(json.dumps({"n": result.n, "c_n": result.c_n,
                                  "witness": result.witness}))
                code = 0
            else:
                code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue(), f"SystemExit({exc.code!r})"
    except Exception:  # a failed pass is reported, and the loop goes on
        return 1, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    argv = WORKLOADS[args.workload]
    run_pass(WARMUPS[args.workload], hong_n=3)

    tracer = Tracer() if args.trace else None

    passes: list[dict] = []
    outputs: dict[str, str] = {}
    layer_runs: list[dict] = []
    start = perf_counter()
    while True:
        # traced runs alternate untraced and traced passes, so that the
        # difference of their medians is the tracing overhead
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        t0 = perf_counter()
        code, text, error = run_pass(argv)
        wall = perf_counter() - t0
        size = len(text.encode())
        if traced:
            tracer.uninstall()
            layers = tracer.metrics()
            layers["cli.output_bytes"] = size if argv is not None else 0
            layer_runs.append(layers)
            tracer.reset()
        digest = hashlib.sha256(text.encode()).hexdigest()
        outputs.setdefault(digest, text)
        passes.append({"wall_s": wall, "code": code, "sha256": digest,
                       "bytes": size, "traced": traced, "error": error})
        done = perf_counter() - start >= args.seconds
        if done and (tracer is None or layer_runs):
            break

    result = {
        "env": environment(),
        "passes": passes,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = {name: statistics.median(run[name] for run in layer_runs)
                  for name in layer_runs[0]}
        untraced = [p["wall_s"] for p in passes if not p["traced"]]
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
        result["layers"] = layers
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
