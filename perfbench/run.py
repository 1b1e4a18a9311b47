"""The smith-spectra benchmark: four oracle-checked workloads of the package
as imported from the checkout's ``src``.

    python3 perfbench/run.py --workload verify --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Each run measures, in fresh interpreters, the set-up time (import of
``smith_spectra.cli`` plus a first 3x3 solve), then starts one worker
process that repeats the workload in a closed loop for ``--seconds``
seconds (worker.py). The worker's captured outputs are checked here, outside
all timing, by oracles that do not use the package (oracles.py). With
``--trace 1`` the worker alternates untraced passes with passes whose layer
functions are wrapped in spans (spans.py) and the run reports per-layer
numbers instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report and a JSON ``info`` line with the environment
stamp, the known failures and the sha256 of the captured output. The exit
code is 0 only when every oracle agrees, apart from the named known failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "smith_spectra"

WORKLOADS = ("bounds-lcm", "inertia-lcm", "verify", "hong-c6")
ITEM_UNITS = {"bounds-lcm": "rows", "inertia-lcm": "rows", "verify": "check results",
              "hong-c6": "solves"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "arith.s": "s", "arith.calls": "count", "arith.sieve_calls": "count",
    "arith.sieve_entries": "count",
    "bounds.self_s": "s", "bounds.closed_form_calls": "count", "bounds.mh_calls": "count",
    "eig.solves": "count", "eig.wrapper_s": "s", "eig.convergence_failures": "count",
    "eig.kernel_s": "s", "eig.sweeps": "count", "eig.sweeps_per_solve": "sweeps/solve",
    "eig.rotations_computed": "count", "eig.kernel_flops_computed": "flop",
    "eig.kernel_gflops": "GFLOP/s", "eig.max_err_vs_eigvalsh": "ratio",
    "matrices.s": "s", "matrices.builds": "count", "matrices.entries": "count",
    "checks.self_s": "s", "checks.results": "count",
    "cli.self_s": "s", "cli.render_s": "s", "cli.output_bytes": "B",
    "trace.overhead_s": "s",
}
KNOWN_FAILURE_REASON = ("the +32 cross term of the improved lcm bracket needs interlacing "
                        "from order 4; at n = 3 the smallest eigenvalue leaves its inner bound")

SETUP_LAUNCHES = 15
PROBE = (
    "import time\n"
    "from smith_spectra import cli, eig\n"
    "spec = eig.jacobi_eigenvalues([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])\n"
    "print(time.perf_counter(), *spec.eigenvalues)\n"
)
PROBE_EIGENVALUES = (2 - 2 ** 0.5, 2.0, 2 + 2 ** 0.5)
PROBE_TIMEOUT_S = 30
WORKER_GRACE_S = 120  # past --seconds: the last pass, tracing and start-up


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts: the package from
    ``src`` and numeric threads capped at the CPUs this process may use."""
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict[str, str]) -> float:
    """Median seconds from launching an interpreter to its first 3x3 solve.

    The probe prints ``perf_counter()`` when the solve has returned; that
    clock is system-wide, so it compares with the launch time taken here.
    """
    samples = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up probe did not finish in {PROBE_TIMEOUT_S} s") from None
        try:
            done, *values = (float(v) for v in proc.stdout.split())
        except ValueError:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}") from None
        if any(abs(v - ref) > 1e-12 for v, ref in zip(values, PROBE_EIGENVALUES)):
            raise BenchError(f"set-up probe solved the 3x3 matrix wrongly: {values}")
        samples.append(done - t0)
    return statistics.median(samples)


def run_worker(workload: str, seconds: float, trace: int, env: dict[str, str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    timeout = seconds + WORKER_GRACE_S
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker did not finish in {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout)
    except ValueError:
        raise BenchError(f"{workload}: worker printed no result:\n{proc.stderr.strip()}") from None


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    if len(samples) < 2:
        return None
    cuts = statistics.quantiles(samples, n=100)
    for p in (99, 95, 90):
        if sum(s > cuts[p - 1] for s in samples) >= 10:
            return p, cuts[p - 1]
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import oracles  # numpy after the thread caps are in os.environ

    env = child_env()
    setup_s = measure_setup(env)
    worker = run_worker(workload, seconds, trace, env)

    sample_f, check, corrupt = oracles.ORACLES[workload]
    sample = sample_f(random.Random(seed))
    verdicts: dict[tuple[str, int], oracles.Verdict] = {}
    self_check = []  # what the oracle said about a corrupted copy of each accepted output
    for p in worker["passes"]:
        key = (p["sha256"], p["code"])
        if key in verdicts:
            continue
        text = worker["outputs"][p["sha256"]]
        verdicts[key] = verdict = check(text, p["code"], sample)
        if not verdict.failures:
            self_check.append(check(corrupt(text, sample), p["code"], sample).failures[:1])

    passes = worker["passes"]
    pass_verdicts = [verdicts[(p["sha256"], p["code"])] for p in passes]
    attempted = sum(v.items for v in pass_verdicts)
    failures = [f for v in pass_verdicts for f in v.failures]
    known = sorted({k for v in pass_verdicts for k in v.known})
    errors = sorted({p["error"] for p in passes if p["error"]})

    walls = [p["wall_s"] for p in passes if not p["traced"]]
    wall_s = statistics.median(walls)
    items = pass_verdicts[0].items
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items_per_s": items / wall_s,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    return {
        "workload": workload,
        "seed": seed,
        "env": worker["env"],
        "trace": trace,
        "end_to_end": end_to_end,
        "layers": worker.get("layers"),
        "wall_samples": walls,
        "traced_walls": [p["wall_s"] for p in passes if p["traced"]],
        "items_per_pass": items,
        "attempted": attempted,
        "failures": failures,
        "errors": errors,
        "known_failures": [{"name": f"{workload}:{k}", "reason": KNOWN_FAILURE_REASON}
                           for k in known],
        "self_check": self_check,
        "outputs": [{"sha256": p["sha256"], "bytes": p["bytes"]}
                    for p in {p["sha256"]: p for p in passes}.values()],
        "correct": not failures and all(self_check),
    }


def print_report(r: dict) -> None:
    env = r["env"]
    print(f"== {r['workload']} (seed {r['seed']}, trace {r['trace']})")
    print(f"   env: backend={env['backend']} available={','.join(env['available_backends'])} "
          f"nproc={env['nproc']} numpy={env['numpy']} python={env['python']}")
    e = r["end_to_end"]
    walls = r["wall_samples"]
    tail = tail_percentile(walls)
    tail_text = f", p{tail[0]} {tail[1]:.4f} s" if tail else ", no tail percentile (<10 beyond)"
    print(f"   setup_s      {e['setup_s']:.4f} s (median of {SETUP_LAUNCHES} launches)")
    print(f"   wall_s       {e['wall_s']:.4f} s (median of {len(walls)} passes{tail_text})")
    print(f"   items_per_s  {e['items_per_s']:.1f} items/s "
          f"({r['items_per_pass']} {ITEM_UNITS[r['workload']]} per pass)")
    print(f"   peak_rss_mb  {e['peak_rss_mb']:.1f} MB")
    fails = len(r["failures"])
    print(f"   fail_frac    {fails / r['attempted']:.6g} ({fails} of {r['attempted']} items)")
    for k in r["known_failures"]:
        print(f"   known failure (not counted): {k['name']}: {k['reason']}")
    for f in sorted(set(r["failures"]))[:10]:
        print(f"   FAILED: {f}")
    for err in r["errors"][:3]:
        print(f"   pass raised: {err.strip().splitlines()[-1]}")
    for rejected in r["self_check"]:
        print(f"   oracle self-check: corrupted output rejected ({rejected[0]})" if rejected
              else "   SELF-CHECK FAILED: the oracle accepted corrupted output")
    for o in r["outputs"]:
        print(f"   output sha256 {o['sha256']} ({o['bytes']} bytes)")
    if r["layers"]:
        layers = r["layers"]
        for name in PER_LAYER:
            print(f"   {name:<26} {layers[name]:.6g} {PER_LAYER[name]}")
        traced = statistics.median(r["traced_walls"])
        print(f"   share of the traced pass ({traced:.4f} s): "
              f"eig.kernel {layers['eig.kernel_s'] / traced:.1%}, "
              f"arith {layers['arith.s'] / traced:.1%}")
    info = {k: r[k] for k in ("workload", "seed", "env", "known_failures", "outputs",
                              "wall_samples")}
    print(json.dumps({"info": info}))


def result_line(reports: list[dict], trace: int) -> dict:
    prefix = len(reports) > 1
    metrics = {}
    for r in reports:
        values, units = (r["layers"], PER_LAYER) if trace else (r["end_to_end"], END_TO_END)
        for name, unit in units.items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": values[name], "unit": unit}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(len(r["failures"]) for r in reports),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the rows the oracles spot-check")
    parser.add_argument("--seconds", type=float, default=20,
                        help="how long the worker repeats the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    os.environ.update({k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in reports:
        print_report(r)
    result = result_line(reports, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
