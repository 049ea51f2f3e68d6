"""maxsing benchmark: runs a workload through the CLI, checks it and prints its metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload split4_pow --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 1

Each workload runs in its own child process (bench/worker.py), one at a
time, so peak memory belongs to that workload.  ``--trace 0`` prints the
end-to-end metrics, measured untraced; ``--trace 1`` prints the per-layer
metrics of a traced run.  Set-up time is the median over SETUP_SAMPLES
fresh processes, each timed from its start through ``import maxsing``
and the construction of the workload's family adapters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is
one CLI call; it fails on an exception, an unexpected exit code, a failed
audit or a mismatch with the stored reference, and the error rate is
``failed / attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
DEADLINE_S = 175  # per workload: each run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "gen_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "trace_bytes": "bytes",
}

TRACE_EXTRAS = ("trace.untraced_total_s", "trace.traced_total_s", "trace.overhead_s",
                "size.last_coord_bits")


def per_layer_names() -> list[str]:
    return list(tracing.layer_metrics([], {})) + list(TRACE_EXTRAS)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(("calls", "attempts", "points_visited")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    return "ratio"


def _child_env() -> dict:
    # precision comes from the argv alone; bytecode is cached as for an installed program
    drop = ("MAXSING_PRECISION_BITS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(root: Path, args: list[str], deadline: float) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    # -S: no site hooks, so the .pth files of whatever packages the machine
    # has installed stay out of the set-up time; maxsing needs only the stdlib
    cmd = [sys.executable, "-S", str(BENCH_DIR / "worker.py"), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=root, env=_child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        setups = [_child(root, base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    result = _child(root, base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups + [result["setup_s"]])
    return result


def _report(name: str, result: dict, trace: int) -> None:
    print(f"== {name}: {result['iterations']} iterations, {result['attempted']} CLI calls")
    metrics = result["metrics"]
    names = per_layer_names() if trace else list(END_TO_END) + ["bruteforce_s"]
    for metric in names:
        if metric == "bruteforce_s" and not metrics[metric]:
            print(f"{name:14} {metric:44} n/a (no bruteforce call in this workload)")
            continue
        line = f"{name:14} {metric:44} {metrics[metric]:.6g} {unit_of(metric)}"
        samples = result.get("samples", {}).get(metric)
        if samples:
            line += f"  (median of {len(samples)}, range {min(samples):.6g} to {max(samples):.6g})"
        print(line)
    rate = result["failed"] / result["attempted"]
    print(f"{name:14} {'error_rate':44} {rate:.6g} ({result['failed']} failed of {result['attempted']} calls)")
    for line in result["failures"]:
        print(f"{name:14} FAILED {line}", file=sys.stderr)
    for line in result["warnings"]:
        print(f"{name:14} warning: {line}", file=sys.stderr)
    if trace and metrics["trace.coverage_min"] < 0.9:
        print(f"{name:14} warning: top-level spans cover only {metrics['trace.coverage_min']:.1%} "
              "of a command's wall time", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "maxsing" / "__init__.py").is_file():
        print(f"error: {root} holds no maxsing sources (src/maxsing)", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}, "
          f"seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    try:
        results = {n: run_workload(root, n, args.seed, args.seconds, args.trace, deadline) for n in names}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    wanted = per_layer_names() if args.trace else list(END_TO_END)
    for n, result in results.items():
        _report(n, result, args.trace)
        prefix = f"{n}." if len(names) > 1 else ""
        for metric in wanted:
            metrics[prefix + metric] = {"value": result["metrics"][metric], "unit": unit_of(metric)}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
