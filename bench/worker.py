"""One workload in its own process: set-up, timed iterations, checks, optional tracing.

Started by bench/run.py from the root of a checkout.  Prints one JSON
object as its last line of standard output.

Iteration i runs the workload for program seed (seed + i) mod
PROGRAM_SEEDS, calling ``maxsing.cli.main(argv)`` in-process for each
CLI call, and checks every output.  Iterations repeat until the next one
would end after ``--seconds``.  With ``--trace 1`` iterations come in
pairs on the same program seed, one untraced and one traced, with the
order alternating, so the tracing overhead and the equality of their
outputs are measured directly.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import tracing
import workloads

MAX_ITERATIONS = 10_000
WORK_DIR = ".bench_work"


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at process start")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def load_program(root: Path):
    """Import maxsing from the checkout's src/, never from anywhere else."""
    src = (root / "src").resolve()
    if not (src / "maxsing" / "__init__.py").is_file():
        raise SystemExit(f"error: no maxsing sources under {src}")
    sys.path.insert(0, str(src))
    import maxsing
    import maxsing.cli

    if Path(maxsing.__file__).resolve().parent != src / "maxsing":
        raise SystemExit(f"error: imported maxsing from {maxsing.__file__}, not from {src}")
    return maxsing


def run_iteration(cli_module, ops, references) -> dict:
    """Run each op once through the CLI, timing the call and checking its output."""
    times = {"gen": 0.0, "verify": 0.0, "bruteforce": 0.0}
    observed: dict[str, dict] = {}
    failures: list[str] = []
    failed = trace_bytes = last_bits = 0
    for op in ops:
        out = io.StringIO()
        code = None
        crash = None
        gc.collect()  # each call starts on a collected heap, as in a fresh CLI process
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli_module.main(list(op.argv))
        except Exception:
            crash = traceback.format_exc(limit=-3).strip().splitlines()[-1]
        times[op.kind] += time.perf_counter() - start
        problems, facts = checks.observe(op, code, out.getvalue())
        problems += checks.compare(op, facts, references)
        if crash:
            problems.insert(0, f"raised {crash}")
        failures += [f"{op.label}: {p}" for p in problems]
        failed += bool(problems)
        observed[op.label] = facts
        trace_bytes += facts.get("trace_bytes", 0)
        last_bits = max(last_bits, facts.get("last_coord_bits", 0))
    return {
        "total_s": sum(times.values()),
        "gen_s": times["gen"],
        "verify_s": times["verify"],
        "bruteforce_s": times["bruteforce"],
        "trace_bytes": trace_bytes,
        "last_coord_bits": last_bits,
        "ops": len(ops),
        "failed": failed,
        "failures": failures,
        "facts": observed,
    }


def _median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    maxsing = load_program(root)
    workloads.build_adapters(maxsing, args.workload)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    references = checks.load_references()
    make_ops = workloads.WORKLOADS[args.workload]
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK_DIR)
    plain: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []
    spans: list[dict] = []
    warnings: list[str] = []
    recorder = tracing.Recorder()
    try:
        begin = time.perf_counter()
        walls = []
        for i in range(MAX_ITERATIONS):
            ops = make_ops((args.seed + i) % workloads.PROGRAM_SEEDS, work)
            t = time.perf_counter()
            untraced_first = not args.trace or i % 2 == 0
            if untraced_first:
                plain.append(run_iteration(maxsing.cli, ops, references))
            if args.trace:
                recorder.clear()
                with tracing.tracing(recorder, warn=warnings.append):
                    traced.append(run_iteration(maxsing.cli, ops, references))
                if not untraced_first:
                    plain.append(run_iteration(maxsing.cli, ops, references))
                layers.append(tracing.layer_metrics(recorder.spans, recorder.counters,
                                                    [op.kind for op in ops]))
                spans.append(tracing.spans_doc(recorder.spans))
                differ = [label for label, facts in traced[-1]["facts"].items()
                          if facts != plain[-1]["facts"].get(label)]
                traced[-1]["failed"] += len(differ)
                traced[-1]["failures"] += [f"{label}: traced output differs from untraced" for label in differ]
            walls.append(time.perf_counter() - t)
            if time.perf_counter() - begin + statistics.median(walls) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = plain + traced
    failures = [f for r in runs for f in r["failures"]]
    result = {
        "setup_s": setup_s,
        "iterations": len(plain),
        "attempted": sum(r["ops"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": failures[:20],
        "warnings": sorted(set(warnings)),
    }
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.untraced_total_s"] = _median_of(plain, "total_s")
        metrics["trace.traced_total_s"] = _median_of(traced, "total_s")
        metrics["trace.overhead_s"] = metrics["trace.traced_total_s"] - metrics["trace.untraced_total_s"]
        metrics["size.last_coord_bits"] = _median_of(runs, "last_coord_bits")
        out = root / WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "iterations": spans}))
        result["spans_file"] = str(out.relative_to(root))
    else:
        keys = ("total_s", "gen_s", "verify_s", "bruteforce_s", "trace_bytes")
        metrics = {key: _median_of(plain, key) for key in keys}
        result["samples"] = {key: [r[key] for r in plain] for key in keys}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
