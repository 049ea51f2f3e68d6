"""Regenerate bench/references.json from the code in this checkout.

Run from the root of a checkout whose outputs are trusted:

    python3 bench/make_references.py

Every workload is run once for each program seed.  Each op must first
meet its own expectations (exit code, point count, audit verdict); the
digests and sizes it produces then become the references.  Digests are
format-independent, so a new trace format needs no new references.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from worker import WORK_DIR, load_program, run_iteration


def main() -> int:
    root = Path.cwd()
    maxsing = load_program(root)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="references-", dir=root / WORK_DIR)
    refs: dict[str, dict] = {}
    try:
        for name, make_ops in workloads.WORKLOADS.items():
            for seed in range(workloads.PROGRAM_SEEDS):
                for op in make_ops(seed, work):
                    if op.label not in refs:
                        run = run_iteration(maxsing.cli, [op], {op.label: {}})
                        if run["failures"]:
                            print("\n".join(run["failures"]), file=sys.stderr)
                            return 1
                        refs[op.label] = run["facts"][op.label]
                print(f"{name} seed {seed} done", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"program_seeds": workloads.PROGRAM_SEEDS, "ops": refs}
    checks.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
