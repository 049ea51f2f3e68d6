"""The benchmark's workloads, each a list of CLI calls with their expected outcomes.

A workload is built for one program seed, the value passed to the CLI's
``--seed``.  References are stored for program seeds 0 to
PROGRAM_SEEDS - 1, and the benchmark seed picks among them, so every run
is checked against a stored reference.  Precision is passed explicitly,
so ``MAXSING_PRECISION_BITS`` cannot change the inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

PROGRAM_SEEDS = 16
PRECISION = "64"

KLINEAR_FAMILIES = (("grassmann", 5, 2), ("grassmann", 4, 2), ("prodforms", 2, 3))
LOG3X_KLINEAR = (("grassmann", 4, 2), ("prodforms", 2, 3))


@dataclass(frozen=True)
class Op:
    """One CLI call and what it must produce."""

    kind: str            # the CLI command: gen, verify or bruteforce
    label: str           # key of the stored reference
    argv: tuple
    exit: int            # expected exit code
    points: int = 0      # expected trace length (gen, verify)
    trace: str = ""      # trace written (gen) or read (verify, bruteforce)
    audit: str = ""      # audit report written (verify)
    partial: bool = False


def _gen(label, family_args, phi, steps, seed, trace, exit, points, extra=()):
    argv = ("gen", *family_args, "--phi", *phi, "--steps", str(steps), "--seed", str(seed),
            "--precision-bits", PRECISION, *extra, "--out", trace)
    return Op("gen", label, argv, exit, points, trace)


def _verify(label, trace, points, partial=False):
    audit = trace[:-len(".json")] + ".audit.json"
    argv = ("verify", trace, "--precision", PRECISION, "--out", audit)
    return Op("verify", label, argv, 0, points, trace, audit, partial)


def _family_args(kind, n, k):
    return ("--family", kind, "--n", str(n), "--k", str(k))


def split4_pow(seed: int, work: str) -> list[Op]:
    trace = os.path.join(work, "split4_pow.json")
    label = f"split4 pow1/2 steps11 seed{seed}"
    return [
        _gen(f"gen {label}", ("--family", "quadric"), ("pow", "1/2"), 11, seed, trace, 0, 11),
        _verify(f"verify {label}", trace, 11),
    ]


def klinear_small(seed: int, work: str) -> list[Op]:
    ops = []
    for s in (seed, seed + 1, seed + 2):
        for kind, n, k in KLINEAR_FAMILIES:
            trace = os.path.join(work, f"{kind}{n}{k}_s{s}.json")
            label = f"{kind}({n},{k}) pow1/2 steps8 height4 seed{s}"
            ops.append(_gen(f"gen {label}", _family_args(kind, n, k), ("pow", "1/2"), 8, s, trace,
                            0, 8, ("--max-height", "4")))
            ops.append(_verify(f"verify {label}", trace, 8))
    return ops


def log3x_oracle(seed: int, work: str) -> list[Op]:
    split4 = os.path.join(work, "split4_log3x.json")
    label = f"split4 log3x steps12 seed{seed}"
    gens = [_gen(f"gen {label}", ("--family", "quadric"), ("log3x",), 12, seed, split4, 2, 4)]
    verifies = [_verify(f"verify {label}", split4, 4, partial=True)]
    for kind, n, k in LOG3X_KLINEAR:
        trace = os.path.join(work, f"{kind}{n}{k}_log3x.json")
        klabel = f"{kind}({n},{k}) log3x steps8 height4 seed{seed}"
        gens.append(_gen(f"gen {klabel}", _family_args(kind, n, k), ("log3x",), 8, seed, trace,
                         2, 4, ("--max-height", "4")))
        verifies.append(_verify(f"verify {klabel}", trace, 4, partial=True))
    brute = Op("bruteforce", f"bruteforce xmax20 {label}",
               ("bruteforce", split4, "--xmax", "20", "--precision", PRECISION, "--json"), 0, trace=split4)
    return gens + verifies + [brute]


WORKLOADS = {
    "split4_pow": split4_pow,
    "klinear_small": klinear_small,
    "log3x_oracle": log3x_oracle,
}


def build_adapters(maxsing, workload: str) -> list:
    """The family adapters a workload's commands build, through the public API."""
    makers = {"grassmann": maxsing.grassmann_adapter, "prodforms": maxsing.prodforms_adapter}
    families = {"klinear_small": KLINEAR_FAMILIES, "log3x_oracle": LOG3X_KLINEAR}.get(workload, ())
    adapters = [makers[kind](n, k) for kind, n, k in families]
    if workload != "klinear_small":
        adapters.append(maxsing.quadric_adapter(*maxsing.split4()))
    return adapters
