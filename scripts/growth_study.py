#!/usr/bin/env python3
"""Measure how coordinate sizes grow step by step under each decay target.

The step condition forces |x_i ^ x_{i+1}| <= (2/3) ln(3 |x_{i+1}|) under
the logarithmic target, while the rational lines through x_i that stay on
the variety and escape the accumulated subspace have lattice covolume
growing like a power of |x_i|.  Norms must then tower-exponentiate, and
runs stop at the multiplier cap after a few points.  A power law
X^(-p) only forces |x_{i+1}| >= ((3/2) area)^(1/(1-p)), which keeps the
bit growth to a constant factor per step.  This script prints both.
"""

import argparse
import sys
from fractions import Fraction

from maxsing.builder import ApproxFn, run
from maxsing.errors import SearchExhausted
from maxsing.exact_geometry import wedge_sq
from maxsing.families import SearchBudget, quadric_adapter
from maxsing.quadric import split4


def study(phi: ApproxFn, steps: int, cap_bits: int) -> None:
    form, wit = split4()
    try:
        trace = run(quadric_adapter(form, wit), phi, steps,
                    budget=SearchBudget(multiplier_bits=cap_bits))
        note = ""
    except SearchExhausted as exc:
        trace = exc.partial
        note = f"  [stopped: {exc}]"
    print(f"{'i':>3} {'coord bits':>11} {'wedge area bits':>16} {'b bits':>8}")
    for i, entry in enumerate(trace.entries, start=1):
        bits = max(abs(c).bit_length() for c in entry.x)
        if entry.step is not None:
            area_bits = (wedge_sq(entry.x, entry.step.z).bit_length() + 1) // 2
            b_bits = entry.step.b.bit_length()
            print(f"{i:>3} {bits:>11} {area_bits:>16} {b_bits:>8}")
        else:
            print(f"{i:>3} {bits:>11}")
    if note:
        print(note)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=12)
    ap.add_argument("--cap-bits", type=int, default=4096)
    args = ap.parse_args()
    print("== split4 under log(3X)/X")
    study(ApproxFn("log3x"), args.steps, args.cap_bits)
    print("\n== split4 under X^(-1/2)")
    study(ApproxFn("pow", Fraction(1, 2)), args.steps, max(args.cap_bits, 600000))
    return 0


if __name__ == "__main__":
    sys.exit(main())
