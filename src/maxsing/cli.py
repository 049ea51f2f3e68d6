"""Command-line surface: gen, verify, exponent, bruteforce.

Exit codes: 0 success, 1 usage or malformed input, 2 search budget
exhausted (partial trace written and flagged), 3 audit failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import builder, families, verifier
from .builder import MAX_PRECISION_BITS, ApproxFn
from .errors import InputError, SearchExhausted, reading
from .exact_geometry import dec_str
from .multilinear import load_map
from .quadric import load_form, split4

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_AUDIT = 3


# the largest --max-multiplier-bits: the search's cap 2^65536 is an 8 KB integer
MAX_MULTIPLIER_BITS = 65536


def _int_range(lo: int, hi: int | None = None):
    """An argparse type taking the integers lo..hi (hi None: no upper end); others are refused naming the range."""
    span = f"of at least {lo}" if hi is None else f"from {lo} to {hi}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"expected an integer {span}, got {text!r}")
        return value
    return parse


_precision = _int_range(1, MAX_PRECISION_BITS)


def _default_precision() -> int:
    """MAXSING_PRECISION_BITS, or 64 when it is unset or empty."""
    env = os.environ.get("MAXSING_PRECISION_BITS")
    if not env:
        return 64
    try:
        return _precision(env)
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"MAXSING_PRECISION_BITS: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="maxsing", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="construct a trace")
    g.add_argument("--family", required=True, choices=["grassmann", "prodforms", "quadric", "klinear"])
    g.add_argument("--n", type=int, help="source dimension (grassmann/prodforms)")
    g.add_argument("--k", type=int, help="arity (grassmann/prodforms)")
    g.add_argument("--quadric-file", help="quadratic form JSON (default: built-in split4)")
    g.add_argument("--klinear-file", help="k-linear map JSON")
    g.add_argument("--phi", nargs="+", required=True, metavar="SPEC",
                   help="decay target: 'log3x' or 'pow p/q' with 0 < p/q < 1")
    g.add_argument("--steps", type=int, required=True, help="number of trace points (>= 2)")
    g.add_argument("--seed", type=int, default=0, help="tie-breaking seed (0: natural order)")
    g.add_argument("--out", required=True, help="output trace path")
    g.add_argument("--precision-bits", type=_precision, default=None)
    g.add_argument("--max-height", type=_int_range(0), default=6, help="candidate search height cap")
    g.add_argument("--max-multiplier-bits", type=_int_range(0, MAX_MULTIPLIER_BITS), default=4096,
                   help="cap 2^bits on the doubling phase of the multiplier search and on the range "
                        "of a log3x forced-stop proof; the scan and the 64 values above the hint "
                        "are probed whatever the cap, so a multiplier may exceed it")

    v = sub.add_parser("verify", help="audit a trace")
    v.add_argument("trace", help="trace JSON path")
    v.add_argument("--precision", type=_precision, default=None)
    v.add_argument("--bruteforce-xmax", type=int, default=None)
    v.add_argument("--out", help="write the audit JSON here (default: stdout)")

    e = sub.add_parser("exponent", help="per-scale certified exponent lower bounds")
    e.add_argument("trace")
    e.add_argument("--precision", type=_precision, default=None)
    e.add_argument("--json", action="store_true")

    b = sub.add_parser("bruteforce", help="exhaustive best-approximation oracle")
    b.add_argument("trace")
    b.add_argument("--xmax", type=int, required=True)
    b.add_argument("--precision", type=_precision, default=None)
    b.add_argument("--json", action="store_true")
    return p


def _parse_phi(spec: list[str], precision: int) -> ApproxFn:
    with reading("--phi " + " ".join(spec)):
        if spec[0] == "log3x":
            if len(spec) != 1:
                raise InputError("log3x takes no parameter")
            return ApproxFn("log3x", precision_bits=precision)
        if spec[0] == "pow":
            if len(spec) != 2:
                raise InputError("pow needs one exponent parameter p/q")
            exponent = Fraction(spec[1])
            if not 0 < exponent < 1:
                raise InputError("power-law exponent must lie strictly between 0 and 1 "
                                 "(the decay target maps into (0, 1])")
            return ApproxFn("pow", exponent, precision_bits=precision)
        raise InputError(f"unknown decay target {spec[0]!r}")


def _make_adapter(args):
    if args.family in ("grassmann", "prodforms"):
        if args.n is None or args.k is None:
            raise InputError(f"{args.family} needs --n and --k")
        maker = families.grassmann_adapter if args.family == "grassmann" else families.prodforms_adapter
        return maker(args.n, args.k)
    if args.family == "quadric":
        form, wit = load_form(args.quadric_file) if args.quadric_file else split4()
        return families.quadric_adapter(form, wit)
    if args.klinear_file is None:
        raise InputError("klinear needs --klinear-file")
    return families.KLinearAdapter(load_map(args.klinear_file), "klinear")


def cmd_gen(args) -> int:
    phi = _parse_phi(args.phi, args.precision_bits)
    adapter = _make_adapter(args)
    if args.steps < 2:
        raise InputError("--steps must be at least 2")
    budget = families.SearchBudget(max_height=args.max_height,
                                   multiplier_bits=args.max_multiplier_bits)
    try:
        trace = builder.run(adapter, phi, args.steps, seed=args.seed, budget=budget)
    except SearchExhausted as exc:
        builder.save_trace(exc.partial, args.out)
        print(f"budget exhausted: {exc}", file=sys.stderr)
        if exc.needed_bits is not None:
            print(f"the chosen line needs at least {exc.needed_bits} bits of norm; "
                  f"the cap allows about {exc.cap_bits}", file=sys.stderr)
        print(f"partial trace with {len(exc.partial.entries)} points written to {args.out}",
              file=sys.stderr)
        return EXIT_BUDGET
    builder.save_trace(trace, args.out)
    print(f"trace with {len(trace.entries)} points written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    trace = builder.load_trace(args.trace)
    report = verifier.audit_report(
        trace,
        precision_bits=args.precision,
        bruteforce_xmax=args.bruteforce_xmax,
    )
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if not report["all_pass"]:
        first = next(
            (f"index {r['index']}: {r['failures'][0]}" for r in report["conditions"] if r["failures"]),
            "spanning or domination failure",
        )
        print(f"audit FAILED ({first})", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def cmd_exponent(args) -> int:
    rows = verifier.exponent_report(builder.load_trace(args.trace), args.precision)
    docs = [r.to_doc() for r in rows]
    if args.json:
        print(json.dumps(docs, indent=2))
        return EXIT_OK
    print(f"{'index':>5}  {'X':>18}  {'lambda_lb':>16}")
    for d in docs:
        print(f"{d['index']:>5}  {d['X_dec']:>18}  {d['lambda_lb_dec']:>16}")
    return EXIT_OK


def cmd_bruteforce(args) -> int:
    trace = builder.load_trace(args.trace)
    radius_sq = builder.limit_radius_sq(trace)
    rows = verifier.brute_force_curve(trace.entries[-1].x, radius_sq, args.xmax, args.precision)
    if args.json:
        print(json.dumps([verifier.bruteforce_row_doc(r) for r in rows], indent=2))
        return EXIT_OK
    print(f"{'X':>5}  {'Dmin hi':>18}  argmin")
    for r in rows:
        arg = "(" + ", ".join(str(a) for a in r["argmin"]) + ")"
        print(f"{r['X']:>5}  {dec_str(r['hi'], 12):>18}  {arg}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place an exception becomes an exit code (errors.py has the table)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handlers = {
        "gen": cmd_gen,
        "verify": cmd_verify,
        "exponent": cmd_exponent,
        "bruteforce": cmd_bruteforce,
    }
    flag = "precision_bits" if args.command == "gen" else "precision"
    try:
        if getattr(args, flag) is None:
            setattr(args, flag, _default_precision())
        return handlers[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
