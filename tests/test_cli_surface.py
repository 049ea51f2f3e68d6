"""The command-line surface: help, usage and error texts, and the parsed arguments.

``main`` builds the parser of the named command alone.  ``oracle_parser``
is the single parser of all four commands that ``main`` built on every
call before that, kept here verbatim; for every argv below ``main`` must
give its exit code, standard output and standard error, and hand the
command the arguments it parses.  Both run on the same interpreter, so
the texts agree on every Python version.  A subprocess checks that the
package imports without ``dataclasses``, ``inspect`` or ``typing``.
"""

import argparse
import subprocess
import sys
from pathlib import Path

import pytest

from maxsing import cli
from maxsing.cli import EXIT_OK, EXIT_USAGE, MAX_MULTIPLIER_BITS, _int_range, _precision, main

ROOT = Path(__file__).resolve().parents[1]


def oracle_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="maxsing", description=cli.__doc__)
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


GEN = ["gen", "--family", "quadric", "--phi", "pow", "1/2", "--steps", "3", "--out", "t.json"]

# argvs the parser refuses, or answers with help
REFUSED = [
    [], ["--help"], ["-h"], ["--he"],
    ["gen", "--help"], ["verify", "--help"], ["exponent", "--help"], ["bruteforce", "--help"],
    ["verify", "-h", "t.json"],
    ["nosuch"], ["nosuch", "--help"], ["--precision", "64"], ["-x", "gen", "--family", "quadric"],
    ["gen"], ["gen", "--family", "quadric"], ["gen", "--family", "quadric", "--phi", "log3x", "--steps", "3"],
    ["verify"], ["exponent"], ["bruteforce"], ["bruteforce", "t.json"],
    ["gen", "--family", "nosuch", "--phi", "log3x", "--steps", "3", "--out", "t.json"],
    GEN + ["--precision-bits", "0"], GEN + ["--precision-bits", "4097"], GEN + ["--precision-bits", "abc"],
    GEN + ["--max-height", "-1"], GEN + ["--max-height", "x"],
    GEN + ["--max-multiplier-bits", "-1"], GEN + ["--max-multiplier-bits", "65537"],
    GEN + ["--steps", "three"], GEN + ["--p", "64"], GEN + ["--bogus"], GEN + ["extra"],
    ["verify", "t.json", "--precision", "0"], ["verify", "t.json", "--precision", "5000"],
    ["verify", "t.json", "--bruteforce-xmax", "x"], ["verify", "t.json", "extra"],
    ["verify", "t.json", "--bogus", "--precision", "0"], ["verify", "--out"],
    ["exponent", "t.json", "--precision", "-3"], ["exponent", "t.json", "--json", "--bogus"],
    ["bruteforce", "t.json", "--xmax", "3", "--precision", "9999"], ["bruteforce", "t.json", "--xmax"],
]

# argvs the parser takes, with the command's handler replaced
ACCEPTED = [
    GEN, GEN + ["--n", "4", "--k", "2", "--seed", "7", "--precision-bits", "80", "--max-height", "0",
                "--max-multiplier-bits", "65536"],
    ["gen", "--fam", "grassmann", "--phi", "log3x", "--steps=5", "--out", "t.json", "--max-m", "0"],
    ["verify", "t.json"], ["verify", "t.json", "--precision", "96", "--bruteforce-xmax", "3", "--out", "a.json"],
    ["exponent", "t.json", "--json"], ["bruteforce", "t.json", "--xmax", "20", "--json"],
]


def refusal(argv, capsys):
    """(exit code as main gives it, stdout, stderr) of the single parser on argv."""
    with pytest.raises(SystemExit) as info:
        oracle_parser().parse_args(argv)
    return (EXIT_USAGE if info.value.code else EXIT_OK, *capsys.readouterr())


def label(argv) -> str:
    return " ".join(argv) or "(none)"


@pytest.mark.parametrize("argv", REFUSED, ids=label)
def test_texts_match_the_single_parser(argv, capsys):
    expected = refusal(argv, capsys)
    assert (main(list(argv)), *capsys.readouterr()) == expected


@pytest.mark.parametrize("argv", ACCEPTED, ids=label)
def test_arguments_match_the_single_parser(argv, monkeypatch):
    seen = []
    help_line, add_arguments, _ = cli.COMMANDS[argv[0]]
    monkeypatch.setitem(cli.COMMANDS, argv[0], (help_line, add_arguments, seen.append))
    monkeypatch.delenv("MAXSING_PRECISION_BITS", raising=False)
    expected = vars(oracle_parser().parse_args(argv))
    flag = "precision_bits" if argv[0] == "gen" else "precision"
    expected[flag] = 64 if expected[flag] is None else expected[flag]
    main(list(argv))
    assert [vars(a) for a in seen] == [expected]


def test_import_loads_no_dataclasses_inspect_or_typing():
    """pytest itself loads all three, so the check runs in a fresh interpreter without site."""
    code = ("import sys; sys.path.insert(0, 'src'); import maxsing, maxsing.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
