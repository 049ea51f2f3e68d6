"""One-place tampers of the 6-point split4 seed-7 traces, under ``pow 1/2`` and ``log3x``.

Shared by the audit pin in test_trace_identity.py and the geometry
properties in test_verifier.py.  Each case changes one stored value:

- each coordinate of every stored x and z by +1 and -1;
- every multiplier b by +1, -1 and +2;
- each certificate's s_at_x flipped between 1 and 2.

The log3x run stops at 4 points, so the two traces give 108 + 68 = 176
cases.
"""

import copy
import json

from maxsing.cli import EXIT_BUDGET, EXIT_OK, main

PHIS = (("pow", "1/2"), ("log3x",))


def split4_seed7_doc(tmp_dir, phi: tuple[str, ...]) -> dict:
    """The trace document of `gen` on split4 at seed 7, 6 steps, 64-bit precision."""
    out = tmp_dir / f"split4_{phi[0]}.json"
    code = main(["gen", "--family", "quadric", "--phi", *phi, "--steps", "6", "--seed", "7",
                 "--precision-bits", "64", "--out", str(out)])
    assert code in (EXIT_OK, EXIT_BUDGET)
    return json.loads(out.read_text())


def _shifted(value: str, d: int) -> str:
    return format(int(value, 0) + d, "#x")


def tamper_cases(doc: dict):
    """(label, tampered copy of doc) for every one-place tamper of the module docstring."""
    def edit(mutate):
        new = copy.deepcopy(doc)
        mutate(new)
        return new

    for i, entry in enumerate(doc["entries"]):
        for j in range(len(entry["x"])):
            for d in (1, -1):
                def mutate(t, i=i, j=j, d=d):
                    t["entries"][i]["x"][j] = _shifted(t["entries"][i]["x"][j], d)
                yield f"entries[{i}].x[{j}]{d:+d}", edit(mutate)
        if entry["step"] is None:
            continue
        for j in range(len(entry["step"]["z"])):
            for d in (1, -1):
                def mutate(t, i=i, j=j, d=d):
                    t["entries"][i]["step"]["z"][j] = _shifted(t["entries"][i]["step"]["z"][j], d)
                yield f"entries[{i}].z[{j}]{d:+d}", edit(mutate)
        for d in (1, -1, 2):
            def mutate(t, i=i, d=d):
                t["entries"][i]["step"]["b"] = _shifted(t["entries"][i]["step"]["b"], d)
            yield f"entries[{i}].b{d:+d}", edit(mutate)

        def flip(t, i=i):
            cert = t["entries"][i]["step"]["certificate"]
            cert["s_at_x"] = 3 - cert["s_at_x"]
        yield f"entries[{i}].s_at_x flipped", edit(flip)
