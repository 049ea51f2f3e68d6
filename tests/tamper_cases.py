"""One-place tampers of 6-point seed-7 traces: split4 and two k-linear families.

Shared by the audit pins in test_trace_identity.py and the geometry
properties in test_verifier.py.

``tamper_cases`` takes the split4 traces under ``pow 1/2`` and ``log3x``
and changes one stored value per case:

- each coordinate of every stored x and z by +1 and -1;
- every multiplier b by +1, -1 and +2;
- each certificate's s_at_x flipped between 1 and 2.

The log3x run stops at 4 points, so the two traces give 108 + 68 = 176
cases.

``ruling_tampers`` takes the same two traces and replaces each step's z
= e ⊗ k (x = u ⊗ v, k the factor the step keeps) by the point with the
same e on x's other ruling, by a point of rank two, and by a point of
the quadric on neither ruling through x: 3 * (5 + 3) = 24 cases.

``leaf_tampers`` takes the ``pow 1/2`` traces of grassmann(4,2) and
prodforms(2,3) at ``--max-height 4`` and sets one string leaf under
``entries`` (coordinates, witnesses, multipliers and every certificate
field) to each of ``LEAF_VALUES``, the leaf with a digit appended among
them.
"""

import copy
import json
import math

from maxsing.cli import EXIT_BUDGET, EXIT_OK, main

PHIS = (("pow", "1/2"), ("log3x",))
KLINEAR_FAMILIES = (("grassmann", "4", "2"), ("prodforms", "2", "3"))
LEAF_VALUES = ("1/2", "0", "-1", "append 7", "x", None, 3)


def split4_seed7_doc(tmp_dir, phi: tuple[str, ...]) -> dict:
    """The trace document of `gen` on split4 at seed 7, 6 steps, 64-bit precision."""
    out = tmp_dir / f"split4_{phi[0]}.json"
    code = main(["gen", "--family", "quadric", "--phi", *phi, "--steps", "6", "--seed", "7",
                 "--precision-bits", "64", "--out", str(out)])
    assert code in (EXIT_OK, EXIT_BUDGET)
    return json.loads(out.read_text())


def klinear_seed7_doc(tmp_dir, family: tuple[str, str, str]) -> dict:
    """The trace document of `gen` on a k-linear family at seed 7, pow 1/2, 6 steps, height 4."""
    kind, n, k = family
    out = tmp_dir / f"{kind}{n}{k}.json"
    code = main(["gen", "--family", kind, "--n", n, "--k", k, "--phi", "pow", "1/2", "--steps", "6",
                 "--max-height", "4", "--seed", "7", "--precision-bits", "64", "--out", str(out)])
    assert code == EXIT_OK
    return json.loads(out.read_text())


def _string_leaves(node, path=()):
    """(path, value) for every string under node, in document order."""
    if isinstance(node, str):
        yield path, node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _string_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _string_leaves(value, path + (i,))


def leaf_tampers(doc: dict):
    """(label, tampered copy of doc) for every string leaf under entries and every LEAF_VALUES value."""
    for path, old in _string_leaves(doc["entries"], ("entries",)):
        label = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        for value in LEAF_VALUES:
            new = copy.deepcopy(doc)
            parent = new
            for p in path[:-1]:
                parent = parent[p]
            parent[path[-1]] = old + "7" if value == "append 7" else value
            yield f"{label}={value!r}", new


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


def _segre(u, v):
    return (u[0] * v[0], u[1] * v[1], u[0] * v[1], -u[1] * v[0])


def _factors(x):
    """Primitive (u, v) with _segre(u, v) == x, for a primitive point x of the split quadric."""
    row = (x[0], x[2]) if x[0] or x[2] else (-x[3], x[1])
    col = (x[0], -x[3]) if x[0] or x[3] else (x[2], x[1])
    v = tuple(a // math.gcd(*row) for a in row)
    u = tuple(a // math.gcd(*col) for a in col)
    return next((s * u[0], s * u[1]) for s in (1, -1) if _segre((s * u[0], s * u[1]), v) == tuple(x)), v


def _canonical(p):
    return p if next(a for a in p if a) > 0 else tuple(-a for a in p)


def ruling_tampers(doc: dict):
    """(label, tampered copy of doc) for every step of a split4 trace and every tamper of the module docstring."""
    for i, entry in enumerate(doc["entries"]):
        if entry["step"] is None:
            continue
        x = tuple(int(a, 0) for a in entry["x"])
        z = tuple(int(a, 0) for a in entry["step"]["z"])
        u, v = _factors(x)
        zu, zv = _factors(z)
        # z = e ⊗ v keeps v; the same e on the other ruling is u ⊗ e, and the reverse
        other = _segre(u, zu) if zv in (v, tuple(-a for a in v)) else _segre(zv, v)
        rank_two = (z[0] + 1, *z[1:]) if (z[0] + 1) * z[1] + z[2] * z[3] else (z[0], z[1] + 1, *z[2:])
        neither = _segre((u[1], -u[0]), (v[1], -v[0]))
        for tag, new_z in (("other ruling", other), ("rank two", rank_two), ("neither ruling", neither)):
            new = copy.deepcopy(doc)
            new["entries"][i]["step"]["z"] = [format(a, "#x") for a in _canonical(new_z)]
            yield f"entries[{i}].z {tag}", new
