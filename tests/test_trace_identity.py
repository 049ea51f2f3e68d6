"""Traces stay byte-identical: gen output is pinned by sha256 digests, and so is one audit.

Each case pins two digests.  The file digest is of the trace version 2
bytes; a speed change must keep it, a deliberate format change replaces
it and says so.  The stored-values digest is of what a trace stores (the
header, and per entry x, witness, z, z_witness, b and certificate) in a
canonical form, so it holds across formats: these were taken from the
version 1 traces, before the format changed.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from maxsing.builder import trace_from_doc, trace_to_doc
from maxsing.cli import EXIT_BUDGET, EXIT_OK, main
from maxsing.multilinear import KLinearMap, map_to_doc, prodforms_map
from kernel_oracles import write_json
from tamper_cases import (
    KLINEAR_FAMILIES,
    PHIS,
    klinear_seed7_doc,
    leaf_tampers,
    ruling_tampers,
    split4_seed7_doc,
    tamper_cases,
)

V1_FIXTURE = Path(__file__).with_name("data") / "grassmann42_pow_seed7_v1.json"

KLINEAR_POW = ("--phi", "pow", "1/2", "--steps", "8", "--max-height", "4")
SPLIT4_POW = ("--family", "quadric", "--phi", "pow", "1/2", "--steps", "11")
SPLIT4_LOG3X = ("--family", "quadric", "--phi", "log3x", "--steps", "12")
GRASSMANN42_POW = ("--family", "grassmann", "--n", "4", "--k", "2", *KLINEAR_POW)
GRASSMANN52_POW = ("--family", "grassmann", "--n", "5", "--k", "2", *KLINEAR_POW)
PRODFORMS23_POW = ("--family", "prodforms", "--n", "2", "--k", "3", *KLINEAR_POW)
GRASSMANN42_LOG3X = ("--family", "grassmann", "--n", "4", "--k", "2", "--phi", "log3x", "--steps", "12")
RATIONAL_MAP_POW = ("--family", "klinear", "--klinear-file", "{map}", *KLINEAR_POW)
GRASSMANN42_V1 = ("--family", "grassmann", "--n", "4", "--k", "2", "--phi", "pow", "1/2", "--steps", "5")


def rational_prodforms_map() -> KLinearMap:
    """prodforms(3, 2) with basis image (i, j) scaled by 1/2 (i even) or 2/3 (i odd).

    The scales differ between (i, j) and (j, i), so the map is not
    symmetric, and its images have denominators 2 and 3.
    """
    base = prodforms_map(3, 2)
    images = {idx: tuple(a * Fraction(1 + idx[0] % 2, 2 + idx[0] % 2) for a in img)
              for idx, img in base.basis_images.items()}
    return KLinearMap(k=2, n=3, target_dim=base.target_dim, basis_images=images)


def stored_values_digest(doc: dict) -> str:
    """sha256 of a trace document's stored values, the same for version 1 and 2."""
    def ints(v):
        return [format(int(a, 0), "x") for a in v]

    def step(s):
        return None if s is None else {"z": ints(s["z"]), "z_witness": s["z_witness"],
                                       "b": format(int(s["b"], 0), "x"), "certificate": s["certificate"]}

    canon = {
        "header": {k: doc[k] for k in ("family", "phi", "ambient_dim", "seed", "partial", "budget_note")},
        "entries": [{"index": e["index"], "x": ints(e["x"]), "witness": e["witness"], "step": step(e["step"])}
                    for e in doc["entries"]],
    }
    return hashlib.sha256(json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def audit_values_digest(doc: dict) -> str:
    """sha256 of the audit values that audit versions 2 and 3 state alike.

    These are the verdicts, the condition records, spanning, brute force,
    ``partial``, each exponent row's index and every 12-digit ``*_dec``
    string, the limit's included, taken in key order.  Version 3 writes X,
    D_hi and the limit radius as working-precision bounds, so their exact
    strings and lambda_lb change; they are left out.
    """
    def decs(d):
        return [d[k] for k in sorted(d) if k.endswith("_dec")]

    canon = {k: doc[k] for k in ("all_pass", "conditions", "spanning", "spanning_required_ok", "bruteforce", "partial")}
    canon["limit"] = doc["limit"] and decs(doc["limit"])
    canon["exponents"] = [[r["index"], *decs(r)] for r in doc["exponents"]]
    return hashlib.sha256(json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def gen(tmp_path, args, seed) -> tuple[int, Path]:
    if args is RATIONAL_MAP_POW:
        map_path = tmp_path / "map.json"
        write_json(map_to_doc(rational_prodforms_map()), map_path)
        args = tuple(str(map_path) if a == "{map}" else a for a in args)
    out = tmp_path / "t.json"
    code = main(["gen", *args, "--seed", str(seed), "--precision-bits", "64", "--out", str(out)])
    return code, out


@pytest.mark.parametrize("args, seed, exit_code, digest, stored", [
    (SPLIT4_POW, 0, EXIT_OK, "f0c54eaa5900c33029c361769bb483e4d252cae922e84f997dd1d4db3dca5021",
     "e79bd3a378bc80ab4bf3d4c7d652d182f2d41ca49bbacb53ce20e31af8f9bddc"),
    (SPLIT4_POW, 7, EXIT_OK, "3d8b2a08a241e277241b2e0c31c4f39263c5f72d38819547c99d36fda1c7e2c1",
     "f260982c56516e5ddd2311877022b0e0c588bc8b52938c03cf5c0dc02c3a6979"),
    (SPLIT4_LOG3X, 7, EXIT_BUDGET, "ca92318656fab4b7a6d699df2148721247f5e994f80a8d6d3e27435de48a53c8",
     "c1c98a6d7e450f723d80c663bf7694ad219d05e1f901d5f6e271682d8720bc2e"),
    (GRASSMANN42_POW, 7, EXIT_OK, "abf9c335a2dcc5e32c3bf74d80fa0f7cd2f997a74ae65b3f403c6bafc6913f4e",
     "41d4968b23342e50c45e57eb32edd532631d998e25ad1e113658cf3a0f9b84af"),
    (GRASSMANN52_POW, 7, EXIT_OK, "9846d62ca3a554031f0b5bc19e3a48566dadf124fe7dee4ca35ddf819ff1aa0e",
     "f962e89bc0e3da5cfd80412226bfe89d4539ecbf404e6c60023bb99ad50ad3b5"),
    (PRODFORMS23_POW, 7, EXIT_OK, "6d639a57b9c20fc724fde2c7c02742f0f0ed4e2ac0538f120dc34b3c36351c73",
     "dab77217be8557a9d6aadc40c66bab06720ec60a0198dc7cf88ec605ee7d354d"),
    (GRASSMANN42_LOG3X, 7, EXIT_BUDGET, "bd51e0f810751b6a7e80423d92e070bd985844bb361f155d21799ae8f3c8225b",
     "b6f3b7f6f6b764b8c67f70c421be8de488c7797e8c7f2f5cf4bb2bfb8cfc5a31"),
    (RATIONAL_MAP_POW, 7, EXIT_OK, "8a1859eaa1d3c6fefaec032c7f9228a49c655c924744cc05c0f7daa36e6a6655",
     "8e9db1f2eaac252ac83512ec338d943c79614cb9473118a391a60a26f333c590"),
], ids=["split4-pow-seed0", "split4-pow-seed7", "split4-log3x-seed7", "grassmann42-pow-seed7",
        "grassmann52-pow-seed7", "prodforms23-pow-seed7", "grassmann42-log3x-seed7",
        "rational-map-pow-seed7"])
def test_trace_digest(tmp_path, args, seed, exit_code, digest, stored):
    code, out = gen(tmp_path, args, seed)
    assert code == exit_code
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert stored_values_digest(json.loads(data)) == stored


# the audits of the split4-pow-seed7 trace, of the partial split4-log3x-seed7
# trace, whose exponent rows and decay tests take the logarithms, of the
# grassmann52-pow-seed7 trace, whose subspaces come from k-linear steps, and
# of the prodforms23-pow-seed7 trace, whose map has repeated-index images; CI
# checks that the oldest supported Python writes the same bytes
SPLIT4_POW_SEED7_AUDIT = "aaab40ee2771cf428ac87ac3c491277264a26dfa2294813af625eb0d022d2b68"
SPLIT4_LOG3X_SEED7_AUDIT = "6853cd2d0142cb0ee10f138b8833c3592a4ed6d4585264f64f87fb8c6bbe700b"
GRASSMANN52_POW_SEED7_AUDIT = "db04394144bc294fbfd33c04996046d99495ea2e42e80b9999f0559405cb60b5"
PRODFORMS23_POW_SEED7_AUDIT = "8ae1eb44e6ba5ce767a8f66b6758011008af43bead17b54e916c91b98ea34c02"


def audit_digest(tmp_path, args, exit_code, *flags) -> str:
    """sha256 of the 64-bit audit of the seed-7 trace that gen writes for args, verify given flags."""
    code, out = gen(tmp_path, args, 7)
    assert code == exit_code
    audit = tmp_path / "audit.json"
    assert main(["verify", str(out), "--precision", "64", *flags, "--out", str(audit)]) == EXIT_OK
    return hashlib.sha256(audit.read_bytes()).hexdigest()


def test_audit_digest(tmp_path):
    assert audit_digest(tmp_path, SPLIT4_POW, EXIT_OK) == SPLIT4_POW_SEED7_AUDIT


def test_log3x_audit_digest(tmp_path):
    assert audit_digest(tmp_path, SPLIT4_LOG3X, EXIT_BUDGET) == SPLIT4_LOG3X_SEED7_AUDIT


def test_klinear_audit_digest(tmp_path):
    assert audit_digest(tmp_path, GRASSMANN52_POW, EXIT_OK) == GRASSMANN52_POW_SEED7_AUDIT


def test_prodforms_audit_digest(tmp_path):
    assert audit_digest(tmp_path, PRODFORMS23_POW, EXIT_OK) == PRODFORMS23_POW_SEED7_AUDIT


# `exponent --json` on the split4-pow-seed7 trace, which reads the audit's
# geometry pass; CI checks it on the oldest supported Python too
SPLIT4_POW_SEED7_EXPONENT_JSON = "aa063f16e61b7443bbb616cbdb2440ba012e4e73500eb98a58ec323fbc6d8d91"


def test_exponent_json_digest(tmp_path, capsys):
    code, out = gen(tmp_path, SPLIT4_POW, 7)
    assert code == EXIT_OK
    capsys.readouterr()
    assert main(["exponent", str(out), "--precision", "64", "--json"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SPLIT4_POW_SEED7_EXPONENT_JSON


# the brute-force rows of the partial split4-log3x-seed7 trace, as
# ``bruteforce --json`` prints them and as ``verify --bruteforce-xmax`` writes
# them into the audit; CI checks these on the oldest supported Python too
SPLIT4_LOG3X_SEED7_BRUTEFORCE_JSON = "98d3d27fcec62d5701d49a7197fe44c4e65252b1f59360a7c51e893cb50b9c88"
SPLIT4_LOG3X_SEED7_BRUTEFORCE_AUDIT = "436984ca283251fef7830cd86ba4973c9aa1c90c1de084de246b545b2c24d40f"


def test_bruteforce_digests(tmp_path, capsys):
    code, out = gen(tmp_path, SPLIT4_LOG3X, 7)
    assert code == EXIT_BUDGET
    capsys.readouterr()
    assert main(["bruteforce", str(out), "--xmax", "20", "--precision", "64", "--json"]) == EXIT_OK
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed).hexdigest() == SPLIT4_LOG3X_SEED7_BRUTEFORCE_JSON
    audit = tmp_path / "audit.json"
    argv = ["verify", str(out), "--precision", "64", "--bruteforce-xmax", "20", "--out", str(audit)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(audit.read_bytes()).hexdigest() == SPLIT4_LOG3X_SEED7_BRUTEFORCE_AUDIT


# the brute-force audits of the split4-pow-seed7 and prodforms23-pow-seed7
# traces, 19 of whose rows each state the power law's phi_hi; CI checks these
# on the oldest supported Python too
SPLIT4_POW_SEED7_BRUTEFORCE_AUDIT = "b6be69cbd785066af8fed71141df465e609ac386203ca3275c20e97aabb7eba2"
PRODFORMS23_POW_SEED7_BRUTEFORCE_AUDIT = "b68f21a7466195e60e39d6f01401f4caaa232215223c8e9fcbec15f4ab5dd8f4"


@pytest.mark.parametrize("args, digest", [
    (SPLIT4_POW, SPLIT4_POW_SEED7_BRUTEFORCE_AUDIT),
    (PRODFORMS23_POW, PRODFORMS23_POW_SEED7_BRUTEFORCE_AUDIT),
], ids=["split4-pow-seed7", "prodforms23-pow-seed7"])
def test_pow_bruteforce_audit_digest(tmp_path, args, digest):
    assert audit_digest(tmp_path, args, EXIT_OK, "--bruteforce-xmax", "20") == digest


class TestVersion1Fixture:
    """A version 1 trace, written before the format changed, still reads and audits the same.

    The fixture is GRASSMANN42_V1 at seed 7 and 64 precision bits.  The
    audit file digest is of the audit version 3 rendering; the
    audit-values digest was taken from the version 2 audit, before
    version 3 changed it, so the report still states the same verdicts
    and decimals.
    """

    def test_verify_audit_is_unchanged(self, tmp_path):
        audit = tmp_path / "audit.json"
        assert main(["verify", str(V1_FIXTURE), "--precision", "64", "--out", str(audit)]) == EXIT_OK
        assert hashlib.sha256(audit.read_bytes()).hexdigest() == (
            "d72c2a1a2205f0499962f7958f89fe931d9e1c9652db963aa0691298bcf32f83")
        assert audit_values_digest(json.loads(audit.read_text())) == (
            "a805659727570d3b371cb3d24a2ac94108ca233419d8b2589f16d3e5ec5f38c4")

    def test_reads_as_a_version_2_rerun(self, tmp_path):
        v1 = json.loads(V1_FIXTURE.read_text())
        assert v1["version"] == 1
        code, out = gen(tmp_path, GRASSMANN42_V1, 7)
        assert code == EXIT_OK
        v2 = json.loads(out.read_text())
        assert v2["version"] == 2
        assert stored_values_digest(v1) == stored_values_digest(v2)
        assert trace_to_doc(trace_from_doc(v1)) == trace_to_doc(trace_from_doc(v2))


# every one-place tamper of the 6-point split4 seed-7 traces (tamper_cases.py):
# the exit code, stdout, stderr and audit of `verify` on each, paths removed
SPLIT4_SEED7_TAMPERED_AUDITS = "4ca5173e2b8f41fd881d124d42b3c6fbfb29e8418f8accb1b5ad24787d9afbfb"


def verify_outcomes_digest(tmp_path, capsys, cases) -> tuple[int, str]:
    """(number of cases, sha256 over the verify outcome of every (tag, label, document) case)."""
    records = []
    trace, audit = tmp_path / "bad.json", tmp_path / "audit.json"
    for tag, label, bad in cases:
        trace.write_text(json.dumps(bad))
        audit.unlink(missing_ok=True)
        capsys.readouterr()
        code = main(["verify", str(trace), "--precision", "64", "--out", str(audit)])
        out, err = capsys.readouterr()
        text = audit.read_text() if audit.exists() else None
        records.append([tag, label, code, *(s and s.replace(str(tmp_path), "<tmp>") for s in (out, err, text))])
    return len(records), hashlib.sha256(json.dumps(records).encode()).hexdigest()


def test_tampered_audits_digest(tmp_path, capsys):
    cases = ((phi[0], label, bad) for phi in PHIS for label, bad in tamper_cases(split4_seed7_doc(tmp_path, phi)))
    assert verify_outcomes_digest(tmp_path, capsys, cases) == (176, SPLIT4_SEED7_TAMPERED_AUDITS)


# z moved off its ruling in the 6-point split4 seed-7 traces (tamper_cases.ruling_tampers):
# the verify outcomes of the plain-line audit, which the Segre path falls back to
SPLIT4_SEED7_RULING_TAMPERS = "d9e7124a9c34828d7c3d3b5ade849a4ff8e01ee2ef39033b32a90cff7db3aa2f"


def test_ruling_tampered_audits_digest(tmp_path, capsys):
    cases = ((phi[0], label, bad) for phi in PHIS for label, bad in ruling_tampers(split4_seed7_doc(tmp_path, phi)))
    assert verify_outcomes_digest(tmp_path, capsys, cases) == (24, SPLIT4_SEED7_RULING_TAMPERS)


# every string-leaf tamper of the 6-point grassmann(4,2) and prodforms(2,3)
# pow 1/2 seed-7 traces (tamper_cases.leaf_tampers), pinned as above
KLINEAR_SEED7_TAMPERED_AUDITS = "10ac129f1f195e36c76be423e7de3a377b907009b95e8e029683314229e8f1dd"


def test_klinear_tampered_audits_digest(tmp_path, capsys):
    cases = ((family[0], label, bad) for family in KLINEAR_FAMILIES
             for label, bad in leaf_tampers(klinear_seed7_doc(tmp_path, family)))
    assert verify_outcomes_digest(tmp_path, capsys, cases) == (3318, KLINEAR_SEED7_TAMPERED_AUDITS)
