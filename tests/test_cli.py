import copy
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from maxsing.cli import EXIT_AUDIT, EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main
from maxsing.exact_geometry import primitive

from kernel_oracles import write_json

ROOT = Path(__file__).resolve().parents[1]
V1_TRACE = Path(__file__).with_name("data") / "grassmann42_pow_seed7_v1.json"
V2_TRACE = Path(__file__).with_name("data") / "grassmann42_pow_seed7_v2.json"


def gen(tmp_path, *extra, name="t.json"):
    out = tmp_path / name
    code = main(["gen", "--out", str(out), *extra])
    return code, out


class TestGen:
    def test_powerlaw_roundtrip(self, tmp_path):
        code, out = gen(tmp_path, "--family", "grassmann", "--n", "4", "--k", "2",
                        "--phi", "pow", "1/2", "--steps", "6", "--seed", "7")
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["entries"]) == 6
        assert main(["verify", str(out)]) == EXIT_OK

    def test_log3x_budget_exit(self, tmp_path):
        code, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x",
                        "--steps", "12", "--seed", "7")
        assert code == EXIT_BUDGET
        doc = json.loads(out.read_text())
        assert doc["partial"] is True
        assert len(doc["entries"]) == 4
        # the partial trace still audits clean
        assert main(["verify", str(out)]) == EXIT_OK

    def test_log3x_stop_says_by_how_much(self, tmp_path, capsys):
        code, out = gen(tmp_path, "--family", "grassmann", "--n", "4", "--k", "2",
                        "--phi", "log3x", "--steps", "8", "--seed", "7", "--max-height", "4")
        assert code == EXIT_BUDGET
        m = re.search(r"the chosen line needs at least (\d+) bits of norm; "
                      r"the cap allows about (\d+)", capsys.readouterr().err)
        assert m, "budget stop does not report the bits needed against the cap"
        needed, allowed = int(m.group(1)), int(m.group(2))
        assert needed > allowed
        # the numbers go to stderr only; the trace note keeps its wording
        assert "bits of norm" not in json.loads(out.read_text())["budget_note"]

    def test_bad_exponent_rejected(self, tmp_path):
        code, _ = gen(tmp_path, "--family", "grassmann", "--n", "3", "--k", "2",
                      "--phi", "pow", "3/2", "--steps", "5")
        assert code == EXIT_USAGE

    def test_bad_family_params_rejected(self, tmp_path):
        code, _ = gen(tmp_path, "--family", "prodforms", "--n", "1", "--k", "2",
                      "--phi", "log3x", "--steps", "5")
        assert code == EXIT_USAGE

    def test_too_few_steps_rejected(self, tmp_path):
        code, _ = gen(tmp_path, "--family", "quadric", "--phi", "log3x", "--steps", "1")
        assert code == EXIT_USAGE

    def test_byte_identical_reruns(self, tmp_path):
        _, a = gen(tmp_path, "--family", "prodforms", "--n", "2", "--k", "3",
                   "--phi", "pow", "1/2", "--steps", "7", "--seed", "11", name="a.json")
        _, b = gen(tmp_path, "--family", "prodforms", "--n", "2", "--k", "3",
                   "--phi", "pow", "1/2", "--steps", "7", "--seed", "11", name="b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_are_still_valid(self, tmp_path):
        for seed in ("0", "1"):
            code, out = gen(tmp_path, "--family", "quadric", "--phi", "pow", "1/2",
                            "--steps", "6", "--seed", seed, name=f"s{seed}.json")
            assert code == EXIT_OK
            assert main(["verify", str(out)]) == EXIT_OK

    def test_first_step_budget_failure_still_audits(self, tmp_path):
        # a zero search height kills the very first line step; the
        # one-point partial trace must still verify cleanly
        code, out = gen(tmp_path, "--family", "grassmann", "--n", "4", "--k", "2",
                        "--phi", "log3x", "--steps", "5", "--max-height", "0")
        assert code == EXIT_BUDGET
        doc = json.loads(out.read_text())
        assert doc["partial"] is True and len(doc["entries"]) == 1
        assert main(["verify", str(out)]) == EXIT_OK

    def test_seeded_quadric_survives_zero_height_briefly(self, tmp_path):
        # witness seeds are always available to the isotropic search, so
        # the split form makes progress even with no enumeration budget
        code, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x",
                        "--steps", "5", "--max-height", "0")
        assert code == EXIT_BUDGET
        doc = json.loads(out.read_text())
        assert doc["partial"] is True and len(doc["entries"]) == 3
        assert main(["verify", str(out)]) == EXIT_OK


@pytest.fixture(scope="module")
def split4_11_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("split4") / "t.json"
    assert main(["gen", "--family", "quadric", "--phi", "pow", "1/2", "--steps", "11", "--seed", "7",
                 "--out", str(out)]) == EXIT_OK
    return json.loads(out.read_text())


class TestVerify:
    def test_tampered_trace_fails(self, tmp_path):
        _, out = gen(tmp_path, "--family", "quadric", "--phi", "pow", "1/2",
                     "--steps", "6", "--seed", "2")
        doc = json.loads(out.read_text())
        doc["entries"][2]["x"], doc["entries"][3]["x"] = doc["entries"][3]["x"], doc["entries"][2]["x"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad)]) == EXIT_AUDIT

    @pytest.mark.parametrize("certificate, message", [
        ({"kind": "none"}, "certificate kind 'none' is not 'quadric'"),
        ({"kind": "quadric", "s_at_x": None}, "certificate s_at_x: None is not an integer"),
    ])
    def test_relabelled_certificates_fail(self, tmp_path, capsys, certificate, message):
        # the family proof runs at every step, whatever a certificate claims
        _, out = gen(tmp_path, "--family", "quadric", "--phi", "pow", "1/2",
                     "--steps", "6", "--seed", "7")
        doc = json.loads(out.read_text())
        for entry in doc["entries"]:
            if entry["step"] is not None:
                entry["step"]["certificate"] = certificate
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--out", str(tmp_path / "audit.json")]) == EXIT_AUDIT
        err = capsys.readouterr().err
        assert "audit FAILED (index 1: (c) " in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("b, condition", [(1, "(b) norm fails to grow"), (5, "(d) telescoping fails")])
    def test_failure_message_prints_no_long_decimal(self, split4_11_doc, tmp_path, capsys, b, condition):
        """A multiplier tampered to fail (b) or (d), with the point it gives, names the condition.

        The messages print bit lengths instead of the 92k-bit norms in decimal.
        """
        doc = copy.deepcopy(split4_11_doc)
        entry = doc["entries"][-2]
        x, z = ([int(a, 0) for a in v] for v in (entry["x"], entry["step"]["z"]))
        entry["step"]["b"] = hex(b)
        doc["entries"][-1]["x"] = [format(a, "#x") for a in primitive([c + b * a for a, c in zip(x, z)])]
        bad, audit = tmp_path / "bad.json", tmp_path / "audit.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--out", str(audit)]) == EXIT_AUDIT
        err = capsys.readouterr().err
        assert f"audit FAILED (index 10: {condition}" in err and "Traceback" not in err
        assert not re.search(r"\d{41}", err + audit.read_text())

    def test_malformed_json_is_usage_error(self, tmp_path):
        p = tmp_path / "garbage.json"
        p.write_text("{not json")
        assert main(["verify", str(p)]) == EXIT_USAGE

    def test_audit_written_to_file(self, tmp_path):
        _, out = gen(tmp_path, "--family", "quadric", "--phi", "pow", "1/2",
                     "--steps", "6")
        audit = tmp_path / "audit.json"
        assert main(["verify", str(out), "--out", str(audit)]) == EXIT_OK
        doc = json.loads(audit.read_text())
        assert doc["all_pass"] is True
        assert "conditions" in doc and "spanning" in doc

    def test_bruteforce_section(self, tmp_path):
        _, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x",
                     "--steps", "12")
        audit = tmp_path / "audit.json"
        assert main(["verify", str(out), "--bruteforce-xmax", "6",
                     "--out", str(audit)]) == EXIT_OK
        doc = json.loads(audit.read_text())
        assert doc["bruteforce"]["all_dominated"] is True
        assert len(doc["bruteforce"]["rows"]) > 0


class TestCertificateTamper:
    """Hand-edited k-linear certificates and witnesses give exit 3 with an (a) or (c) message,
    or exit 1 when the trace cannot be loaded; never a traceback."""

    @pytest.fixture(scope="class")
    def trace_doc(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("tamper") / "g42.json"
        assert main(["gen", "--family", "grassmann", "--n", "4", "--k", "2", "--phi", "pow", "1/2",
                     "--steps", "5", "--seed", "7", "--out", str(out)]) == EXIT_OK
        return json.loads(out.read_text())

    @pytest.mark.parametrize("field, value", [
        ("slot", 99),
        ("slot", -1),
        ("anchor_scale", "0"),
        ("z_scale", "0"),
        ("beta_prime", None),
        ("kind", "quadric"),
    ])
    def test_exit_3_with_message(self, trace_doc, tmp_path, capsys, field, value):
        doc = copy.deepcopy(trace_doc)
        cert = doc["entries"][2]["step"]["certificate"]
        assert cert["beta_prime"] is not None  # β′ ≠ 0 at this step, so a null one is false
        cert[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--out", str(tmp_path / "audit.json")]) == EXIT_AUDIT
        assert "audit FAILED (index 3: (c) " in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("anchor_scale", "1/0"),
        ("z_scale", "1/0"),
        ("z_witness", None),
        ("beta_witness", 5),
        ("beta_point", ["1/2", "0", "0", "0", "0", "1"]),
        ("beta_point", 5),
        ("slot", None),
        ("beta_prime", ["1/0", "0", "0", "0", "0", "1"]),
        ("beta_prime", 5),
    ])
    def test_unparsable_field_is_named(self, trace_doc, tmp_path, capsys, field, value):
        doc = copy.deepcopy(trace_doc)
        step = doc["entries"][2]["step"]
        (step if field == "z_witness" else step["certificate"])[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--out", str(tmp_path / "audit.json")]) == EXIT_AUDIT
        err = capsys.readouterr().err
        assert "audit FAILED (index 3: (c) " in err and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mutate", [
        lambda w: [w[0][:-1], w[1]],   # a slot one coordinate short
        lambda w: [w[0], w[1], w[1]],  # three slots for a 2-linear map
    ], ids=["short-vector", "three-slots"])
    def test_malformed_witness_is_not_a_member(self, trace_doc, tmp_path, capsys, mutate):
        doc = copy.deepcopy(trace_doc)
        entry = doc["entries"][2]
        entry["witness"] = mutate(entry["witness"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--out", str(tmp_path / "audit.json")]) == EXIT_AUDIT
        err = capsys.readouterr().err
        assert "(a) next point is not a certified member" in err
        assert "Traceback" not in err

    def test_unparsable_witness_coordinate_is_named(self, trace_doc, tmp_path, capsys):
        doc = copy.deepcopy(trace_doc)
        doc["entries"][2]["witness"][0][0] = "1/0"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--out", str(tmp_path / "audit.json")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: cannot load trace" in err and "witness" in err
        assert "Traceback" not in err


class TestMalformedTrace:
    """A malformed version 1, 2 or 3 trace is rejected on load: exit 1, a message naming
    the entry and the field, never a traceback or a wrong reading.  Versions 1 and 2
    are the committed fixtures, version 3 a gen."""

    @pytest.fixture(scope="class")
    def docs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("malformed") / "g42.json"
        assert main(["gen", "--family", "grassmann", "--n", "4", "--k", "2", "--phi", "pow", "1/2",
                     "--steps", "5", "--seed", "7", "--out", str(out)]) == EXIT_OK
        return {1: json.loads(V1_TRACE.read_text()), 2: json.loads(V2_TRACE.read_text()),
                3: json.loads(out.read_text())}

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["entries"][2]["x"].__setitem__(0, "1/2"), "entries[2].x"),
        (lambda d: d["entries"][2].__setitem__("x", ["0"] * 6), "entries[2].x"),
        (lambda d: d["entries"][2]["x"].pop(), "entries[2].x"),
        (lambda d: d.__setitem__("entries", "abc"), "entries"),
        (lambda d: d["entries"][2]["step"]["z_witness"].pop(), "entries[2].step.z_witness"),
        (lambda d: d["entries"][2].__setitem__("witness", ["".join(v) for v in d["entries"][2]["witness"]]),
         "entries[2].witness"),
        (lambda d: d.__setitem__("partial", "no"), "partial"),
    ], ids=["half-coordinate", "zero-point", "short-vector", "entries-not-a-list", "short-witness",
            "string-slot", "partial-not-a-bool"])
    def test_rejected_on_load(self, docs, tmp_path, capsys, version, mutate, field):
        doc = copy.deepcopy(docs[version])
        assert doc["version"] == version
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--out", str(tmp_path / "audit.json")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: cannot load trace {bad}: {field}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_index_must_be_the_position(self, docs, tmp_path, capsys, version):
        """The writer writes each entry's 1-based position, and the reader accepts nothing else."""
        doc = copy.deepcopy(docs[version])
        assert [int(e["index"]) for e in doc["entries"]] == list(range(1, len(doc["entries"]) + 1))
        doc["entries"][1]["index"] = 9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--out", str(tmp_path / "audit.json")]) == EXIT_USAGE
        assert [line for line in capsys.readouterr().err.splitlines() if "error:" in line] == [
            f"error: cannot load trace {bad}: entries[1].index: 9 is not the entry's position 2"]


_GEN = ["gen", "--phi", "pow", "1/2", "--steps", "3", "--out", "{out}"]
_QUADRIC_FILE = [*_GEN, "--family", "quadric", "--quadric-file", "{file}"]
_KLINEAR_FILE = [*_GEN, "--family", "klinear", "--klinear-file", "{file}"]


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def _five_dimensional(doc: dict) -> None:
    """Claim ambient dimension 5 and give every x and z a zero fifth coordinate."""
    doc["ambient_dim"] = 5
    for e in doc["entries"]:
        e["x"].append("0x0")
        if e["step"] is not None:
            e["step"]["z"].append("0x0")


class TestNoTraceback:
    """Bad input of any kind exits 1 with one ``error:`` line on stderr, never a traceback."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        """Three small traces, keyed by family: grassmann(4,2), split4 and a k-linear map file."""
        from maxsing.multilinear import map_to_doc, prodforms_map

        d = tmp_path_factory.mktemp("notraceback")
        write_json(map_to_doc(prodforms_map(2, 3)), d / "map.json")
        runs = {
            "grassmann": ["--family", "grassmann", "--n", "4", "--k", "2", "--steps", "5"],
            "split4": ["--family", "quadric", "--steps", "5"],
            "klinear": ["--family", "klinear", "--klinear-file", str(d / "map.json"), "--steps", "4",
                        "--max-height", "3"],
        }
        for name, argv in runs.items():
            assert main(["gen", *argv, "--phi", "pow", "1/2", "--out", str(d / f"{name}.json")]) == EXIT_OK
        return d

    @pytest.mark.parametrize("argv, file_doc", [
        (["verify", "{trace}", "--bruteforce-xmax", "0"], None),
        (["verify", "{trace}", "--bruteforce-xmax", "-5"], None),
        (["verify", "{trace}", "--out", "{missing}"], None),
        (["gen", "--family", "quadric", "--phi", "pow", "1/2", "--steps", "3", "--out", "{missing}"], None),
        (["gen", "--family", "quadric", "--phi", "pow", "2/0", "--steps", "3", "--out", "{out}"], None),
        (_QUADRIC_FILE, lambda form, trace: _without(form, "gram")),
        (_QUADRIC_FILE, lambda form, trace: {**form, "witness": _without(form["witness"], "v1")}),
        (_QUADRIC_FILE, lambda form, trace: {**form, "gram": 5}),
        (_KLINEAR_FILE, lambda form, trace: trace),
        (_KLINEAR_FILE, lambda form, trace: [1, 2]),
    ], ids=["bruteforce-xmax-0", "bruteforce-xmax-negative", "verify-out-missing-dir", "gen-out-missing-dir",
            "phi-zero-denominator", "quadric-file-no-gram", "quadric-file-no-v1", "quadric-file-gram-int",
            "klinear-file-is-a-trace", "klinear-file-is-a-list"])
    def test_exit_1_with_one_line(self, traces, tmp_path, capsys, argv, file_doc):
        from maxsing.quadric import form_to_doc, split4

        if file_doc is not None:
            trace = json.loads((traces / "klinear.json").read_text())
            (tmp_path / "input.json").write_text(json.dumps(file_doc(form_to_doc(*split4()), trace)))
        paths = {"{trace}": traces / "split4.json", "{missing}": tmp_path / "missing" / "out.json",
                 "{out}": tmp_path / "t.json", "{file}": tmp_path / "input.json"}
        assert main([str(paths.get(a, a)) for a in argv]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err, err

    @pytest.mark.parametrize("dim", ["x", 5, 3, None, 4.5, True, [4]])
    def test_quadric_dim_must_match_the_gram_matrix(self, traces, tmp_path, capsys, dim):
        doc = json.loads((traces / "split4.json").read_text())
        doc["family"]["dim"] = dim
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--out", str(tmp_path / "audit.json")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot load trace {bad}: family: dim: ")

    @pytest.mark.parametrize("argv", [
        ["verify", "{bad}", "--out", "{audit}"],
        ["exponent", "{bad}"],
        ["bruteforce", "{bad}", "--xmax", "3"],
    ], ids=["verify", "exponent", "bruteforce"])
    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.__setitem__("family", {"kind": "nonsense"}), "family: unknown kind 'nonsense'"),
        (lambda d: d["family"].__setitem__("gram", 5), "family: gram: "),
        (_five_dimensional, "ambient dimension does not match the family"),
    ], ids=["unknown-kind", "gram-int", "ambient-dim-5"])
    def test_bad_header_exits_1_for_every_command(self, traces, tmp_path, capsys, argv, mutate, message):
        """Every command builds the family from the header before it reads an entry."""
        doc = json.loads((traces / "split4.json").read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        paths = {"{bad}": str(bad), "{audit}": str(tmp_path / "audit.json")}
        assert main([paths.get(a, a) for a in argv]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"error: cannot load trace {bad}: {message}"), err

    @pytest.mark.parametrize("name", ["split4", "grassmann"])
    def test_verify_parses_the_header_once(self, traces, tmp_path, monkeypatch, name):
        from maxsing import families
        from maxsing.builder import ApproxFn

        calls = []

        def counted(label, fn):
            def wrapper(d):
                calls.append(label)
                return fn(d)
            return wrapper

        # wherever a module holds adapter_from_descriptor, it calls the counted one
        adapter_from_descriptor = families.adapter_from_descriptor
        for module in [m for n, m in sys.modules.items() if n.startswith("maxsing")]:
            if getattr(module, "adapter_from_descriptor", None) is adapter_from_descriptor:
                monkeypatch.setattr(module, "adapter_from_descriptor", counted("family", adapter_from_descriptor))
        monkeypatch.setattr(ApproxFn, "from_descriptor", staticmethod(counted("phi", ApproxFn.from_descriptor)))
        assert main(["verify", str(traces / f"{name}.json"), "--out", str(tmp_path / "audit.json")]) == EXIT_OK
        assert sorted(calls) == ["family", "phi"]

    @pytest.mark.parametrize("dim", [4, "4", "missing"])
    def test_quadric_dim_matching_or_missing_is_accepted(self, traces, tmp_path, dim):
        doc = json.loads((traces / "split4.json").read_text())
        if dim == "missing":
            del doc["family"]["dim"]
        else:
            doc["family"]["dim"] = dim
        good = tmp_path / "good.json"
        good.write_text(json.dumps(doc))
        assert main(["verify", str(good), "--out", str(tmp_path / "audit.json")]) == EXIT_OK

    @pytest.mark.parametrize("bits", [1.5, True, "x", "1/2", None, [64]])
    def test_precision_bits_must_be_an_integer(self, traces, tmp_path, capsys, bits):
        doc = json.loads((traces / "split4.json").read_text())
        doc["phi"]["precision_bits"] = bits
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--out", str(tmp_path / "audit.json")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and ": phi: precision_bits: " in err, err

    @pytest.mark.parametrize("bits", [64, "64", "0x40"])
    def test_precision_bits_as_any_integer_is_accepted(self, traces, tmp_path, bits):
        doc = json.loads((traces / "split4.json").read_text())
        doc["phi"]["precision_bits"] = bits
        good = tmp_path / "good.json"
        good.write_text(json.dumps(doc))
        assert main(["verify", str(good), "--out", str(tmp_path / "audit.json")]) == EXIT_OK

    @pytest.mark.parametrize("family", ["grassmann", "split4", "klinear"])
    def test_family_field_sweep(self, traces, tmp_path, capsys, family):
        """Every field under ``family``, at every depth, set to each of ten values: exit 0, 1 or 3."""
        doc = json.loads((traces / f"{family}.json").read_text())

        def paths(node, prefix=()):
            items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
            for key, child in items:
                yield prefix + (key,)
                yield from paths(child, prefix + (key,))

        bad, cases = [], 0
        for path in paths(doc["family"]):
            for value in (None, True, 1.5, -1, 0, "x", [], [1], {}, "1/0"):
                mutated = copy.deepcopy(doc)
                node = mutated["family"]
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                trace = tmp_path / "t.json"
                trace.write_text(json.dumps(mutated))
                cases += 1
                try:
                    code = main(["verify", str(trace), "--out", str(tmp_path / "audit.json")])
                except Exception as exc:  # what the command line shows as a traceback
                    bad.append((path, value, repr(exc)))
                    continue
                err = capsys.readouterr().err
                one_line = len(err.splitlines()) == 1 and err.startswith("error: ")
                if code not in (EXIT_OK, EXIT_USAGE, EXIT_AUDIT) or (code == EXIT_USAGE and not one_line):
                    bad.append((path, value, code, err))
        assert cases >= 30
        assert not bad, f"{len(bad)} of {cases} cases: {bad[:5]}"


class TestExponent:
    def test_table_and_json(self, tmp_path, capsys):
        _, out = gen(tmp_path, "--family", "quadric", "--phi", "pow", "1/2",
                     "--steps", "8")
        assert main(["exponent", str(out)]) == EXIT_OK
        table = capsys.readouterr().out
        assert "lambda_lb" in table
        assert main(["exponent", str(out), "--json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert all({"index", "X", "D_hi", "lambda_lb"} <= set(r) for r in rows)
        assert [r["X_dec"] for r in rows] == [line.split()[1] for line in table.splitlines()[-len(rows):]]

    def test_short_trace_rejected(self, tmp_path):
        _, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x", "--steps", "2")
        assert main(["exponent", str(out)]) == EXIT_USAGE


class TestBruteforce:
    def test_table(self, tmp_path, capsys):
        _, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x", "--steps", "12")
        assert main(["bruteforce", str(out), "--xmax", "4", "--json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert rows[-1]["X"] == 4

    def test_short_trace_rejected(self, tmp_path):
        _, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x", "--steps", "2")
        assert main(["bruteforce", str(out), "--xmax", "3"]) == EXIT_USAGE


class TestPrecisionFlags:
    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_gen_rejects_non_positive(self, tmp_path, capsys, value):
        code, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x",
                        "--steps", "4", "--precision-bits", value)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--precision-bits" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["verify"], ["exponent"], ["bruteforce", "--xmax", "3"]])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_audit_commands_reject_non_positive(self, tmp_path, capsys, command, value):
        _, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x", "--steps", "4")
        capsys.readouterr()
        code = main([command[0], str(out), *command[1:], "--precision", value])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--precision" in err and "Traceback" not in err

    def test_explicit_precision_is_kept(self, tmp_path):
        _, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x",
                     "--steps", "4", "--precision-bits", "16")
        assert json.loads(out.read_text())["phi"]["precision_bits"] == 16


class TestBudgetFlags:
    """--max-multiplier-bits takes 0..65536 and --max-height 0 or more; anything else exits 1 naming the flag."""

    @pytest.mark.parametrize("phi", [["log3x"], ["pow", "1/2"]])
    @pytest.mark.parametrize("flag, value, span", [
        ("--max-multiplier-bits", "-1", "from 0 to 65536"),
        ("--max-multiplier-bits", "65537", "from 0 to 65536"),
        ("--max-multiplier-bits", str(10 ** 11), "from 0 to 65536"),
        ("--max-multiplier-bits", "x", "from 0 to 65536"),
        ("--max-height", "-1", "of at least 0"),
    ])
    def test_out_of_range_exits_1(self, tmp_path, capsys, phi, flag, value, span):
        t0 = time.perf_counter()
        code, out = gen(tmp_path, "--family", "quadric", "--phi", *phi, "--steps", "5", flag, value)
        assert code == EXIT_USAGE and time.perf_counter() - t0 < 1 and not out.exists()
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"maxsing gen: error: argument {flag}: expected an integer {span}, got {value!r}"]
        assert "Traceback" not in err

    def test_cap_bounds_the_doubling_phase_only(self, tmp_path, capsys):
        """As the help says: at 0 bits the scan and the window above the hint still run.

        A 6-point split4 pow 1/2 run then takes multipliers of 1, 3, 10, 33
        and 117 bits, all found before the doubling phase.
        """
        assert main(["gen", "--help"]) == EXIT_OK
        help_text = " ".join(capsys.readouterr().out.split())
        assert ("--max-multiplier-bits MAX_MULTIPLIER_BITS cap 2^bits on the doubling phase of the "
                "multiplier search and on the range of a log3x forced-stop proof; the scan and the 64 "
                "values above the hint are probed whatever the cap, so a multiplier may exceed it") in help_text
        code, out = gen(tmp_path, "--family", "quadric", "--phi", "pow", "1/2", "--steps", "6", "--seed", "7",
                        "--max-multiplier-bits", "0")
        assert code == EXIT_OK
        steps = [e["step"] for e in json.loads(out.read_text())["entries"][:-1]]
        assert [int(s["b"], 16).bit_length() for s in steps] == [1, 3, 10, 33, 117]

    @pytest.mark.parametrize("phi", [["log3x"], ["pow", "1/2"]])
    def test_zero_multiplier_bits_is_accepted(self, tmp_path, phi):
        code, _ = gen(tmp_path, "--family", "quadric", "--phi", *phi, "--steps", "4", "--max-multiplier-bits", "0")
        assert code in (EXIT_OK, EXIT_BUDGET)


class TestPrecisionEnvironment:
    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_gen_rejects_bad_value(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("MAXSING_PRECISION_BITS", value)
        code, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x", "--steps", "3")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "MAXSING_PRECISION_BITS" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["verify"], ["exponent"], ["bruteforce", "--xmax", "3"]])
    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_audit_commands_reject_bad_value(self, tmp_path, capsys, monkeypatch, command, value):
        _, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x", "--steps", "4")
        capsys.readouterr()
        monkeypatch.setenv("MAXSING_PRECISION_BITS", value)
        assert main([command[0], str(out), *command[1:]]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "MAXSING_PRECISION_BITS" in err and "Traceback" not in err

    @pytest.mark.parametrize("value, expected", [("3", 3), ("80", 80), ("", 64)])
    def test_good_value_is_recorded_as_given(self, tmp_path, monkeypatch, value, expected):
        monkeypatch.setenv("MAXSING_PRECISION_BITS", value)
        code, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x", "--steps", "3")
        assert code == EXIT_OK
        assert json.loads(out.read_text())["phi"]["precision_bits"] == expected
        assert main(["verify", str(out), "--out", str(tmp_path / "a.json")]) == EXIT_OK

    def test_flag_overrides_the_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MAXSING_PRECISION_BITS", "abc")
        code, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x", "--steps", "3",
                        "--precision-bits", "16")
        assert code == EXIT_OK
        assert json.loads(out.read_text())["phi"]["precision_bits"] == 16


class TestSizeCaps:
    """A descriptor, a map file or a flag asking for unbounded work exits 1 at once, naming the field."""

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["family"].update(n=30, k=15), "n = 30 exceeds the cap"),
        (lambda d: d["family"].update(n=10, k=9), "k = 9 exceeds the cap"),
        # the caps on the map's sizes come before the z_witness shape check
        (lambda d: d["family"].update(n=16, k=8), "grassmann(16, 8): D = 12870 exceeds the cap"),
        (lambda d: d["family"].update(n=10, k=8), "grassmann(10, 8): basis_images = 1814400 exceeds the cap"),
        (lambda d: d["family"].update(kind="prodforms", n=6, k=6), "prodforms(6, 6): D = 462 exceeds the cap"),
        (lambda d: d["phi"].update(precision_bits=10 ** 6), "precision_bits 1000000 is outside 0..4096"),
        (lambda d: d["phi"].update(precision_bits=-5), "precision_bits -5 is outside 0..4096"),
    ])
    def test_trace_field(self, tmp_path, capsys, mutate, field):
        _, out = gen(tmp_path, "--family", "grassmann", "--n", "4", "--k", "2", "--phi", "pow", "1/2",
                     "--steps", "3", "--max-height", "4")
        doc = json.loads(out.read_text())
        mutate(doc)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        t0 = time.perf_counter()
        assert main(["verify", str(out)]) == EXIT_USAGE
        assert time.perf_counter() - t0 < 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("doc, field", [
        ({"k": 9, "n": 2, "D": 3, "basis_images": []}, "k = 9 exceeds the cap"),
        ({"k": 2, "n": 10 ** 9, "D": 3, "basis_images": []}, "n = 1000000000 exceeds the cap"),
        ({"k": 2, "n": 2, "D": 10 ** 6, "basis_images": []}, "D = 1000000 exceeds the cap"),
        ({"k": 2, "n": 2, "D": 3, "basis_images": [{"index": [0, 0], "image": ["1", "0", "0"]}] * 5000},
         "basis_images = 5000 exceeds the cap"),
    ])
    def test_map_file_field(self, tmp_path, capsys, doc, field):
        mp = tmp_path / "map.json"
        mp.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code, out = gen(tmp_path, "--family", "klinear", "--klinear-file", str(mp), "--phi", "pow", "1/2",
                        "--steps", "3")
        assert code == EXIT_USAGE and time.perf_counter() - t0 < 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("family, field", [
        (("grassmann", "--n", "30", "--k", "15"), "n = 30 exceeds the cap"),
        (("grassmann", "--n", "10", "--k", "8"), "basis_images = 1814400 exceeds the cap"),
        (("prodforms", "--n", "6", "--k", "6"), "D = 462 exceeds the cap"),
    ])
    def test_gen_family_size(self, tmp_path, capsys, family, field):
        t0 = time.perf_counter()
        code, out = gen(tmp_path, "--family", *family, "--phi", "pow", "1/2", "--steps", "3")
        assert code == EXIT_USAGE and time.perf_counter() - t0 < 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "{trace}", "--precision", "1000000"], "--precision"),
        (["exponent", "{trace}", "--precision", "1000000"], "--precision"),
        (["gen", "--family", "quadric", "--phi", "log3x", "--steps", "3", "--precision-bits", "1000000",
          "--out", "{trace}"], "--precision-bits"),
    ])
    def test_precision_flag(self, tmp_path, capsys, argv, flag):
        _, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x", "--steps", "3")
        capsys.readouterr()
        t0 = time.perf_counter()
        assert main([str(out) if a == "{trace}" else a for a in argv]) == EXIT_USAGE
        assert time.perf_counter() - t0 < 1
        err = capsys.readouterr().err
        assert f"argument {flag}: expected an integer from 1 to 4096, got '1000000'" in err
        assert "Traceback" not in err

    def test_precision_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MAXSING_PRECISION_BITS", "1000000")
        code, out = gen(tmp_path, "--family", "quadric", "--phi", "log3x", "--steps", "3")
        assert code == EXIT_USAGE and not out.exists()
        assert "MAXSING_PRECISION_BITS: expected an integer from 1 to 4096" in capsys.readouterr().err


class TestUserMap:
    def test_klinear_file_roundtrip(self, tmp_path):
        from maxsing.multilinear import map_to_doc, prodforms_map

        mp = tmp_path / "map.json"
        write_json(map_to_doc(prodforms_map(2, 2)), mp)
        out = tmp_path / "t.json"
        code = main(["gen", "--family", "klinear", "--klinear-file", str(mp),
                     "--phi", "pow", "1/2", "--steps", "6", "--out", str(out)])
        assert code == EXIT_OK
        assert main(["verify", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["family"]["kind"] == "klinear"
        assert doc["family"]["D"] == 3

    def test_klinear_requires_file(self, tmp_path):
        code, _ = gen(tmp_path, "--family", "klinear", "--phi", "log3x", "--steps", "4")
        assert code == EXIT_USAGE

    def test_quadric_file(self, tmp_path):
        from maxsing.quadric import form_to_doc, split4

        qf = tmp_path / "form.json"
        write_json(form_to_doc(*split4()), qf)
        code, out = gen(tmp_path, "--family", "quadric", "--quadric-file", str(qf),
                        "--phi", "pow", "1/2", "--steps", "5")
        assert code == EXIT_OK
        assert main(["verify", str(out)]) == EXIT_OK


def split_form_doc(dim: int) -> dict:
    """The split form x0*x1 + x2*x3 + ... on Q^dim, with the witness e0, e1, e2, e3."""
    gram = [["1/2" if i != j and i // 2 == j // 2 else "0" for j in range(dim)] for i in range(dim)]
    e = [[str(int(j == i)) for j in range(dim)] for i in range(4)]
    return {"dim": dim, "gram": gram, "witness": dict(zip(("u1", "v1", "u2", "v2"), e))}


class TestIsotropicCostGuard:
    """The isotropic search is priced before any coefficient shell is built."""

    def test_large_form_refused_at_the_default_height(self, tmp_path):
        qf = tmp_path / "split8.json"
        write_json(split_form_doc(8), qf)
        out = tmp_path / "t.json"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "maxsing.cli", "gen", "--family", "quadric", "--quadric-file", str(qf),
             "--phi", "pow", "1/2", "--steps", "4", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert time.perf_counter() - start < 2
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
            "error: max height 6 refused for a form of dimension 8: the isotropic search's "
            "(2*height+1)^(dim-1) = 62748517 exceeds the cost guard 1000000"]
        assert not out.exists()

    def test_large_form_runs_at_height_one(self, tmp_path):
        qf = tmp_path / "split8.json"
        write_json(split_form_doc(8), qf)
        code, out = gen(tmp_path, "--family", "quadric", "--quadric-file", str(qf),
                        "--phi", "pow", "1/2", "--steps", "4", "--seed", "1", "--max-height", "1")
        assert code == EXIT_OK
        assert len(json.loads(out.read_text())["entries"]) == 4
        assert main(["verify", str(out)]) == EXIT_OK


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        out = tmp_path / "t.json"
        proc = subprocess.run(
            [sys.executable, "-m", "maxsing.cli", "gen", "--family", "quadric",
             "--phi", "pow", "1/2", "--steps", "5", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert out.exists()

    def test_usage_error(self):
        assert main(["gen", "--family", "quadric"]) == EXIT_USAGE


# gen and verify in a fresh interpreter that turns Python's default int <-> decimal
# guard back on after the import, which turns it off for version 1 and 2 traces
_UNDER_THE_GUARD = """
import sys
sys.path.insert(0, "src")
import maxsing
from maxsing.cli import main

sys.set_int_max_str_digits(4300)
out = sys.argv[1]
for name, family in (("g52", ["grassmann", "--n", "5", "--k", "2", "--max-height", "4"]), ("split4", ["quadric"])):
    trace = f"{out}/{name}.json"
    assert main(["gen", "--family", *family, "--phi", "pow", "1/2", "--steps", "12", "--seed", "7",
                 "--out", trace]) == 0, name
    assert main(["verify", trace, "--out", f"{out}/{name}.audit.json"]) == 0, name
"""


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int <-> str guard")
def test_version_3_runs_under_the_decimal_guard(tmp_path):
    """12-point grassmann(5,2) at --max-height 4 and split4, pow 1/2, seed 7: gen and verify exit 0.

    Their numbers exceed 4,300 decimal digits, so one decimal conversion of
    a point, a witness or a certificate number raises ValueError.
    """
    proc = subprocess.run([sys.executable, "-c", _UNDER_THE_GUARD, str(tmp_path)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
