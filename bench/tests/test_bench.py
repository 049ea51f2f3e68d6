"""Tests of the benchmark's own logic: span arithmetic, checks and metric names.

Run from the root of the checkout:  python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import load_program, run_iteration  # noqa: E402

maxsing = load_program(ROOT)


def span(name, parent, start, end, ok=True):
    return [name, parent, float(start), float(end), ok]


class TestSpanArithmetic:
    # cli.main [0, 10] holds next_point [1, 4], which holds primitive [2, 3],
    # and save_trace [5, 9], which holds trace_to_doc [6, 8]
    SPANS = [
        span("cli.main", -1, 0, 10),
        span("builder.next_point", 0, 1, 4),
        span("exact_geometry.primitive", 1, 2, 3),
        span("builder.save_trace", 0, 5, 9),
        span("builder.trace_to_doc", 3, 6, 8),
    ]

    def test_self_time_subtracts_direct_children_only(self):
        stats = tracing.layer_stats(self.SPANS)
        assert stats["cli.main"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
        assert stats["builder.next_point"]["self_s"] == 2.0
        assert stats["exact_geometry.primitive"]["self_s"] == 1.0
        assert stats["builder.save_trace"]["self_s"] == 2.0

    def test_self_times_add_up_to_the_root(self):
        stats = tracing.layer_stats(self.SPANS)
        assert sum(s["self_s"] for s in stats.values()) == pytest.approx(10.0)

    def test_coverage_is_top_level_share_of_the_command(self):
        assert tracing.coverage(self.SPANS, ["gen"]) == {"gen": pytest.approx(0.7)}

    def test_coverage_adds_up_the_calls_of_one_command(self):
        spans = [
            span("cli.main", -1, 0, 10),
            span("verifier.check_conditions", 0, 0, 9),
            span("cli.main", -1, 10, 12),
            span("verifier.check_conditions", 2, 10, 11),
            span("cli.main", -1, 12, 20),
            span("builder.next_point", 4, 12, 16),
        ]
        cov = tracing.coverage(spans, ["verify", "verify", "gen"])
        assert cov == {"verify": pytest.approx(10 / 12), "gen": pytest.approx(0.5)}
        assert tracing.layer_metrics(spans, {}, ["verify", "verify", "gen"])["trace.coverage_min"] == 0.5

    def test_serialization_split_into_doc_and_json(self):
        m = tracing.layer_metrics(self.SPANS, {})
        assert m["builder.save_trace.total_s"] == 4.0
        assert m["builder.save_trace.doc_s"] == 2.0
        assert m["builder.save_trace.json_s"] == 2.0

    def test_multiplier_attempts_count_primitive_under_the_search(self):
        spans = [
            span("builder._select_multiplier", -1, 0, 10, ok=False),
            span("exact_geometry.primitive", 0, 1, 2),
            span("exact_geometry.primitive", 0, 3, 4),
            span("builder._select_multiplier", -1, 11, 20),
            span("exact_geometry.primitive", 3, 12, 13),
            span("exact_geometry.primitive", -1, 21, 22),
        ]
        m = tracing.layer_metrics(spans, {"verifier.bruteforce.points_visited": 7})
        assert m["builder.multiplier.attempts"] == 3
        assert m["builder.multiplier.accept_ratio"] == pytest.approx(1 / 3)
        assert m["verifier.bruteforce.points_visited"] == 7


def test_tracing_records_nested_spans_and_restores_functions():
    eg = maxsing.exact_geometry
    original = eg.primitive
    recorder = tracing.Recorder()
    with tracing.tracing(recorder):
        assert maxsing.primitive is not original
        maxsing.builder.compute_hi([maxsing.primitive((2, 4, 0)), maxsing.primitive((0, 1, 1))], 3)
    assert eg.primitive is original and maxsing.primitive is original
    assert maxsing.builder.primitive is original
    names = [s[0] for s in recorder.spans]
    assert names[:2] == ["exact_geometry.primitive", "exact_geometry.primitive"]
    hi = names.index("builder.compute_hi")
    # everything after compute_hi ran inside it
    assert all(s[1] >= hi for s in recorder.spans[hi + 1:])
    assert "exact_geometry.rank" in [s[0] for s in recorder.spans if s[1] == hi]


@pytest.fixture(scope="module")
def small_gen(tmp_path_factory):
    """A 4-point grassmann(4,2) trace written through the CLI, and its op."""
    work = tmp_path_factory.mktemp("bench")
    trace = str(work / "g.json")
    argv = ("gen", "--family", "grassmann", "--n", "4", "--k", "2", "--phi", "pow", "1/2",
            "--steps", "4", "--seed", "3", "--out", trace)
    op = workloads.Op("gen", "small", argv, 0, 4, trace)
    run_ = run_iteration(maxsing.cli, [op], {"small": {}})
    assert run_["failures"] == []
    return op, run_["facts"]["small"]


def test_reference_match_passes(small_gen):
    op, facts = small_gen
    run_ = run_iteration(maxsing.cli, [op], {"small": facts})
    assert run_["failed"] == 0


def test_tampered_reference_digest_counts_as_failure(small_gen):
    op, facts = small_gen
    tampered = dict(facts, points_sha256="0" * 64)
    run_ = run_iteration(maxsing.cli, [op], {"small": tampered})
    assert run_["failed"] == 1
    assert "points_sha256 differs" in run_["failures"][0]


def test_missing_reference_counts_as_failure(small_gen):
    op, _ = small_gen
    assert run_iteration(maxsing.cli, [op], {})["failed"] == 1


def test_wrong_exit_code_counts_as_failure(small_gen):
    op, facts = small_gen
    bad = workloads.Op(op.kind, op.label, op.argv, 2, op.points, op.trace)
    assert run_iteration(maxsing.cli, [bad], {"small": facts})["failed"] == 1


def test_point_digest_is_independent_of_trace_format(small_gen):
    op, facts = small_gen
    v1 = json.loads(Path(op.trace).read_text())
    # a hex-integer document that keeps only the points, as a leaner format would
    lean = {"version": 2, "entries": [{"x": [hex(int(a)) for a in e["x"]]} for e in v1["entries"]]}
    as_ints = {"entries": [{"x": [int(a) for a in e["x"]]} for e in v1["entries"]]}
    for doc in (v1, lean, as_ints):
        assert checks.points_digest(checks.trace_points(doc)) == facts["points_sha256"]


def test_non_integer_coordinate_is_rejected():
    with pytest.raises(ValueError):
        checks.trace_points({"entries": [{"x": ["1/2", "1"]}]})


def test_rows_digest_reads_values_not_spelling():
    rows = [{"X": 1, "lo": "2/4", "hi": "1", "argmin": ["1", "0"]}]
    same = [{"X": "1", "lo": "1/2", "hi": "1/1", "argmin": ["0x1", "0"]}]
    assert checks.rows_digest(rows) == checks.rows_digest(same)
    assert checks.rows_digest(rows) != checks.rows_digest([dict(rows[0], hi="2")])


def test_benchmark_json_matches_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == run.per_layer_names()
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_every_program_seed_has_references():
    refs = checks.load_references()
    for make_ops in workloads.WORKLOADS.values():
        for seed in range(workloads.PROGRAM_SEEDS):
            for op in make_ops(seed, "w"):
                assert op.label in refs
