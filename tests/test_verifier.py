import copy
import hashlib
import json
import random
import re
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from maxsing.builder import ApproxFn, limit_radius_sq, run, trace_from_doc, trace_to_doc
from maxsing.errors import InputError, SearchExhausted
from maxsing.exact_geometry import dot, ln_hi_fixed, ln_lo_fixed, norm_sq, primitive
from maxsing.families import KLinearAdapter, SearchBudget, grassmann_adapter, prodforms_adapter, quadric_adapter
from maxsing.multilinear import prodforms_map
from maxsing.quadric import split4
from maxsing.verifier import (
    ExponentRow,
    audit_report,
    brute_force_curve,
    check_conditions,
    exponent_report,
    exponent_row,
    trace_geometry,
)

from kernel_oracles import (
    d_xi,
    dist_sq,
    exponent_report_v2,
    exponent_row_v2,
    ln_bounds_two_series,
    radius_sq_v2,
    spanning_check,
    trace_limit,
)
from tamper_cases import PHIS, split4_seed7_doc, tamper_cases


def tamper(trace, mutate):
    doc = copy.deepcopy(trace_to_doc(trace))
    mutate(doc)
    return trace_from_doc(doc)


class TestCheckConditions:
    def test_builder_traces_pass(self, split4_log3x_trace, split4_pow_trace,
                                 grassmann_pow_trace, prodforms_pow_trace):
        for tr in (split4_log3x_trace, split4_pow_trace,
                   grassmann_pow_trace, prodforms_pow_trace):
            report = check_conditions(tr)
            assert report["all_pass"], [r for r in report["conditions"] if r["failures"]]

    def test_swapped_points_break_norm_order(self, split4_pow_trace):
        def swap(doc):
            e = doc["entries"]
            e[2]["x"], e[3]["x"] = e[3]["x"], e[2]["x"]

        report = check_conditions(tamper(split4_pow_trace, swap))
        assert not report["all_pass"]
        failing = {r["index"] for r in report["conditions"] if r["failures"]}
        assert failing

    def test_off_variety_point_breaks_membership(self, split4_pow_trace):
        def corrupt(doc):
            doc["entries"][3]["x"] = ["1", "1", "0", "0"]  # q = 1 there

        report = check_conditions(tamper(split4_pow_trace, corrupt))
        bad = [r for r in report["conditions"] if r["failures"]]
        assert any("(a)" in msg for r in bad for msg in r["failures"])

    def test_membership_is_checked_when_the_certificate_fails(self, split4_pow_trace):
        # z moved off the quadric, and the next point rewritten to primitive(z + b x):
        # the step check passes but (c) does not, so nothing proves q(x_next) = 0
        # and (a) must be evaluated, and fail, ahead of (c)
        def corrupt(doc):
            entry = doc["entries"][2]
            z = entry["step"]["z"]
            z[0] = hex(int(z[0], 0) + 1)
            y = [int(c, 0) + int(entry["step"]["b"], 0) * int(a, 0) for a, c in zip(entry["x"], z)]
            doc["entries"][3]["x"] = [hex(a) for a in primitive(y)]

        failures = check_conditions(tamper(split4_pow_trace, corrupt))["conditions"][3]["failures"]
        assert failures[0] == "(a) next point is not a certified member"
        assert "(c) line generator not on the quadric" in failures
        assert "next point is not primitive(z + b*x)" not in failures

    def test_tampered_distance_detected(self, split4_pow_trace):
        # the distance is derived from the points, so tamper a stored
        # field it rests on: one coordinate of the line generator z
        def corrupt(doc):
            z = doc["entries"][2]["step"]["z"]
            z[0] = hex(int(z[0], 0) + 1)

        report = check_conditions(tamper(split4_pow_trace, corrupt))
        assert not report["all_pass"]

    def test_tampered_multiplier_detected(self, grassmann_pow_trace):
        def corrupt(doc):
            doc["entries"][1]["step"]["b"] = hex(int(doc["entries"][1]["step"]["b"], 0) + 1)

        report = check_conditions(tamper(grassmann_pow_trace, corrupt))
        assert not report["all_pass"]

    def test_step_check_normalizes_the_sign(self, split4_pow_trace):
        # z -> -z and b -> -b give -(z + b x), whose primitive is the same point
        def negate(doc):
            step = doc["entries"][2]["step"]
            step["z"] = [hex(-int(a, 0)) for a in step["z"]]
            step["b"] = hex(-int(step["b"], 0))

        report = check_conditions(tamper(split4_pow_trace, negate))
        assert not any("primitive" in m for r in report["conditions"] for m in r["failures"])

    @pytest.mark.parametrize("same_next", [False, True])
    def test_step_check_with_z_parallel_to_x(self, split4_pow_trace, same_next):
        # z = 2x makes G = 0: the content is taken in full, and z + b x = (2 + b) x
        # is x again, which the check accepts only as the next point
        def parallel(doc):
            entry = doc["entries"][2]
            entry["step"]["z"] = [hex(2 * int(a, 0)) for a in entry["x"]]
            if same_next:
                doc["entries"][3]["x"] = list(entry["x"])

        failures = check_conditions(tamper(split4_pow_trace, parallel))["conditions"][3]["failures"]
        assert ("next point is not primitive(z + b*x)" in failures) != same_next

    def test_degenerate_prefix_takes_the_hyperplane(self, split4_pow_trace):
        # x4 := x2 puts x1..x4 in a hyperplane that x5 leaves: step 4's H is
        # span(x1, x2, x3), not the plane of x2..x4, even though the mod-p
        # rank of every point's residues reaches 4 on the first four rows
        def repeat(doc):
            doc["entries"][3]["x"] = list(doc["entries"][1]["x"])

        trace = tamper(split4_pow_trace, repeat)
        failures = check_conditions(trace)["conditions"][4]["failures"]
        assert "(c) recorded score 1 but recomputed 2" in failures
        # pinned from the audit that ranks each prefix afresh, with no shared residues
        blob = json.dumps(audit_report(trace), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "2988aa93e449869d76a8fcc0d9e45bc3c493f70e5e9f912b52d3a43078b3faed")

    def test_stricter_decay_target_fails_d(self, split4_pow_trace):
        # the points meet X^(-1/2) with the first multiplier found; relabelled
        # X^(-2/3), the decay part of (d) fails while telescoping still holds
        def relabel(doc):
            doc["phi"]["exponent"] = "2/3"

        report = check_conditions(tamper(split4_pow_trace, relabel))
        msgs = [m for r in report["conditions"] for m in r["failures"]]
        assert any(m.startswith("(d) decay target fails") for m in msgs)
        # the power law decides both bounds by one exact comparison, and both fail
        assert any(m.startswith("(eq2)") for m in msgs)
        assert not any("telescoping" in m for m in msgs)

    def test_malformed_trace_rejected(self, split4_pow_trace):
        doc = copy.deepcopy(trace_to_doc(split4_pow_trace))
        doc["family"] = {"kind": "nonsense"}
        with pytest.raises(InputError, match="bad family or decay descriptor: family: unknown kind 'nonsense'"):
            check_conditions(trace_from_doc(doc))

    def test_undersized_multiplier_names_condition_d(self, split4_pow_trace):
        # rewrite the last step consistently with a smaller multiplier:
        # the builder chose the minimal one, so the decay or telescoping
        # part of (d) must now fail, and nothing else should
        from maxsing.exact_geometry import primitive as prim, vec_add, vec_scale

        tr = trace_from_doc(copy.deepcopy(trace_to_doc(split4_pow_trace)))
        entry = tr.entries[-2]
        x, z, b = entry.x, entry.step.z, entry.step.b
        b_small = next(
            bb for bb in range(1, b)
            if norm_sq(prim(vec_add(z, vec_scale(bb, x)))) > norm_sq(x)
        )
        new_last = prim(vec_add(z, vec_scale(b_small, x)))
        doc = trace_to_doc(tr)
        doc["entries"][-2]["step"]["b"] = hex(b_small)
        doc["entries"][-1]["x"] = [hex(a) for a in new_last]
        report = check_conditions(trace_from_doc(doc))
        assert not report["all_pass"]
        msgs = [m for r in report["conditions"] for m in r["failures"]]
        assert any(m.startswith("(d)") for m in msgs)
        # nothing unrelated breaks: only (d) and its decay consequence
        assert all(m.startswith(("(d)", "(eq2)")) for m in msgs)


class TestDXi:
    def test_center_of_ball(self, split4_pow_trace):
        lim = trace_limit(split4_pow_trace)
        lo, hi = d_xi(lim, lim[0])
        assert lo == 0
        assert hi > 0

    def test_rational_limit_exact(self):
        lim = ((1, 2, 3), Fraction(0))
        assert d_xi(lim, (1, 2, 3)) == (0, 0)

    def test_unit_direction_value(self):
        # distance from e1 to [(1,1,1,1)] is sqrt(3)/2, weighted by |e1| = 1
        lim = ((1, 1, 1, 1), Fraction(0))
        lo, hi = d_xi(lim, (1, 0, 0, 0), precision_bits=64)
        ref = Fraction(8660254037844386, 10 ** 16)  # sqrt(3)/2 bracket
        assert lo <= ref + Fraction(1, 10 ** 15)
        assert hi >= ref - Fraction(1, 10 ** 15)
        assert hi - lo <= Fraction(1, 2 ** 64)

    def test_scale_consistency(self):
        lim = ((3, 1, 4, 1), Fraction(1, 10 ** 8))
        a_lo, a_hi = d_xi(lim, (1, 2, 0, -1))
        b_lo, b_hi = d_xi(lim, (3, 6, 0, -3))
        # same true value scaled by 3: intervals must overlap after scaling
        assert max(3 * a_lo, b_lo) <= min(3 * a_hi, b_hi)

    @given(st.tuples(*[st.integers(-20, 20)] * 4).filter(lambda v: any(v)),
           st.integers(min_value=1, max_value=9))
    @settings(max_examples=500, derandomize=True)
    def test_primitive_filter_justification(self, v, lam):
        # D(lam * x) = lam * D(x): non-primitive points never win
        lim = ((7, -2, 5, 1), Fraction(1, 10 ** 10))
        a_lo, a_hi = d_xi(lim, v)
        b_lo, b_hi = d_xi(lim, tuple(lam * c for c in v))
        assert max(lam * a_lo, b_lo) <= min(lam * a_hi, b_hi)
        assert dist_sq(v, lim[0]) == dist_sq(tuple(lam * c for c in v), lim[0])

    def test_refinement_soundness(self, split4_pow_trace):
        lim = trace_limit(split4_pow_trace)
        x = (1, 2, 3, 4)
        coarse_lo, coarse_hi = d_xi(lim, x, precision_bits=16)
        fine_lo, fine_hi = d_xi(lim, x, precision_bits=96)
        assert coarse_lo <= fine_lo and fine_hi <= coarse_hi


class TestBruteForce:
    def test_rational_limit_found_exactly(self):
        lim = ((1, 2, 1), Fraction(0))
        last = brute_force_curve(*lim, 3)[-1]
        assert last["lo"] == 0
        assert last["argmin"] == (1, 2, 1)
        assert d_xi(lim, last["argmin"]) == (0, 0)

    def test_unit_ball_minimum(self):
        # over the four signed unit directions the minimum is sqrt(3)/2
        lim = ((1, 1, 1, 1), Fraction(0))
        last = brute_force_curve(*lim, 1)[-1]
        assert last["lo"] ** 2 <= Fraction(3, 4) <= last["hi"] ** 2
        assert sorted(abs(a) for a in last["argmin"]) == [0, 0, 0, 1]

    def test_constructed_point_never_beaten_upward(self, split4_log3x_trace):
        lim = trace_limit(split4_log3x_trace)
        x2 = split4_log3x_trace.entries[1].x
        n = 1
        while n * n < norm_sq(x2):
            n += 1
        assert brute_force_curve(*lim, n)[-1]["hi"] <= d_xi(lim, x2)[1]

    def test_cost_guard(self):
        lim = ((1,) * 8, Fraction(0))
        with pytest.raises(InputError, match="xmax 100 refused"):
            brute_force_curve(*lim, 100)

    def test_cost_guard_message_names_the_bound(self):
        lim = ((1,) * 8, Fraction(0))
        with pytest.raises(InputError, match=r"\(2\*xmax\+1\)\^8 = 201\^8 = .* cost guard 100000000"):
            brute_force_curve(*lim, 100)

    def test_curve_monotone(self, split4_log3x_trace):
        lim = trace_limit(split4_log3x_trace)
        rows = brute_force_curve(*lim, 8)
        for a, b in zip(rows, rows[1:]):
            assert b["hi"] <= a["hi"]


def _whole_ball_points(dim, x_max):
    """Every primitive sign-canonical point with norm <= x_max, with norm^2, in
    lexicographic order."""
    limit_sq = x_max * x_max

    def rec(prefix, remaining, budget, started):
        if remaining == 0:
            if started:
                yield tuple(prefix), limit_sq - budget
            return
        lo = 0 if not started else -isqrt(budget)
        for c in range(lo, isqrt(budget) + 1):
            prefix.append(c)
            yield from rec(prefix, remaining - 1, budget - c * c, started or c > 0)
            prefix.pop()

    for vec, n2 in rec([], dim, limit_sq, False):
        g = 0
        for a in vec:
            g = gcd(g, a)
        if g == 1:
            yield vec, n2


def whole_ball_curve(limit, x_max, precision_bits=64):
    """The oracle: score every point of the ball, the first attaining hi wins."""
    rep, radius_sq = limit
    r2 = norm_sq(rep)
    scale = 1 << (precision_bits + 8)
    rnum, rden = radius_sq.numerator, radius_sq.denominator
    r_hi_s = isqrt((rnum * scale * scale) // rden) + 1
    best = {}
    for vec, n2 in _whole_ball_points(len(rep), x_max):
        dv = dot(vec, rep)
        d_lo_s = isqrt(((n2 * r2 - dv * dv) * scale * scale) // (n2 * r2))
        n_lo_s = isqrt(n2 * scale * scale)
        lo_s = n_lo_s * max(0, d_lo_s - r_hi_s)
        hi_s = (n_lo_s + 1) * (d_lo_s + 1 + r_hi_s)
        cur = best.setdefault(isqrt(n2 - 1) + 1, [lo_s, hi_s, vec])
        cur[0] = min(cur[0], lo_s)
        if hi_s < cur[1]:
            cur[1], cur[2] = hi_s, vec
    rows = []
    run_lo = run_hi = run_arg = None
    for x in range(1, x_max + 1):
        if x in best:
            lo_s, hi_s, vec = best[x]
            if run_hi is None or hi_s < run_hi:
                run_hi, run_arg = hi_s, vec
            if run_lo is None or lo_s < run_lo:
                run_lo = lo_s
        rows.append({"X": x, "lo": Fraction(run_lo, scale * scale),
                     "hi": Fraction(run_hi, scale * scale), "argmin": run_arg})
    return rows


# the largest x_max per dimension that the oracle finishes in about 0.1 s
ORACLE_XMAX = {3: 16, 4: 8, 5: 5, 6: 4}


@st.composite
def limits_and_scales(draw):
    dim = draw(st.integers(3, 6))
    rep = draw(st.lists(st.integers(-30, 30), min_size=dim, max_size=dim).filter(any))
    radius_sq = draw(st.one_of(
        st.just(Fraction(0)),
        st.integers(1, 40).map(lambda k: Fraction(1, 10 ** k)),
        st.integers(1, 13).map(lambda p: Fraction(p, 7)),
    ))
    precision = draw(st.sampled_from([0, 8, 64]))
    x_max = draw(st.integers(1, ORACLE_XMAX[dim]))
    return (tuple(rep), radius_sq), x_max, precision


def _log3x_limit(family, seed):
    if family == "split4":
        adapter, height = quadric_adapter(*split4()), 6
    elif family == "grassmann42":
        adapter, height = grassmann_adapter(4, 2), 4
    else:
        adapter, height = prodforms_adapter(2, 3), 4
    try:
        trace = run(adapter, ApproxFn("log3x"), 8, seed=seed,
                    budget=SearchBudget(max_height=height))
    except SearchExhausted as exc:
        trace = exc.partial
    return trace_limit(trace)


class TestCylinderMatchesWholeBall:
    @given(limits_and_scales())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_random_limits(self, case):
        lim, x_max, precision = case
        assert brute_force_curve(*lim, x_max, precision) == whole_ball_curve(lim, x_max, precision)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("family", ["split4", "grassmann42", "prodforms23"])
    def test_log3x_limits(self, family, seed):
        lim = _log3x_limit(family, seed)
        x_max = {4: 25, 6: 6}[len(lim[0])]
        assert brute_force_curve(*lim, x_max) == whole_ball_curve(lim, x_max)

    def test_ties_go_to_the_lexicographically_smaller_tuple(self):
        # the three unit vectors score alike on the diagonal, as do
        # (0, 1, 1), (1, 0, 1) and (1, 1, 0); (1, 1, 1) lies on it
        lim = ((1, 1, 1), Fraction(0))
        rows = brute_force_curve(*lim, 2)
        assert [r["argmin"] for r in rows] == [(0, 0, 1), (1, 1, 1)]


class TestExponent:
    def test_certified_lower_bound_semantics(self, split4_log3x_trace):
        rows = exponent_report(split4_log3x_trace)
        lim = trace_limit(split4_log3x_trace)
        for r in rows:
            # the bound it certifies: Dmin(X) <= D(x_index) <= D_hi <= X^(-lambda)
            assert r.d_hi > 0
            x = split4_log3x_trace.entries[r.index - 1].x
            assert d_xi(lim, x)[1] <= r.d_hi + Fraction(1, 2 ** 40)

    def test_exact_reciprocal_gives_exponent_one(self):
        # D = X^-1 at X = 10 pins lambda at 1: test the certified-ratio arithmetic
        (a, w), (c, t) = ln_lo_fixed(10, 1, 64), ln_hi_fixed(10, 1, 64)
        lam = Fraction(a << t, c << w)
        assert Fraction(1) - Fraction(1, 2 ** 50) <= lam <= 1

    @given(st.integers(2, 2 ** 300), st.integers(2, 2 ** 300), st.integers(1, 2 ** 600),
           st.sampled_from([0, 1, 64, 200]))
    @example(2 ** 200, 2 ** 200 + 1, 3, 64)  # D_hi < 1
    @example(2 ** 200, 2 ** 200 + 1, 2 ** 260, 64)  # D_hi > 1
    @example(10, 9, 4, 0)  # D_hi = 1 and X_i from |x_i|
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_one_ended_logarithms_give_the_two_series_lambda(self, n2x, n2n, w, prec):
        # D_hi both below and above 1: w up to 2^600 against norms up to 2^300
        row = exponent_row(2, n2x, n2n, w, prec)
        if row is None:
            return
        ln_x, ln_d = ln_bounds_two_series(row.x_scale, prec), ln_bounds_two_series(row.d_hi, prec)
        if row.d_hi < 1:
            expected = ln_bounds_two_series(1 / row.d_hi, prec)[0] / ln_x[1]
        else:
            expected = -ln_d[1] / ln_x[0]
        assert row.lambda_lb == expected

    def test_short_trace_rejected(self, split4_form):
        from maxsing.builder import ApproxFn, run
        from maxsing.families import quadric_adapter

        form, wit = split4_form
        tr = run(quadric_adapter(form, wit), ApproxFn("log3x"), 2)
        with pytest.raises(InputError, match="exponent estimates need at least 3 points"):
            exponent_report(tr)

    def test_log3x_trend(self, split4_log3x_trace):
        rows = exponent_report(split4_log3x_trace)
        assert [float(r.lambda_lb) for r in rows] == sorted(float(r.lambda_lb) for r in rows)


class TestSpanning:
    def test_pow_traces_span(self, split4_pow_trace, grassmann_pow_trace, prodforms_pow_trace):
        for tr in (split4_pow_trace, grassmann_pow_trace, prodforms_pow_trace):
            n = len(tr.entries)
            for i0 in range(2, n - tr.ambient_dim + 1):
                assert spanning_check(tr, i0)

    def test_short_suffix_cannot_span(self, split4_pow_trace):
        n = len(split4_pow_trace.entries)
        assert not spanning_check(split4_pow_trace, n)

    def test_truncated_trace(self, split4_log3x_trace):
        assert not spanning_check(split4_log3x_trace, 3)

    def test_index_range(self, split4_pow_trace):
        with pytest.raises(InputError, match=r"i0 must lie in \[2, 10\]"):
            spanning_check(split4_pow_trace, 1)
        with pytest.raises(InputError, match=r"i0 must lie in \[2, 10\]"):
            spanning_check(split4_pow_trace, len(split4_pow_trace.entries) + 1)


def assert_geometry_of_stored_points(trace):
    """trace_geometry's values are norm_sq and the Lagrange identity on the stored points,
    and its step verdicts are x_next == primitive(z + b*x); returns the geometry."""
    geo = trace_geometry(trace)
    reps = trace.points()
    assert geo.norms == tuple(norm_sq(r) for r in reps)
    assert geo.wedges == tuple(norm_sq(x) * norm_sq(y) - dot(x, y) ** 2 for x, y in zip(reps, reps[1:]))
    steps = []
    for entry, x_next in zip(trace.entries, trace.points()[1:]):
        s = entry.step
        y = None if s is None else tuple(c + s.b * a for a, c in zip(entry.x, s.z))
        steps.append(y is not None and any(y) and primitive(y) == x_next)
    assert geo.step_ok == tuple(steps)
    return geo


class TestDerivedGeometry:
    """Norms and wedges taken from each step's operands equal those of the stored points."""

    @pytest.mark.parametrize("name", ["split4_pow_trace", "split4_log3x_trace", "grassmann_pow_trace",
                                      "prodforms_pow_trace", "grassmann_log3x_trace"])
    def test_builder_traces(self, request, name):
        assert all(assert_geometry_of_stored_points(request.getfixturevalue(name)).step_ok)

    def test_klinear_map_trace(self):
        trace = run(KLinearAdapter(prodforms_map(2, 3), "klinear"), ApproxFn("pow", Fraction(1, 2)), 5,
                    budget=SearchBudget(max_height=3))
        assert trace.family["kind"] == "klinear"
        assert all(assert_geometry_of_stored_points(trace).step_ok)

    @pytest.fixture(scope="class")
    def tampered(self, tmp_path_factory):
        """The tamper_cases traces that load; four tampers zero the start point and do not."""
        d = tmp_path_factory.mktemp("tampered")
        traces = []
        for phi in PHIS:
            for _, doc in tamper_cases(split4_seed7_doc(d, phi)):
                try:
                    traces.append(trace_from_doc(doc))
                except InputError:
                    pass
        return traces

    def test_tamper_cases(self, tampered):
        assert len(tampered) == 172
        verdicts = [assert_geometry_of_stored_points(t).step_ok for t in tampered]
        assert sum(not all(v) for v in verdicts) > 100

    @given(st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_random_tampers(self, split4_pow_trace, data):
        doc = trace_to_doc(split4_pow_trace)
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(doc["entries"]) - 2))
            field = data.draw(st.sampled_from(["x", "z", "b"]))
            entry = doc["entries"][i]
            vec = entry["x"] if field == "x" else entry["step"]["z"] if field == "z" else None
            d = data.draw(st.integers(-3, 3).filter(bool))
            if vec is None:
                entry["step"]["b"] = hex(int(entry["step"]["b"], 0) + d)
            else:
                j = data.draw(st.integers(0, len(vec) - 1))
                vec[j] = hex(int(vec[j], 0) + d)
        try:
            trace = trace_from_doc(doc)
        except InputError:
            return
        assert_geometry_of_stored_points(trace)


class TestAuditReport:
    @pytest.mark.parametrize("name", ["split4_pow_trace", "split4_log3x_trace", "grassmann_pow_trace",
                                      "prodforms_log3x_trace"])
    def test_spanning_table_is_spanning_check(self, request, name):
        trace = request.getfixturevalue(name)
        table = audit_report(trace)["spanning"]
        assert table == {str(i0): spanning_check(trace, i0) for i0 in range(2, len(trace.entries) + 1)}

    def test_full_report_structure(self, split4_log3x_trace):
        report = audit_report(split4_log3x_trace, bruteforce_xmax=6)
        assert report["all_pass"]
        assert report["partial"]
        assert report["spanning_required_ok"]
        assert report["limit"] is not None
        assert report["exponents"]
        assert report["bruteforce"]["all_dominated"]
        for row in report["bruteforce"]["rows"]:
            if row["dominated"] is not None:
                assert row["dominated"]

    def test_domination_rows_reference_phi(self, split4_log3x_trace):
        report = audit_report(split4_log3x_trace, bruteforce_xmax=5)
        applicable = [r for r in report["bruteforce"]["rows"] if r["phi_hi"] is not None]
        assert applicable
        for row in applicable:
            assert Fraction(row["hi"]) <= Fraction(row["phi_hi"])


@pytest.fixture(scope="module")
def grassmann52_pow_trace():
    return run(grassmann_adapter(5, 2), ApproxFn("pow", Fraction(1, 2)), 8, budget=SearchBudget(max_height=4))


def _dyadic(s: str) -> Fraction:
    m, e = s.split("p")
    return Fraction(int(m, 0)) * Fraction(2) ** int(e)


def _assert_row_brackets(row: ExponentRow, n2x: int, n2n: int, w: int, precision: int):
    """X and D_hi bound |x_i| <= X and D_hi >= sqrt(9 w / (4 n2n)) within relative 2^-(precision+3)."""
    eps = Fraction(1, 2 ** (precision + 3))
    x2, d2 = row.x_scale ** 2, row.d_hi ** 2
    assert x2 >= n2x
    if x2 <= n2n:  # a lower bound of |x_{i+1}|
        assert x2 >= (1 - eps) ** 2 * n2n
    else:  # the upper bound of |x_i|, taken when |x_{i+1}|'s lower bound is below |x_i|
        assert x2 <= (1 + eps) ** 2 * n2x
    t = Fraction(9 * w, 4 * n2n)
    assert t <= d2 <= (1 + eps) ** 2 * t
    # a valid lower bound: lambda ln X <= -ln D_hi, at a finer precision
    lx_lo, lx_hi = ln_bounds_two_series(row.x_scale, 128)
    assert row.lambda_lb * (lx_hi if row.lambda_lb >= 0 else lx_lo) <= -ln_bounds_two_series(row.d_hi, 128)[1]


class TestAuditV3Bounds:
    """Audit version 3's working-precision values against version 2's exact computation."""

    @pytest.mark.parametrize("name", [
        "split4_pow_trace", "grassmann_pow_trace", "grassmann52_pow_trace", "prodforms_pow_trace",
        "split4_log3x_trace", "grassmann_log3x_trace", "prodforms_log3x_trace"])
    @pytest.mark.parametrize("precision", [16, 64])
    def test_benchmark_families(self, request, name, precision):
        trace = request.getfixturevalue(name)
        pts = trace.points()
        rows = exponent_report(trace, precision)
        oracle = exponent_report_v2(trace, precision)
        assert [r.index for r in rows] == [o[0] for o in oracle]
        for row, (_, _, _, lam_v2) in zip(rows, oracle):
            x, y = pts[row.index - 1], pts[row.index]
            _assert_row_brackets(row, norm_sq(x), norm_sq(y), norm_sq(x) * norm_sq(y) - dot(x, y) ** 2,
                                 precision)
            if precision == 64:
                assert abs(row.lambda_lb - lam_v2) <= Fraction(1, 2 ** 50)
        r2 = radius_sq_v2(trace)
        assert limit_radius_sq(trace) == r2
        r2_hi = _dyadic(audit_report(trace, precision)["limit"]["radius_sq_hi"])
        assert r2 <= r2_hi <= (1 + Fraction(1, 2 ** (precision + 3))) * r2

    @given(st.integers(10_000, 100_000), st.integers(0, 2 ** 32), st.sampled_from([16, 64]))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_synthetic_big_norms(self, bits, seed, precision):
        rng = random.Random(seed)
        n2n = rng.getrandbits(bits) | (1 << (bits - 1))
        # equal-size norms reach the branch where X is the upper bound of |x_i|
        n2x = rng.choice([n2n - rng.getrandbits(rng.randint(1, bits // 2)), rng.getrandbits(bits - 10) + 1])
        root = isqrt(n2x * n2n)
        dxy = root - rng.getrandbits(rng.choice([1, bits // 4, bits // 2, bits]))
        dxy = max(dxy, -root)
        w = n2x * n2n - dxy * dxy
        row = exponent_row(5, n2x, n2n, w, precision)
        oracle = exponent_row_v2(5, n2x, n2n, dxy, precision, precision)
        assert (row is None) == (oracle is None)
        if row is not None:
            _assert_row_brackets(row, n2x, n2n, w, precision)
            if precision == 64:
                assert abs(row.lambda_lb - oracle[3]) <= Fraction(1, 2 ** 50)

    def test_shared_geometry_gives_the_same_report(self, split4_pow_trace):
        geo = trace_geometry(split4_pow_trace)
        assert check_conditions(split4_pow_trace, geo) == check_conditions(split4_pow_trace)
        assert exponent_report(split4_pow_trace, 64, geo) == exponent_report(split4_pow_trace, 64)

    def test_report_is_version_3_with_dyadics(self, split4_pow_trace):
        report = audit_report(split4_pow_trace)
        assert report["version"] == 3
        assert set(report["limit"]) == {"radius_sq_hi", "radius_sq_hi_dec"}
        for r in report["exponents"]:
            for field in ("X", "D_hi"):
                assert re.fullmatch(r"0x[0-9a-f]+p[+-]\d+", r[field])
                assert int(r[field].split("p")[0], 0) % 2 == 1
