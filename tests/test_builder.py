import hashlib
import itertools
import json
import math
import random
import sys
import time
from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from maxsing import builder, quadric
from maxsing.builder import (
    ApproxFn,
    SequenceTrace,
    compute_hi,
    limit_radius_sq,
    load_trace,
    run,
    save_trace,
    trace_to_doc,
)
from maxsing.cli import EXIT_BUDGET, main
from maxsing.errors import GeometryError, InputError, SearchExhausted
from maxsing.exact_geometry import (
    RANK_PRIME,
    TracePoint,
    centring_shift,
    norm_sq,
    inth_root,
    minors_gcd,
    primitive,
    subspace_span,
    vec_add,
    vec_scale,
    wedge_sq,
)
from maxsing.families import SearchBudget, grassmann_adapter, prodforms_adapter, quadric_adapter
from maxsing.quadric import (
    SPLIT4_ROWS, QuadraticFormQ, form_from_doc, form_to_doc, line_in_quadric_through, s_h_quadric, split4,
)

from kernel_oracles import (
    dist_sq,
    le_phi_sq_log3x_fraction,
    ln_bounds_two_series,
    sqrt_bounds_two_roots,
    write_json,
)


def e(i, n=4):
    return tuple(1 if j == i else 0 for j in range(n))


def as_pair(dsq):
    """A distance as the unreduced (numerator, denominator) pair the multiplier search takes."""
    return None if dsq is None else (dsq.numerator, dsq.denominator)


class TestApproxFn:
    def test_variants_validated(self):
        with pytest.raises(ValueError):
            ApproxFn("pow", Fraction(3, 2))
        with pytest.raises(ValueError):
            ApproxFn("pow", None)
        with pytest.raises(ValueError):
            ApproxFn("log3x", Fraction(1, 2))
        with pytest.raises(ValueError):
            ApproxFn("exp")

    def test_log3x_clamped_to_one(self):
        phi = ApproxFn("log3x")
        assert phi.phi_hi(1) == 1  # log(3)/1 > 1 clamps
        assert phi._log3x_phi(1, 1, False) == (1, 1)

    def test_log3x_values(self):
        phi = ApproxFn("log3x")
        # phi(2) = ln(6)/2 = 0.8958797346140274... (12-digit bracket)
        lo, hi = Fraction(*phi._log3x_phi(2, 1, False)), phi.phi_hi(2)
        assert lo <= Fraction(895879734615, 10 ** 12)
        assert hi >= Fraction(895879734614, 10 ** 12)
        assert hi - lo <= Fraction(1, 2 ** 64)

    def test_pow_exact_square(self):
        phi = ApproxFn("pow", Fraction(1, 2))
        assert phi.phi_hi(4) == Fraction(1, 2)

    def test_pow_cross_multiplied_decision(self):
        phi = ApproxFn("pow", Fraction(1, 2))
        # t <= phi(X)^2 = 1/X at X = 3 decided with no rounding, the same at either end
        for upper in (False, True):
            assert phi.le_phi_sq(1, 3, 9, upper)
            assert not phi.le_phi_sq(10 ** 30 + 3, 3 * 10 ** 30, 9, upper)

    def test_descriptor_roundtrip(self):
        for phi in (ApproxFn("log3x"), ApproxFn("pow", Fraction(2, 5), 80)):
            assert ApproxFn.from_descriptor(phi.descriptor()) == phi

    @given(st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5), Fraction(1, 7)]).flatmap(
               lambda e: st.tuples(st.one_of(st.integers(1, 2 ** 200),  # X, or a q-th power X = r^q
                                             st.integers(1, 2 ** (200 // e.denominator)).map(
                                                 lambda r: r ** e.denominator)), st.just(e))),
           st.sampled_from([0, 1, 64, 96]))
    @example((1, Fraction(1, 2)), 0)
    @example((2 ** 200, Fraction(1, 7)), 96)
    @example((3 ** 12, Fraction(2, 3)), 64)  # X^p a q-th power: phi_hi is exact
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_bounds_bracket(self, x_exponent, prec):
        """phi_hi(X) >= X^(-p/q) within 2^-(prec + 2) under pow, and the two-series upper end under log3x."""
        x, exponent = x_exponent
        p, q = exponent.numerator, exponent.denominator
        hi = ApproxFn("pow", exponent, prec).phi_hi(x)
        assert 0 < hi <= 1
        # hi^q X^p >= 1, and hi - 2^-(prec+2) <= X^(-p/q), that is (hi - 2^-(prec+2))^q X^p <= 1
        assert hi.numerator ** q * x ** p >= hi.denominator ** q
        below = hi - Fraction(1, 1 << (prec + 2))
        assert below <= 0 or below.numerator ** q * x ** p <= below.denominator ** q
        r = inth_root(x ** p, q)
        if r ** q == x ** p:
            assert hi == Fraction(1, r)
        ln_hi = ln_bounds_two_series(3 * x, prec + 2)[1]
        assert ApproxFn("log3x", precision_bits=prec).phi_hi(x) == min(ln_hi / x, Fraction(1))


class TestLog3xDecayTest:
    """The integer log3x decay test decides as the Fraction test did, bit for bit."""

    @given(st.one_of(st.sampled_from([1, 2, 3, 4, 9]), st.integers(1, 60),
                     st.integers(1, 10 ** 6).map(lambda r: r * r), st.integers(2, 2 ** 300)),
           st.sampled_from([0, 1, 64, 4096]),
           st.sampled_from(["lo", "hi", "between", "negative"]),
           st.integers(-3, 3))
    @example(0, 64, "lo", 1)  # X = max(0, 1)
    @example(1, 0, "lo", 0)  # X = 1 at the clamp, phi = 1 (ln 3 > 1)
    @example(2, 0, "hi", 1)  # isqrt(2) = 1: X clamped to 1
    @example(2, 64, "between", 0)
    @example(4, 4096, "lo", 0)  # a perfect square
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_matches_the_fraction_oracle(self, n2, prec, near, nudge):
        x = max(sqrt_bounds_two_roots(n2, prec)[0], Fraction(1))
        ln_lo, ln_hi = ln_bounds_two_series(3 * x, prec + 2)
        phi_lo, phi_hi = min(ln_lo / x, Fraction(1)), min(ln_hi / x, Fraction(1))
        # u/v at or next to phi_lo^2 and phi_hi^2, where the two tests differ
        t = {"lo": phi_lo ** 2, "hi": phi_hi ** 2, "between": (phi_lo ** 2 + phi_hi ** 2) / 2,
             "negative": Fraction(-1)}[near]
        u, v = t.numerator * 2 ** 20 + nudge, t.denominator * 2 ** 20
        phi = ApproxFn("log3x", precision_bits=prec)
        expected = le_phi_sq_log3x_fraction(u, v, n2, prec)
        assert (phi.le_phi_sq(u, v, n2), phi.le_phi_sq(u, v, n2, upper=True)) == expected
        ends = tuple(Fraction(*phi._log3x_phi(x.numerator, x.denominator, up)) for up in (False, True))
        assert ends == (phi_lo, phi_hi)


class TestComputeHi:
    def test_single_point(self):
        h = compute_hi([primitive(e(0))], 4)
        assert h == subspace_span([e(0)], 4)

    def test_full_span_steps_back(self):
        pts = [primitive(e(i)) for i in range(4)]
        h = compute_hi(pts, 4)
        assert h == subspace_span([e(1), e(2), e(3)], 4)

    def test_collinear_points(self):
        pts = [primitive((1, 0, 0, 0)), primitive((2, 0, 0, 0))]
        h = compute_hi(pts, 4)
        assert h.rank == 1

    def test_residues_of_a_degenerate_prefix(self):
        # x1..x4 span a hyperplane, x2..x4 only a plane, and x5 completes the
        # span: with each prefix's residues, H is the hyperplane, as without
        pts = [primitive(v) for v in (e(0), e(1), e(2), (0, 1, 1, 0), e(3))]
        residues = [[a % RANK_PRIME for a in p] for p in pts]
        for i in range(1, len(pts) + 1):
            assert compute_hi(pts[:i], 4, residues[:i]) == compute_hi(pts[:i], 4)
        assert compute_hi(pts[:4], 4, residues[:4]) == subspace_span([e(0), e(1), e(2)], 4)

    def test_residues_must_match_the_points(self):
        # residues of later points would let a mod-p rank reach 4 on a prefix of rank 3
        pts = [primitive(v) for v in (e(0), e(1), e(2), (0, 1, 1, 0), e(3))]
        residues = [[a % RANK_PRIME for a in p] for p in pts]
        with pytest.raises(GeometryError, match="residues do not match"):
            compute_hi(pts[:4], 4, residues)


LINE_STEP_FAMILIES = {
    "split4": lambda: quadric_adapter(*split4()),
    "grassmann(4,2)": lambda: grassmann_adapter(4, 2),
    "grassmann(5,2)": lambda: grassmann_adapter(5, 2),
    "prodforms(2,3)": lambda: prodforms_adapter(2, 3),
}


class TestAdapterLineStep:
    @given(st.sampled_from(sorted(LINE_STEP_FAMILIES)), st.lists(st.integers(1, 20), min_size=3, max_size=3),
           st.integers(0, 3))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_centred_generator_and_next_witness(self, family, multipliers, seed):
        """line_step's z has centring shift 0, and witness_at(b) certifies primitive(z + b x).

        The walk steps from x to primitive(z + b x) with a drawn b and
        witness_at(b) as the witness, so every step starts from a member
        inside its H.  witness_at is None on split4.
        """
        adapter = LINE_STEP_FAMILIES[family]()
        rng = random.Random(seed) if seed else None
        tp = adapter.start()
        points = [tp.point]
        for b_next in multipliers:
            x = tp.point
            h = compute_hi(points, adapter.ambient_dim)
            z_tp, _, witness_at, _ = adapter.line_step(tp, h, SearchBudget(max_height=2), rng)
            z = z_tp.point
            assert centring_shift(x, z) == 0
            for b in range(1, 21):
                y, w = primitive(vec_add(z, vec_scale(b, x))), witness_at(b)
                assert (w is None) == (family == "split4")
                assert adapter.member(TracePoint(y, w))
            tp = TracePoint(primitive(vec_add(z, vec_scale(b_next, x))), witness_at(b_next))
            points.append(tp.point)

    def test_quadric_generator_off_centre(self):
        """Here the raw split4 generator has shift 1, and line_step returns primitive(z + x)."""
        adapter = quadric_adapter(*split4())
        x = (2, -1, -1, -2)
        h = subspace_span([x, e(1), e(2)], 4)
        s = s_h_quadric(adapter.form, h, x)
        raw = line_in_quadric_through(adapter.form, adapter.hyp_witness, x, h, s, height=1)
        assert raw == (0, 1, 0, 2) and centring_shift(x, raw) == 1
        z_tp, cert, witness_at, _ = adapter.line_step(TracePoint(x), h, SearchBudget(max_height=1), None)
        assert z_tp == TracePoint((2, 0, -1, 0)) and cert == {"kind": "quadric", "s_at_x": s}
        assert witness_at(1) is None


class TestRun:
    def test_steps_validated(self, split4_form):
        form, wit = split4_form
        with pytest.raises(InputError, match="a run needs at least 2 points"):
            run(quadric_adapter(form, wit), ApproxFn("log3x"), 1)

    def test_first_step_example(self, split4_form):
        form, wit = split4_form
        tr = run(quadric_adapter(form, wit), ApproxFn("log3x"), 2)
        assert tr.entries[0].x == (1, 0, 0, 0)
        step = tr.entries[0].step
        assert step.z == (0, 0, 1, 0)
        assert step.b == 1
        assert tr.entries[1].x == (1, 0, 1, 0)
        assert norm_sq(tr.entries[1].x) == 2

    def test_norm_growth_and_telescoping(self, split4_pow_trace):
        tr = split4_pow_trace
        pts = tr.points()
        for a, b in zip(pts, pts[1:]):
            assert norm_sq(b) > norm_sq(a)
        dsqs = [dist_sq(a, b) for a, b in zip(pts, pts[1:])]
        for prev, cur in zip(dsqs, dsqs[1:]):
            assert 9 * cur <= prev

    def test_distance_identity(self, split4_pow_trace):
        # dist(x_i, x_{i+1})^2 = |x_i ^ z|^2 / (|x_i|^2 |z + b x_i|^2): the
        # content of z + b x_i cancels, so gen's unreduced distance is exact
        tr = split4_pow_trace
        for entry, nxt in zip(tr.entries[:-1], tr.entries[1:]):
            x, s = entry.x, entry.step
            y = tuple(c + s.b * a for a, c in zip(x, s.z))
            assert Fraction(wedge_sq(x, s.z), norm_sq(x) * norm_sq(y)) == dist_sq(x, nxt.x)

    def test_log3x_budget_exhaustion_is_flagged(self, split4_log3x_trace):
        tr = split4_log3x_trace
        assert tr.partial
        assert len(tr.entries) == 4
        assert "wedge area" in tr.budget_note

    def test_determinism(self, split4_form):
        form, wit = split4_form
        a = run(quadric_adapter(form, wit), ApproxFn("pow", Fraction(1, 2)), 6, seed=3)
        b = run(quadric_adapter(form, wit), ApproxFn("pow", Fraction(1, 2)), 6, seed=3)
        assert trace_to_doc(a) == trace_to_doc(b)

    def test_grassmann_witnesses_recorded(self, grassmann_pow_trace):
        for entry in grassmann_pow_trace.entries:
            assert entry.witness is not None

    @pytest.mark.parametrize("exponent", [Fraction(1, 3), Fraction(2, 3), Fraction(3, 5)])
    def test_other_power_exponents(self, split4_form, exponent):
        from maxsing.verifier import check_conditions

        form, wit = split4_form
        tr = run(quadric_adapter(form, wit), ApproxFn("pow", exponent), 7)
        assert check_conditions(tr)["all_pass"]

    def test_seeded_multilinear_run_audits_clean(self):
        from maxsing.families import grassmann_adapter
        from maxsing.verifier import check_conditions

        tr = run(grassmann_adapter(4, 2), ApproxFn("pow", Fraction(1, 2)), 6,
                 seed=42, budget=SearchBudget(max_height=3))
        assert check_conditions(tr)["all_pass"]


def _log3x_stop(adapter, max_height: int) -> SequenceTrace:
    """The partial trace of a seed-7 log3x run, which stops at 4 points."""
    with pytest.raises(SearchExhausted, match=r"no multiplier up to 2\^4096 satisfies") as info:
        run(adapter, ApproxFn("log3x"), 12, seed=7, budget=SearchBudget(max_height=max_height))
    return info.value.partial


def _decay_passes(x, z, b: int, phi: ApproxFn) -> bool:
    """The log3x decay test for x_next = primitive(z + b x), from its definition.

    (3/2) |x| dist(x_next, x) <= phi_lo(|x_next|) squared and cross-multiplied:
    9 |x ^ z|^2 <= 4 |z + b x|^2 phi_lo(m)^2, m the certified lower bound of
    |x_next| clamped to 1.
    """
    y = tuple(a + b * c for a, c in zip(z, x))
    if not any(y):
        return False
    w2, n2y = wedge_sq(x, z), norm_sq(y)
    if 9 * w2 > 4 * n2y:  # phi <= 1
        return False
    m = max(sqrt_bounds_two_roots(norm_sq(primitive(y)), phi.precision_bits)[0], Fraction(1))
    # phi_lo(m) <= ln(3m)/m < bit_length(3 ceil(m)) ln 2 / m: an exact screen that
    # spares most b the logarithm
    ln_hi = (3 * math.ceil(m)).bit_length() * Fraction(6932, 10000)
    if 9 * w2 * m * m > 4 * n2y * ln_hi * ln_hi:
        return False
    lo = Fraction(*phi._log3x_phi(m.numerator, m.denominator, False))
    return 9 * w2 <= 4 * n2y * lo * lo


_coords = st.integers(-50, 50)


class _CertificateSeen(Exception):
    pass


class TestForcedStop:
    """The log3x covolume certificate decides exactly the stops the search would."""

    @pytest.mark.parametrize("make,height", [
        (lambda: quadric_adapter(*split4()), 6),
        (lambda: grassmann_adapter(4, 2), 4),
        (lambda: prodforms_adapter(2, 3), 4),
    ], ids=["split4", "grassmann42", "prodforms23"])
    def test_partial_trace_matches_search(self, make, height, tmp_path, monkeypatch):
        verdicts = []
        certificate = builder._log3x_stop_forced

        def recorded(*args):
            verdicts.append(certificate(*args))
            return verdicts[-1]

        monkeypatch.setattr(builder, "_log3x_stop_forced", recorded)
        save_trace(_log3x_stop(make(), height), str(tmp_path / "certified.json"))
        assert verdicts == [False, False, True]  # steps 2 and 3 continue, step 4 stops
        monkeypatch.setattr(builder, "_log3x_stop_forced", lambda *args: False)
        save_trace(_log3x_stop(make(), height), str(tmp_path / "searched.json"))
        assert (tmp_path / "certified.json").read_bytes() == (tmp_path / "searched.json").read_bytes()

    def test_huge_cap_stops_at_once(self, tmp_path):
        out = tmp_path / "g.json"
        t0 = time.perf_counter()
        code = main(["gen", "--family", "grassmann", "--n", "4", "--k", "2", "--phi", "log3x",
                     "--steps", "8", "--seed", "7", "--max-height", "4",
                     "--max-multiplier-bits", "65536", "--out", str(out)])
        elapsed = time.perf_counter() - t0
        doc = json.loads(out.read_text())
        assert code == EXIT_BUDGET and len(doc["entries"]) == 4
        assert "no multiplier up to 2^65536" in doc["budget_note"]
        assert elapsed < 5

    @given(st.integers(3, 4).flatmap(lambda n: st.tuples(
               st.lists(_coords, min_size=n, max_size=n),
               st.lists(_coords, min_size=n, max_size=n))),
           st.fractions(min_value=Fraction(1, 10 ** 6), max_value=1),
           st.integers(3, 10),
           st.sampled_from([0, 2, 64]))
    # G = 4 and b = 7 passes: fails if the G^2 factor is dropped
    @example(([1, 0, 0], [1, 4, 0]), Fraction(1), 3, 64)
    # b = b_max (218, 393) passes within the rounding of norm_lo: fails if
    # the (1 + 2^-prec)^2 factor is dropped
    @example(([1, 2, 2], [14, 29, 31]), Fraction(13, 129881), 3, 2)
    @example(([1, 1, 1, 1], [9, 12, 9, 11]), Fraction(27, 205816), 3, 0)
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_certificate_is_sound(self, xz, dsq_prev, bits, prec):
        """Whenever the certificate says forced, no b up to b_max passes the decay test."""
        assume(any(xz[0]) and any(xz[1]))
        x, z = primitive(xz[0]), primitive(xz[1])
        assume(wedge_sq(x, z) != 0)
        phi = ApproxFn("log3x", precision_bits=prec)
        calls = []
        certificate = builder._log3x_stop_forced

        def recorded(*args):
            # the search that would follow is not under test: stop right here
            calls.append((args, certificate(*args)))
            raise _CertificateSeen

        with mock.patch.object(builder, "_log3x_stop_forced", recorded):
            with pytest.raises(_CertificateSeen):
                builder._select_multiplier(x, z, phi, as_pair(dsq_prev), SearchBudget(multiplier_bits=bits))
        [((_, _, _, _, b_max, _), forced)] = calls
        assume(b_max <= 4096)
        if forced:
            assert not any(_decay_passes(x, z, b, phi) for b in range(1, b_max + 1))


class TestForcedStopIntegers:
    """The forced-stop certificate and its message decide in integers as the Fraction forms did."""

    @given(st.integers(1, 2 ** 200), st.integers(1, 2 ** 200), st.integers(1, 2 ** 40),
           st.integers(1, 2 ** 64), st.sampled_from([0, 2, 64, 130]), st.integers(-1, 1))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_certificate_at_its_boundary(self, n2x, n2z, g, b_max, prec, delta):
        norm_hi = builder._ceil_root(n2z, 1, 2) + b_max * builder._ceil_root(n2x, 1, 2)
        ln_hi = ln_bounds_two_series(3 * norm_hi, prec)[1]
        rhs = 4 * g * g * (ln_hi * Fraction((1 << prec) + 1, 1 << prec)) ** 2
        w2 = max(0, math.floor(rhs / 9) + delta)
        assert builder._log3x_stop_forced(n2x, n2z, w2, g, b_max, prec) == (9 * w2 > rhs)

    @given(st.integers(1, 2 ** 200), st.integers(1, 2 ** 200), st.integers(1, 2 ** 400),
           st.integers(1, 2 ** 40), st.integers(1, 64), st.sampled_from([0, 2, 64, 130]))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_stop_bits(self, n2x, n2z, w2, g, cap, prec):
        ln3_hi, ln2_hi = ln_bounds_two_series(3, prec)[1], ln_bounds_two_series(2, prec)[1]
        need = (Fraction(3, 2) * sqrt_bounds_two_roots(w2, prec)[0] / g - ln3_hi) / ln2_hi
        bits, cap_bits = builder._log3x_stop_bits(n2x, n2z, w2, g, cap, prec)
        assert bits == math.floor(need)
        assert cap_bits == (builder._ceil_root(n2z, 1, 2) + (1 << cap) * builder._ceil_root(n2x, 1, 2)).bit_length()


def _minor_gcd(x, z) -> int:
    return math.gcd(*(x[a] * z[c] - x[c] * z[a] for a, c in itertools.combinations(range(len(x)), 2)))


_pow2_edges = st.integers(0, 80).flatmap(lambda k: st.sampled_from([2 ** k - 1, 2 ** k, 2 ** k + 1]))
_factors = st.lists(st.tuples(st.one_of(st.integers(0, 2 ** 70), _pow2_edges), st.integers(1, 3)),
                    min_size=1, max_size=3)


class TestMultiplierKernels:
    """The integer shortcuts of the multiplier search against their definitions."""

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.lists(_coords, min_size=n, max_size=n),
                                                         st.lists(_coords, min_size=n, max_size=n))),
           st.integers(-10 ** 6, 10 ** 6), st.sampled_from([1, 1, 2, 3, 6, 12, 60]))
    @settings(max_examples=400, derandomize=True)
    def test_content_through_g(self, xy, b, d):
        """gcd(G, y_0, ...) is the content primitive() divides out, also when it exceeds 1."""
        x, y0 = xy
        z = tuple(d * c - b * a for a, c in zip(x, y0))  # so y = z + b x = d y0
        y = tuple(c + b * a for a, c in zip(x, z))
        assume(any(y))
        c = math.gcd(_minor_gcd(x, z), *y)
        p = primitive(y)
        assert tuple(a // c for a in y) in (p, tuple(-a for a in p))
        assert norm_sq(p) == norm_sq(y) // (c * c)

    @given(st.integers(1, 400), st.integers(0, 2 ** 32), st.integers(-3, 3), st.sampled_from(["any", "square", "edge"]))
    @example(64, 0, 0, "edge")
    @example(65, 0, -1, "edge")
    @example(65, 0, 1, "square")
    @settings(max_examples=400, derandomize=True)
    def test_hint_floor_matches_the_exact_root(self, n2x_bits, seed, offset, kind):
        """floor((-dzx + sqrt(disc)) / n2x) on both sides of 64 bits of n2x.

        "square" makes disc a perfect square plus offset; "edge" puts
        sqrt(disc) at (b + 1) n2x + dzx plus a small offset, where the top-bit
        quotient and the exact one can differ by one.
        """
        rng = random.Random(seed)
        n2x = rng.getrandbits(n2x_bits) | 1 << (n2x_bits - 1)
        dzx = rng.randrange(-n2x, n2x) * rng.choice([1, 1 << rng.randrange(80)])
        if kind == "any":
            disc = rng.getrandbits(rng.randrange(1, 1200))
        else:
            root = rng.getrandbits(rng.randrange(1, 600))
            if kind == "edge":
                root = (root // n2x + 1) * n2x + dzx
            disc = max(0, root * root + offset) if root >= 0 else rng.getrandbits(64)
        assert builder._hint_floor(dzx, disc, n2x) == (-dzx + math.isqrt(disc)) // n2x

    @given(_factors, _factors)
    @example([(2 ** 64, 1)], [(2 ** 64 - 1, 1)])
    @example([(2 ** 65 - 1, 1)], [(2 ** 64, 1)])
    @example([(2 ** 64, 1)], [(2 ** 65 - 1, 1)])
    @example([(2 ** 32, 2)], [(2 ** 64, 1)])
    @example([(2 ** 32, 2), (3, 1)], [(2 ** 65, 1), (3, 1)])
    @example([(0, 2)], [(0, 1)])
    @example([(5, 1)], [(7, 1), (0, 3)])
    @example([(0, 1), (9, 2)], [(1, 1)])
    @settings(max_examples=400, derandomize=True)
    def test_product_gt_matches_plain_comparison(self, lhs, rhs):
        expect = math.prod(f ** e for f, e in lhs) > math.prod(f ** e for f, e in rhs)
        assert builder._product_gt(lhs, rhs) == expect

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_product_gt_top_bits_match_plain_comparison(self, data):
        """Big products decided from top bits: ties, off-by-one and zero factors included."""
        big = st.builds(lambda seed, bits: random.Random(seed).getrandbits(bits) | 1 << (bits - 1),
                        st.integers(0, 2 ** 32), st.integers(1, 100_000))
        side = st.lists(st.tuples(st.one_of(big, st.integers(0, 2 ** 70)), st.integers(1, 3)),
                        min_size=1, max_size=3)
        lhs = data.draw(side) + [(data.draw(big), 1)]
        total = math.prod(f ** e for f, e in lhs)
        kind = data.draw(st.sampled_from(["random", "tie", "plus one", "minus one", "zero"]))
        if kind == "random":
            rhs = data.draw(side)
        elif kind == "tie":  # the same product, regrouped: expand each power
            rhs = [(f, 1) for f, e in lhs for _ in range(e)]
        elif kind == "zero":
            rhs = data.draw(side) + [(0, data.draw(st.integers(1, 3)))]
            lhs, rhs = (rhs, lhs) if data.draw(st.booleans()) else (lhs, rhs)
        else:
            rhs = [(total + (1 if kind == "plus one" else -1), 1)]
            assume(rhs[0][0] >= 0)
        expect = math.prod(f ** e for f, e in lhs) > math.prod(f ** e for f, e in rhs)
        assert builder._product_gt(lhs, rhs) == expect
        assert builder._product_gt(rhs, lhs) == (math.prod(f ** e for f, e in rhs) > math.prod(f ** e for f, e in lhs))

    @given(st.integers(3, 4).flatmap(lambda n: st.tuples(
               st.lists(_coords, min_size=n, max_size=n),
               st.lists(_coords, min_size=n, max_size=n))),
           st.one_of(st.none(), st.fractions(min_value=Fraction(1, 100), max_value=1)),
           st.sampled_from([ApproxFn("pow", Fraction(1, 2)), ApproxFn("pow", Fraction(2, 5)),
                            ApproxFn("log3x", precision_bits=8)]))
    # accepted b with content 2, 4 and 3
    @example(([1, 0, -2], [1, -2, 2]), Fraction(1, 26), ApproxFn("pow", Fraction(1, 2)))
    @example(([8, 7, 4, 9], [0, 1, 0, -1]), Fraction(1, 33), ApproxFn("pow", Fraction(1, 2)))
    @example(([2, -9, 3], [7, 9, 0]), Fraction(1, 28), ApproxFn("pow", Fraction(1, 2)))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_selected_step_matches_definitions(self, xz, dsq_prev, phi):
        """The returned point, distance and root are those computed from primitive(z + b x)."""
        assume(any(xz[0]) and any(xz[1]))
        x, z = primitive(xz[0]), primitive(xz[1])
        assume(wedge_sq(x, z) != 0)
        try:
            b, x_next, (w2, n2xy) = builder._select_multiplier(
                x, z, phi, as_pair(dsq_prev), SearchBudget(multiplier_bits=12))
        except SearchExhausted:
            return
        y = tuple(c + b * a for a, c in zip(x, z))
        assert x_next == primitive(y)
        assert w2 == wedge_sq(x, z)
        assert n2xy == norm_sq(x) * norm_sq(y)
        dsq = Fraction(w2, n2xy)
        assert dsq == dist_sq(x_next, x)
        norm_lo = sqrt_bounds_two_roots(norm_sq(x_next), phi.precision_bits)[0]
        n2p = norm_sq(x_next)
        assert n2p > norm_sq(x)
        if dsq_prev is not None:
            assert 9 * dsq <= dsq_prev
            t = Fraction(9, 4) * dsq * norm_sq(x)
            if phi.variant == "pow":
                p, q = phi.exponent.numerator, phi.exponent.denominator
                assert t ** q * n2p ** p <= 1
            else:
                m = max(norm_lo, Fraction(1))
                assert t <= Fraction(*phi._log3x_phi(m.numerator, m.denominator, False)) ** 2


def _full_size_hint_root(n2x, dzx, n2z, w2, tel, pq):
    """The multiplier hint computed on full-size values, as before moving coordinates.

    theta = max(n2x + 1, the power-law bound, floor(tel_l / tel_r) + 1),
    then floor((-dzx + sqrt(dzx^2 + n2x (theta - n2z))) / n2x) when
    theta > n2z, else None.  Returns (root, which bound is largest).
    """
    bounds = {"growth": n2x + 1}
    if pq is not None:
        p, q = pq
        bounds["pow"] = builder._ceil_root((9 * w2) ** q, 4 ** q, q - p)
    if tel is not None:
        bounds["tel"] = tel[0] // tel[1] + 1
    theta = max(bounds.values())
    winner = max(bounds, key=bounds.get)
    if theta <= n2z:
        return None, winner
    return (-dzx + math.isqrt(dzx * dzx + n2x * (theta - n2z))) // n2x, winner


def _hint_case(seed: int, kind: str):
    """Moving coordinates (a, e), kept_sq V, dsq_prev and the decay exponent of one hint case.

    Kinds: "below" has theta <= n2z; "growth" has growth as the only
    bound, on small numbers; "small" keeps the full n2x within 64 bits;
    "tel" and "tel_pow" make telescoping the largest bound, without and
    with a power law; "pow" draws exponents 1/2, 2/3 and 2/5.
    """
    rng = random.Random(seed)

    def vec(bits, n=2):
        while True:
            v = tuple(rng.getrandbits(bits) * rng.choice((1, -1)) for _ in range(n))
            if any(v):
                return v

    def kept(bits):
        k = vec(bits)
        return k[0] * k[0] + k[1] * k[1]

    pq = None
    dsq = None
    if kind == "below":
        a = vec(rng.randrange(1, 30))
        e = vec(a[0].bit_length() + a[1].bit_length() + 40)
        v = kept(rng.randrange(1, 200))
    elif kind == "growth":
        a, e, v = vec(rng.randrange(1, 6)), vec(rng.randrange(1, 4)), kept(rng.randrange(1, 3))
    elif kind == "small":
        a, e, v = vec(rng.randrange(1, 12)), vec(rng.randrange(1, 12)), kept(rng.randrange(1, 12))
        pq = rng.choice([None, (1, 2), (2, 3)])
        dsq = tuple(rng.randrange(1, 1 << rng.choice((4, 20, 40))) for _ in range(2))
    else:
        a, e = vec(rng.randrange(1, 400)), vec(rng.randrange(1, 40))
        v = rng.choice([1, kept(rng.randrange(1, 300)), rng.randrange(1, 1 << 500)])
        pq = {"tel": None, "tel_pow": (1, 2), "pow": rng.choice([(1, 2), (2, 3), (2, 5)])}[kind]
        w2 = norm_sq(a) * norm_sq(e) - (a[0] * e[0] + a[1] * e[1]) ** 2
        # telescoping wins when p_den / p_num exceeds about n2x (growth) or 9 V^3 w2 n2x (power law)
        spread = 9 * v ** 3 * (w2 + 1) * norm_sq(a) * 64 if kind != "pow" else 1
        p_num = rng.randrange(1, 1 << 30)
        dsq = (p_num, p_num * spread * rng.randrange(1, 1 << 20) + rng.randrange(1, 1 << 20))
    return a, e, v, dsq, pq


class TestFactoredHint:
    """_hint_root in moving coordinates equals the full-size hint of the same line."""

    @given(st.integers(0, 2 ** 32), st.sampled_from(["below", "growth", "small", "tel", "tel_pow", "pow"]))
    @example(0, "tel")
    @example(1, "tel_pow")
    @example(2, "below")
    @example(3, "small")
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_factored_hint_matches_the_full_size_one(self, seed, kind):
        a, e, v, dsq, pq = _hint_case(seed, kind)
        n2a, d, n2e = norm_sq(a), a[0] * e[0] + a[1] * e[1], norm_sq(e)
        w2 = n2a * n2e - d * d
        assume(w2 > 0)
        tel = None if dsq is None else (9 * w2 * dsq[1], dsq[0] * n2a)
        decay = None if pq is None else ((9 * w2) ** pq[1] * v ** (pq[1] + pq[0]), *pq)
        full_tel = None if dsq is None else (9 * v * v * w2 * dsq[1], dsq[0] * n2a * v)
        expect, winner = _full_size_hint_root(n2a * v, d * v, n2e * v, v * v * w2, full_tel, pq)
        assert builder._hint_root(n2a, d, n2e, w2, v, tel, decay) == expect
        if kind in ("tel", "tel_pow"):
            assert winner == "tel"
        if kind == "below":
            assert expect is None
        if kind == "small":
            assert (n2a * v).bit_length() <= 64
        if v == 1:  # a plain line: the full-size values are the moving ones
            assert builder._hint_root(n2a, d, n2e, w2, 1, full_tel, decay) == expect

    _ints = st.one_of(st.integers(1, 40), st.integers(1, 2 ** 90))

    @given(_ints, st.one_of(st.just(0), _ints), _ints, st.sampled_from([(1, 2), (2, 3), (3, 4), (1, 3), (2, 5)]))
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_pow_term_matches_its_definition(self, n2x, w9, v, pq):
        """floor(n2x theta / v) with theta the power-law bound on the full-size |y ⊗ k|^2."""
        p, q = pq
        theta = builder._ceil_root((w9 * v * v) ** q, 4 ** q, q - p) if w9 else 0
        assert builder._pow_hint_term(w9 ** q * v ** (q + p), w9, n2x, v, p, q) == n2x * theta // v


def _patched_everywhere(name, replacement):
    """mock.patch of maxsing's ``name`` in every module that holds the same function."""
    original = getattr(sys.modules["maxsing.exact_geometry"], name)
    stack = ExitStack()
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("maxsing") and getattr(mod, name, None) is original:
            stack.enter_context(mock.patch.object(mod, name, replacement))
    return stack


def _no_minors_gcd(*args):
    raise AssertionError("minors_gcd called on a split4 step")


SPLIT4_POW_8_SEED7 = "8bf0d84f284e235abbd52b00eef46e49a9f75efd1555fddb84a18b346f686dfb"
SPLIT4_POW_8_SEED7_AUDIT = "1fd8970a81f67fdf5017556aaf2248a8f21567f93976db774f654991d1f71b1e"
SPLIT4_LOG3X_SEED7 = "8d6d73d3c4f21c568edeb521bfd80a0b8d732eabc431e4df6bf0e82fb0496e3b"


class TestSegrePath:
    """Which path runs: split4 steps on their Segre factors, everything else on plain lines."""

    def test_split4_runs_without_minors_gcd(self, tmp_path):
        """The 8-point pow 1/2 gen and verify and the log3x gen give their pinned bytes with minors_gcd raising."""
        trace, audit, log3x = tmp_path / "t.json", tmp_path / "t.audit.json", tmp_path / "l.json"
        with _patched_everywhere("minors_gcd", _no_minors_gcd):
            assert main(["gen", "--family", "quadric", "--phi", "pow", "1/2", "--steps", "8", "--seed", "7",
                         "--precision-bits", "64", "--out", str(trace)]) == 0
            assert main(["verify", str(trace), "--precision", "64", "--out", str(audit)]) == 0
            assert main(["gen", "--family", "quadric", "--phi", "log3x", "--steps", "12", "--seed", "7",
                         "--precision-bits", "64", "--out", str(log3x)]) == EXIT_BUDGET
        for path, digest in ((trace, SPLIT4_POW_8_SEED7), (audit, SPLIT4_POW_8_SEED7_AUDIT),
                             (log3x, SPLIT4_LOG3X_SEED7)):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_other_forms_keep_the_plain_line(self, split4_form, tmp_path):
        """A --quadric-file form whose integer rows are not split4's runs every step on the 4-vectors.

        The test is on the integer rows d*A: split4's Gram matrix read from
        a file, or twice it, has split4's rows and takes the Segre path.
        """
        form, wit = split4_form
        assert quadric_adapter(form, wit).segre
        assert quadric_adapter(*form_from_doc(form_to_doc(form, wit))).segre
        assert QuadraticFormQ(tuple(tuple(2 * a for a in row) for row in form.gram))._int_rows == SPLIT4_ROWS
        # 2 x0 x1 + x2 x3, with split4's witness
        half, one, zero = Fraction(1, 2), Fraction(1), Fraction(0)
        other = QuadraticFormQ(((zero, one, zero, zero), (one, zero, zero, zero),
                                (zero, zero, zero, half), (zero, zero, half, zero)))
        assert not quadric_adapter(other, wit).segre
        path = tmp_path / "form.json"
        write_json(form_to_doc(other, wit), path)
        calls = []
        with _patched_everywhere("minors_gcd", lambda x, z, real=minors_gcd: calls.append(len(x)) or real(x, z)):
            assert main(["gen", "--family", "quadric", "--quadric-file", str(path), "--phi", "pow", "1/2",
                         "--steps", "5", "--seed", "7", "--out", str(tmp_path / "t.json")]) == 0
            assert main(["verify", str(tmp_path / "t.json"), "--out", str(tmp_path / "a.json")]) == 0
        assert calls == [4] * 8  # the content bound of every step, in gen and in verify

    def test_gen_checks_each_point_on_the_quadric_once(self, tmp_path):
        """An 8-point gen calls on_quadric 8 times: the start point's membership, then one s_h_quadric per step.

        line_in_quadric_through takes the score s_h_quadric has just given
        and does not check the point again.
        """
        calls = []
        real = quadric.on_quadric
        with mock.patch.object(quadric, "on_quadric", lambda form, p: calls.append(p) or real(form, p)):
            assert main(["gen", "--family", "quadric", "--phi", "pow", "1/2", "--steps", "8", "--seed", "7",
                         "--precision-bits", "64", "--out", str(tmp_path / "t.json")]) == 0
        assert len(calls) == 8


class TestLimit:
    def test_radius_formula(self, split4_pow_trace):
        tr = split4_pow_trace
        assert limit_radius_sq(tr) == Fraction(9, 4) * dist_sq(tr.entries[-2].x, tr.entries[-1].x)

    def test_short_trace_rejected(self, split4_form):
        form, wit = split4_form
        tr = run(quadric_adapter(form, wit), ApproxFn("log3x"), 2)
        with pytest.raises(InputError, match="limit extraction needs at least 3 points"):
            limit_radius_sq(tr)

    def test_prefix_radii_shrink(self, split4_pow_trace):
        tr = split4_pow_trace
        radii = []
        for n in range(3, len(tr.entries) + 1):
            prefix = SequenceTrace(tr.family, tr.phi, tr.seed,
                                   tr.entries[:n])
            radii.append(limit_radius_sq(prefix))
        for a, b in zip(radii, radii[1:]):
            assert b < a


class TestSerialization:
    def test_roundtrip(self, split4_pow_trace, tmp_path):
        path = tmp_path / "t.json"
        save_trace(split4_pow_trace, str(path))
        again = load_trace(str(path))
        assert trace_to_doc(again) == trace_to_doc(split4_pow_trace)

    def test_witness_roundtrip(self, grassmann_pow_trace, tmp_path):
        path = tmp_path / "g.json"
        save_trace(grassmann_pow_trace, str(path))
        again = load_trace(str(path))
        assert trace_to_doc(again) == trace_to_doc(grassmann_pow_trace)
        assert again.entries[2].witness == grassmann_pow_trace.entries[2].witness

    def test_unencodable_trace_leaves_the_file_alone(self, split4_pow_trace, tmp_path):
        """The document is encoded before the file is opened, so a failure truncates nothing."""
        tr = split4_pow_trace
        first = tr.entries[0]
        bad_step = first.step._replace(certificate={"kind": "quadric", "s_at_x": Fraction(1, 3)})
        bad = SequenceTrace(tr.family, tr.phi, tr.seed, [first._replace(step=bad_step), *tr.entries[1:]])
        path = tmp_path / "t.json"
        save_trace(tr, str(path))
        before = path.read_bytes()
        with pytest.raises(TypeError, match="Fraction"):
            save_trace(bad, str(path))
        assert path.read_bytes() == before
