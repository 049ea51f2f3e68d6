import itertools
import random
import re
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from maxsing.errors import GeometryError, InputError, SearchExhausted, reading
from maxsing.exact_geometry import TracePoint, primitive, subspace_span
from maxsing.multilinear import (
    KLinearMap,
    candidate_vectors,
    grassmann_map,
    integer_image,
    line_step,
    line_witness,
    load_map,
    outside_candidates,
    prodforms_map,
    map_to_doc,
    replace_slot,
    shared_count,
    witness_from_doc,
    witnessed_point,
    _contract,
    _integer_slots,
    _scale_of,
    _sparse,
)

from kernel_oracles import (
    box_scan_candidates, evaluate, fraction_evaluate, outside_candidates_loop, wedge_k, write_json,
)
from sampling_oracle import companion_vector
from test_trace_identity import rational_prodforms_map


def e(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


class TestMaps:
    def test_grassmann_target_dim(self):
        assert grassmann_map(4, 2).target_dim == 6

    def test_prodforms_target_dim(self):
        assert prodforms_map(2, 3).target_dim == 4

    def test_grassmann_spanning(self):
        # basis wedges hit the whole standard basis
        grassmann_map(3, 2)

    def test_invalid_parameters(self):
        with pytest.raises(InputError, match=r"grassmann map needs .*; got n=2, k=1"):
            grassmann_map(2, 1)  # C(2,1) = 2 < 3
        with pytest.raises(InputError, match=r"product-of-forms map needs .*; got n=1, k=2"):
            prodforms_map(1, 2)  # n must be >= 2
        with pytest.raises(InputError, match=r"product-of-forms map needs .*; got n=2, k=1"):
            prodforms_map(2, 1)  # n + k must be >= 4

    def test_map_roundtrip(self, tmp_path):
        kmap = prodforms_map(2, 2)
        path = tmp_path / "map.json"
        write_json(map_to_doc(kmap), path)
        loaded = load_map(str(path))
        assert loaded.basis_images == kmap.basis_images
        assert (loaded.k, loaded.n, loaded.target_dim) == (kmap.k, kmap.n, kmap.target_dim)

    def test_non_spanning_rejected(self):
        images = {(0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (1, 0): (0, 1, 0), (1, 1): (1, 0, 0)}
        with pytest.raises(InputError, match="basis images do not span the target space"):
            KLinearMap(k=2, n=2, target_dim=3, basis_images=images)


class TestEvaluate:
    def test_grassmann_matches_wedge(self):
        kmap = grassmann_map(3, 2)
        assert evaluate(kmap, [(1, 2, 3), (0, 1, 1)]) == (1, 1, -1)
        assert wedge_k([(1, 2, 3), (0, 1, 1)]) == (1, 1, -1)

    def test_zero_slot(self):
        kmap = grassmann_map(3, 2)
        assert evaluate(kmap, [(0, 0, 0), (1, 2, 3)]) == (0, 0, 0)

    def test_prodforms_difference_of_squares(self):
        kmap = prodforms_map(2, 2)
        # (x1+x2)(x1-x2) = x1^2 - x2^2 in order (x1^2, x1 x2, x2^2)
        assert evaluate(kmap, [(1, 1), (1, -1)]) == (1, 0, -1)

    @given(
        st.tuples(*[st.integers(-9, 9)] * 4),
        st.tuples(*[st.integers(-9, 9)] * 4),
        st.tuples(*[st.integers(-9, 9)] * 4),
        st.fractions(min_value=-4, max_value=4),
        st.fractions(min_value=-4, max_value=4),
    )
    @settings(max_examples=300, derandomize=True)
    def test_multilinearity(self, u, v, w, a, b):
        kmap = grassmann_map(4, 2)
        combo = tuple(a * x + b * y for x, y in zip(u, v))
        left = evaluate(kmap, [w, combo])
        r1 = evaluate(kmap, [w, u])
        r2 = evaluate(kmap, [w, v])
        assert left == tuple(a * x + b * y for x, y in zip(r1, r2))


def scaled(kmap: KLinearMap) -> KLinearMap:
    """kmap with basis image idx divided by 2 + idx[0]."""
    images = {idx: tuple(Fraction(a, 2 + idx[0]) for a in img)
              for idx, img in kmap.basis_images.items()}
    return KLinearMap(k=kmap.k, n=kmap.n, target_dim=kmap.target_dim, basis_images=images)


RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
NAMED_MAPS = [grassmann_map(3, 1), grassmann_map(4, 2), grassmann_map(5, 2), grassmann_map(4, 3),
              prodforms_map(2, 3), prodforms_map(3, 2), scaled(prodforms_map(3, 2))]


@st.composite
def rational_maps(draw):
    """Random maps with rational basis images (denominators <= 6), some of them missing."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    assume(n ** k >= 3)
    dim = draw(st.integers(3, min(n ** k, 6)))
    images = {idx: tuple(draw(RATIONALS) for _ in range(dim))
              for idx in itertools.product(range(n), repeat=k) if draw(st.integers(0, 3))}
    try:
        return KLinearMap(k=k, n=n, target_dim=dim, basis_images=images)
    except InputError:
        assume(False)


def slots(n):
    """A witness slot: zero, integer or rational."""
    return st.one_of(st.just((0,) * n), st.tuples(*[st.integers(-6, 6)] * n),
                     st.tuples(*[RATIONALS] * n))


class TestIntegerKernel:
    """The integer evaluator and the anchor contraction against the Fraction oracle."""

    @given(st.one_of(st.sampled_from(NAMED_MAPS), rational_maps()), st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_evaluate_matches_fraction_oracle(self, kmap, data):
        witness = [data.draw(slots(kmap.n)) for _ in range(kmap.k)]
        got = evaluate(kmap, witness)
        assert got == fraction_evaluate(kmap, witness)
        assert all(type(a) is Fraction for a in got)

    @given(st.one_of(st.sampled_from(NAMED_MAPS), rational_maps()), st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_contraction_matches_substitution(self, kmap, data):
        """Fixing the other slots, then evaluating on the free ones, is evaluating the whole."""
        witness = [data.draw(slots(kmap.n)) for _ in range(kmap.k)]
        d, images = kmap.integer_images
        _, ints = _integer_slots(witness)
        for r in range(kmap.k + 1):
            for free in itertools.combinations(range(kmap.k), r):
                repl = [data.draw(st.tuples(*[st.integers(-4, 4)] * kmap.n)) for _ in free]
                sub = _sparse(_contract(images, kmap.target_dim, ints, free))
                got = _contract(sub, kmap.target_dim, repl).get((), [0] * kmap.target_dim)
                scale = d * prod(_integer_slots([witness[s]])[0]
                                 for s in range(kmap.k) if s not in free)
                full = list(witness)
                for s, v in zip(free, repl):
                    full[s] = v
                assert tuple(Fraction(a, scale) for a in got) == evaluate(kmap, full)

    @given(st.sampled_from([grassmann_map(4, 2), prodforms_map(2, 3), scaled(prodforms_map(3, 2))]),
           st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_line_step_certificate_recomputes(self, kmap, data):
        """The scales, each computed once per step, match a fresh evaluation."""
        witness = [data.draw(slots(kmap.n)) for _ in range(kmap.k)]
        assume(any(evaluate(kmap, witness)))
        x = witnessed_point(kmap, witness)
        dim = kmap.target_dim
        extra = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=dim - 2))
        h = subspace_span([x.point, *extra], dim)
        rng = random.Random(data.draw(st.integers(0, 99)))
        try:
            assert_certificate_recomputes(kmap, x, h, 2, rng)
        except SearchExhausted:
            assume(False)

    def test_line_step_certificate_recomputes_after_multi_slot_escape(self):
        """Here beta differs from x in both slots, so z's witness is not beta's."""
        kmap = grassmann_map(4, 2)
        x = witnessed_point(kmap, [e(4, 0), e(4, 1)])
        h = subspace_span([e(6, i) for i in range(5)], 6)  # {p34 = 0}: one slot cannot escape
        cert = assert_certificate_recomputes(kmap, x, h, 1, None)
        assert shared_count(x.witness, cert.beta.witness) == 0


def assert_certificate_recomputes(kmap, x, h, max_height, rng):
    """line_step's scales equal a fresh evaluation, and beta's witness certifies beta; returns the certificate."""
    z, cert = line_step(kmap, x, h, max_height, rng)
    assert cert.anchor_scale == _scale_of(evaluate(kmap, x.witness), x.point)
    assert cert.z_scale == _scale_of(evaluate(kmap, z.witness), z.point)
    assert primitive(evaluate(kmap, cert.beta.witness)) == cert.beta.point
    return cert


SEARCH_MAPS = [grassmann_map(4, 2), grassmann_map(5, 2), prodforms_map(2, 3), rational_prodforms_map()]


class TestOutsideCandidates:
    """The search through contracted functionals against the loop that built and tested every point."""

    @given(st.sampled_from(SEARCH_MAPS), st.data())
    @settings(max_examples=120, derandomize=True, deadline=None)
    def test_matches_the_membership_loop(self, kmap, data):
        witness = [data.draw(slots(kmap.n).filter(any)) for _ in range(kmap.k)]
        assume(any(evaluate(kmap, witness)))
        anchor = witnessed_point(kmap, witness)
        dim = kmap.target_dim
        gens = []
        if data.draw(st.booleans()):
            # H holds the anchor's tangent: no one-slot replacement escapes, so the search goes down in m
            gens = [evaluate(kmap, replace_slot(anchor.witness, t, e(kmap.n, i)))
                    for t in range(kmap.k) for i in range(kmap.n)]
        room = dim - 1 - subspace_span(gens, dim).rank
        assume(room >= 0)
        gens += [data.draw(st.tuples(*[st.integers(-2, 2)] * dim))
                 for _ in range(data.draw(st.integers(0 if gens else 1, room)))]
        h = subspace_span(gens, dim)
        assume(h.rank > 0)
        seed = data.draw(st.one_of(st.none(), st.integers(0, 99)))
        max_height = data.draw(st.integers(1, 2))

        def first(search):
            rng = None if seed is None else random.Random(seed)
            return list(itertools.islice(search(kmap, h, anchor, max_height, rng), 25))

        found = first(outside_candidates)
        assert [(m, beta) for m, beta, _ in found] == first(outside_candidates_loop)
        for _, beta, image in found:
            assert image == integer_image(kmap, beta.witness)


class TestSharedCount:
    def test_identical(self):
        w = ((1, 0), (0, 1))
        assert shared_count(w, w) == 2

    def test_one_shared(self):
        assert shared_count(((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 0, 1, 0))) == 1

    def test_disjoint(self):
        assert shared_count(((1, 0), (0, 1)), ((1, 1), (1, -1))) == 0


class BudgetExhausted(RuntimeError):
    pass


def find_outside(kmap, h, anchor, max_height, rng=None) -> TracePoint:
    """A point of the image outside H maximizing witness slot agreement: the search's first."""
    if not h.contains(anchor.point):
        return anchor
    for _, beta, _ in outside_candidates(kmap, h, anchor, max_height, rng):
        return beta
    raise BudgetExhausted(f"no image point outside the subspace within height {max_height}")


class TestFindOutside:
    def test_anchor_already_outside(self):
        kmap = grassmann_map(4, 2)
        anchor = witnessed_point(kmap, [e(4, 0), e(4, 1)])
        h = subspace_span([v for v in itertools.product([0, 1], repeat=6)
                           if sum(v) == 1 and v[0] != 1], 6)
        beta = find_outside(kmap, h, anchor, 2)
        assert beta is anchor

    def test_single_slot_replacement_example(self):
        kmap = grassmann_map(4, 2)
        anchor = witnessed_point(kmap, [e(4, 0), e(4, 2)])  # [e1 ^ e3]
        # H = {first Plücker coordinate = 0}
        h = subspace_span([e(6, i) for i in range(1, 6)], 6)
        assert h.contains(anchor.point)
        beta = find_outside(kmap, h, anchor, 2)
        assert beta.witness == (e(4, 0), e(4, 1))  # (e1, e2)
        assert shared_count(anchor.witness, beta.witness) == 1
        assert not h.contains(beta.point)

    def test_budget_exhausted(self):
        kmap = grassmann_map(4, 2)
        anchor = witnessed_point(kmap, [e(4, 0), e(4, 1)])
        whole = subspace_span([e(6, i) for i in range(6)], 6)
        # improper subspace contains everything; nothing can be outside
        with pytest.raises(BudgetExhausted):
            find_outside(kmap, whole, anchor, 1)

    def test_multi_slot_escape(self):
        # single-slot replacements of (e1, e2) keep the last Plücker
        # coordinate zero, so escaping {p34 = 0} needs two new slots
        kmap = grassmann_map(4, 2)
        anchor = witnessed_point(kmap, [e(4, 0), e(4, 1)])
        h = subspace_span([e(6, i) for i in range(5)], 6)
        assert h.contains(anchor.point)
        beta = find_outside(kmap, h, anchor, 2)
        assert shared_count(anchor.witness, beta.witness) == 0
        assert beta.point[5] != 0
        # oracle: no single-slot replacement can escape
        for w in itertools.product(range(-2, 3), repeat=4):
            if all(a == 0 for a in w):
                continue
            for witness in ([w, e(4, 1)], [e(4, 0), w]):
                img = evaluate(kmap, witness)
                if any(a != 0 for a in img):
                    assert h.contains(primitive(img))

    def test_maximality_against_brute_force(self):
        # tiny instance: every witness pair with entries of height <= 2
        kmap = prodforms_map(2, 2)
        anchor = witnessed_point(kmap, [(1, 0), (1, 0)])  # x1^2
        h = subspace_span([(1, 0, 0), (0, 1, 0)], 3)
        beta = find_outside(kmap, h, anchor, 2)
        m_found = shared_count(anchor.witness, beta.witness)
        best = -1
        coords = range(-2, 3)
        vecs = [v for v in itertools.product(coords, repeat=2) if v != (0, 0)]
        for w1, w2 in itertools.product(vecs, repeat=2):
            img = evaluate(kmap, [w1, w2])
            if all(a == 0 for a in img) or h.contains(primitive(img)):
                continue
            best = max(best, shared_count(anchor.witness, (w1, w2)))
        assert m_found == best


class TestLineStep:
    def test_precondition(self):
        kmap = grassmann_map(4, 2)
        x = witnessed_point(kmap, [e(4, 0), e(4, 1)])
        h = subspace_span([e(6, i) for i in range(1, 6)], 6)
        assert not h.contains(x.point)
        with pytest.raises(GeometryError, match="line_step needs a point inside the subspace"):
            line_step(kmap, x, h, 2)

    def test_grassmann_pencil_example(self):
        kmap = grassmann_map(4, 2)
        x = witnessed_point(kmap, [e(4, 0), e(4, 2)])  # [e1 ^ e3]
        h = subspace_span([e(6, i) for i in range(1, 6)], 6)  # {p12 = 0}
        z, cert = line_step(kmap, x, h, 2)
        assert cert.m == 1
        assert z.point != x.point
        # every line point b*x + z escapes H: its first Plücker coordinate is fixed
        for b in range(-20, 21):
            y = tuple(b * a + c for a, c in zip(x.point, z.point))
            w = line_witness(x.witness, z.witness, cert.slot, cert.anchor_scale, cert.z_scale, b)
            assert evaluate(kmap, w) == tuple(Fraction(a) for a in y)
            comp = companion_vector(kmap, cert, x, z, b)
            assert any(a != 0 for a in comp)
            assert not h.contains(primitive(comp))

    def test_witness_soundness_along_line(self):
        kmap = prodforms_map(2, 3)
        x = witnessed_point(kmap, [(1, 0), (1, 0), (1, 0)])
        h = subspace_span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 4)
        assert h.contains(x.point)
        z, cert = line_step(kmap, x, h, 2)
        for b in (-3, 1, 5):
            y = tuple(b * a + c for a, c in zip(x.point, z.point))
            w = line_witness(x.witness, z.witness, cert.slot, cert.anchor_scale, cert.z_scale, b)
            assert primitive(evaluate(kmap, w)) == primitive(y)

    def test_beta_prime_certificate_shape(self):
        kmap = grassmann_map(4, 2)
        x = witnessed_point(kmap, [e(4, 0), e(4, 2)])
        h = subspace_span([e(6, i) for i in range(1, 6)], 6)
        z, cert = line_step(kmap, x, h, 2)
        # companion base is inside H (or zero): this is what makes the
        # companion family stay outside for every multiplier
        if cert.beta_prime is not None:
            assert h.contains(primitive(cert.beta_prime))


class TestWitnessedPoint:
    @given(st.tuples(*[st.integers(-6, 6)] * 4), st.tuples(*[st.integers(-6, 6)] * 4))
    @settings(max_examples=400, derandomize=True)
    def test_witness_soundness(self, u, v):
        kmap = grassmann_map(4, 2)
        img = evaluate(kmap, [u, v])
        if all(a == 0 for a in img):
            return
        wp = witnessed_point(kmap, [u, v])
        assert primitive(evaluate(kmap, wp.witness)) == wp.point


class TestCandidateVectors:
    @given(st.integers(1, 5), st.integers(1, 5), st.one_of(st.none(), st.integers(0, 2 ** 32)))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_matches_box_scan(self, n, height, seed):
        """Same shell, same order and same shuffle as the scan of the whole box."""
        def rng():
            return None if seed is None else random.Random(seed)

        assert candidate_vectors(n, height, rng()) == box_scan_candidates(n, height, rng())


_ENTRY_TEXT = st.one_of(
    st.from_regex(r"\s{0,2}[-+]{0,2}[0-9_]{0,6}(/[-+]?[0-9_]{0,4})?\s{0,2}", fullmatch=True),
    st.from_regex(r"[-+]?[0-9]{0,3}\.?[0-9]{0,3}([eE][-+]?[0-9]{1,3})?", fullmatch=True),
    st.text(alphabet="0123456789-+/._ eE\u0663\u06f5\u0967\u00b2\uff11\n", max_size=8),
    st.integers().map(str),
    st.integers(4299, 4301).map(lambda n: "7" * n),
    st.integers(4299, 4301).map(lambda n: "-" + "7" * n),
)


class TestWitnessEntryParse:
    """witness_from_doc reads an entry as Fraction(entry) did, integer strings as ints."""

    @staticmethod
    def fraction_reading(value):
        with reading("w"):
            return Fraction(value)

    @given(st.one_of(_ENTRY_TEXT, st.sampled_from([None, 3, -7, 1.5, True, [], {}, "", "-", "0x10", "1/0"])))
    @example("007")
    @example("-0")
    @example("\u0663")
    @example(" 5")
    @example("1_000")
    @settings(max_examples=500, derandomize=True)
    def test_same_value_or_same_message(self, value):
        try:
            expect = self.fraction_reading(value)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                witness_from_doc([[value]], "w")
            assert str(got.value) == str(exc)
            return
        (got,), = witness_from_doc([[value]], "w")
        assert got == expect
        plain = isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value) is not None
        assert type(got) is (int if plain else Fraction)

