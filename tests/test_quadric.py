import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from maxsing.errors import GeometryError, InputError, SearchExhausted
from maxsing.exact_geometry import (
    RANK_PRIME,
    dot,
    in_span,
    minors_gcd,
    norm_sq,
    orthogonal_functionals,
    primitive,
    subspace_span,
    wedge_sq,
)
from maxsing.quadric import (
    SPLIT4_ROWS,
    HyperbolicWitness,
    QuadraticFormQ,
    isotropic_in_subspace_outside,
    line_in_quadric_through,
    load_form,
    on_quadric,
    orth_complement,
    form_to_doc,
    s_h_quadric,
    segre,
    segre_factors,
    segre_lift,
    segre_split,
    split4,
    validate_witness,
)

from kernel_oracles import write_json


def e(i, n=4):
    return tuple(1 if j == i else 0 for j in range(n))


def hyperplane(coord, n=4):
    """The hyperplane {x_coord = 0}."""
    return subspace_span([e(i, n) for i in range(n) if i != coord], n)


@pytest.fixture(scope="module")
def form():
    return split4()[0]


@pytest.fixture(scope="module")
def witness():
    return split4()[1]


class TestWitness:
    def test_split_form_witness(self, form, witness):
        assert validate_witness(form, witness)

    def test_wrong_pairing(self, form):
        bad = HyperbolicWitness(e(0), e(2), e(1), e(3))
        assert not validate_witness(form, bad)  # b(e0, e2) = 0

    def test_diagonal_form_witness(self):
        # x0^2 + x1^2 - x2^2 - x3^2
        gram = tuple(
            tuple(Fraction(1 if i == j and i < 2 else (-1 if i == j else 0)) for j in range(4))
            for i in range(4)
        )
        f = QuadraticFormQ(gram)
        w = HyperbolicWitness((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))
        assert validate_witness(f, w)

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError, match="gram matrix must be symmetric"):
            QuadraticFormQ(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))))


class TestOrthComplement:
    def test_split_example(self, form):
        perp = orth_complement(form, primitive(e(0)))
        assert perp == subspace_span([e(0), e(2), e(3)], 4)  # {x1 = 0}

    def test_on_quadric(self, form):
        assert on_quadric(form, primitive(e(0)))
        assert not on_quadric(form, primitive((1, 1, 0, 0)))

    def test_self_orthogonality_of_isotropic(self, form):
        for v in [e(0), (1, 0, 1, 0), (5, 1, 5, -1)]:
            assert form.q(v) == 0
            assert orth_complement(form, primitive(v)).contains(v)

    def test_radical_direction(self):
        # degenerate form x0*x1 on Q^3: e2 pairs to zero with everything
        z, h = Fraction(0), Fraction(1, 2)
        f = QuadraticFormQ(((z, h, z), (h, z, z), (z, z, z)))
        with pytest.raises(GeometryError, match="radical direction"):
            orth_complement(f, primitive((0, 0, 1)))

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.lists(st.fractions(-4, 4, max_denominator=6), min_size=n * n, max_size=n * n),
        st.integers(0, n - 1),
        st.tuples(*[st.integers(-9, 9)] * n),
        st.tuples(*[st.integers(-9, 9)] * n),
        st.integers(1 << 10_000, 1 << 10_050),
    )))
    @settings(max_examples=200, derandomize=True)
    def test_closed_form_matches_rref(self, case):
        """The closed form equals the Fraction RREF of the old basis.

        The last ``tail`` rows and columns of the Gram matrix are zero, so
        the pairing row ends in zeros; coordinates have 10k+ bits.
        """
        entries, tail, big_part, small_part, big = case
        n = len(big_part)
        gram = tuple(tuple(entries[min(i, j) * n + max(i, j)] if max(i, j) < n - tail else Fraction(0)
                           for j in range(n)) for i in range(n))
        v = tuple(a * big + b for a, b in zip(big_part, small_part))
        if all(a == 0 for row in gram for a in row) or not any(v):
            return
        form = QuadraticFormQ(gram)
        try:
            expected = _orth_complement_fraction(form, v)
        except GeometryError:
            with pytest.raises(GeometryError, match="radical direction"):
                orth_complement(form, v)
            return
        assert orth_complement(form, v) == expected


class TestScore:
    def test_not_on_quadric(self, form):
        with pytest.raises(GeometryError, match="is not a zero of the form"):
            s_h_quadric(form, hyperplane(0), primitive((1, 1, 0, 0)))

    def test_nine_case_matrix(self, form):
        """All combinations of membership and complement equality for split4."""
        alpha = primitive(e(0))  # perp = {x1 = 0}
        cases = [
            # (H, expected score)
            (hyperplane(0), 0),                                # alpha outside
            (subspace_span([e(1), e(2)], 4), 0),               # outside a plane
            (subspace_span([e(1), e(2), e(3)], 4), 0),         # outside its own dual side
            (hyperplane(2), 1),                                # inside, perp differs
            (hyperplane(3), 1),
            (subspace_span([e(0), e(2)], 4), 1),               # inside a smaller subspace
            (subspace_span([e(0)], 4), 1),                     # the point itself
            (subspace_span([e(0), e(3)], 4), 1),
            (hyperplane(1), 2),                                # inside, perp equals H
        ]
        got = [s_h_quadric(form, h, alpha) for h, _ in cases]
        assert got == [expected for _, expected in cases]
        assert sorted(set(got)) == [0, 1, 2]


# ---------------------------------------------------------------------------
# oracles: the Fraction code that the integer Gram matrix and the score test
# replaced


def _bilinear_fraction(form, x, y):
    return sum(Fraction(form.gram[i][j]) * x[i] * y[j]
               for i in range(form.dim) for j in range(form.dim))


def _orth_complement_fraction(form, v):
    row = [sum(form.gram[i][j] * v[i] for i in range(form.dim)) for j in range(form.dim)]
    if all(a == 0 for a in row):
        raise GeometryError("radical direction")
    j0 = next(j for j, a in enumerate(row) if a != 0)
    basis = []
    for j in range(form.dim):
        if j != j0:
            vec = [Fraction(0)] * form.dim
            vec[j], vec[j0] = row[j0], -row[j]
            basis.append(vec)
    return subspace_span(basis, form.dim)


def _s_h_by_rref(form, h, alpha):
    """The score with H = alpha^perp decided by comparing canonical bases."""
    if _bilinear_fraction(form, alpha, alpha) != 0:
        raise GeometryError(f"{alpha} is not a zero of the form")
    if not in_span(alpha, h):
        return 0
    return 2 if _orth_complement_fraction(form, alpha) == h else 1


def _isotropic_case(n, entries, alpha, k, extra, rnd):
    """A rational form with alpha isotropic, and a subspace H of a random kind."""
    gram = [[Fraction(0)] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = next(it)
    q = sum(gram[i][j] * alpha[i] * alpha[j] for i in range(n) for j in range(n))
    gram[k][k] -= q / (alpha[k] * alpha[k])  # now q(alpha) = 0
    if all(a == 0 for row in gram for a in row):
        return None
    form = QuadraticFormQ(tuple(tuple(row) for row in gram))
    kind = rnd.randrange(4)
    if kind == 0 or all(a == 0 for a in form.apply(alpha)):
        gens = [alpha] + extra  # alpha inside H of random rank
    else:
        perp = _orth_complement_fraction(form, alpha).basis
        if kind == 1:
            gens = list(perp)  # H = alpha^perp: score 2
        elif kind == 2:
            # alpha inside a smaller subspace of alpha^perp: score 1
            gens = [alpha] + rnd.sample(list(perp), rnd.randrange(len(perp)))
        else:
            gens = extra  # usually alpha outside H
    return form, subspace_span(gens, n)


class TestIntegerKernel:
    """Integer Gram matrix and score test against the Fraction code."""

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.lists(st.fractions(-4, 4, max_denominator=6), min_size=n * n, max_size=n * n),
        st.tuples(*[st.integers(-9, 9)] * n),
        st.tuples(*[st.fractions(-9, 9, max_denominator=4)] * n),
    )))
    @settings(max_examples=300, derandomize=True)
    def test_bilinear_matches_fractions(self, case):
        entries, x, y = case
        n = len(x)
        gram = tuple(tuple(entries[min(i, j) * n + max(i, j)] for j in range(n)) for i in range(n))
        if all(a == 0 for row in gram for a in row):
            return
        form = QuadraticFormQ(gram)
        d = form.denominator
        assert all((a * d).denominator == 1 for row in gram for a in row)
        assert isinstance(form.bilinear(x, x), int) and isinstance(form.q(x), int)
        assert Fraction(form.bilinear(x, y), d) == _bilinear_fraction(form, x, y)
        assert Fraction(form.q(x), d) == _bilinear_fraction(form, x, x)
        assert Fraction(form.q(y), d) == _bilinear_fraction(form, y, y)
        assert on_quadric(form, x) == (_bilinear_fraction(form, x, x) == 0)

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n * (n + 1) // 2,
                 max_size=n * (n + 1) // 2),
        st.tuples(*[st.integers(-3, 3)] * n).filter(lambda v: any(v)),
        st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=n),
        st.randoms(use_true_random=False),
    )))
    @settings(max_examples=400, derandomize=True)
    def test_score_matches_rref(self, case):
        n, entries, alpha, extra, rnd = case
        k = next(i for i, a in enumerate(alpha) if a)
        built = _isotropic_case(n, entries, alpha, k, extra, rnd)
        if built is None:
            return
        form, h = built
        pt = primitive(alpha)
        try:
            expected = _s_h_by_rref(form, h, pt)
        except GeometryError:
            with pytest.raises(GeometryError, match="radical direction"):
                s_h_quadric(form, h, pt)
            return
        assert s_h_quadric(form, h, pt) == expected

    def test_radical_point_inside_h_is_degenerate(self):
        z, h = Fraction(0), Fraction(1, 2)
        f = QuadraticFormQ(((z, h, z), (h, z, z), (z, z, z)))
        radical = primitive((0, 0, 1))
        with pytest.raises(GeometryError, match="radical direction"):
            s_h_quadric(f, subspace_span([(0, 0, 1), (1, 0, 0)], 3), radical)
        assert s_h_quadric(f, subspace_span([(1, 0, 0)], 3), radical) == 0


class TestIsotropicSearch:
    def test_perp_outside_hyperplane(self, form):
        s = orth_complement(form, primitive(e(0)))
        z = isotropic_in_subspace_outside(form, s, hyperplane(2), 3, primitive(e(0)))
        assert z == primitive(e(2))

    def test_perp_outside_plane(self, form):
        s = orth_complement(form, primitive(e(0)))
        h = subspace_span([e(0), e(2)], 4)
        z = isotropic_in_subspace_outside(form, s, h, 3, primitive(e(0)))
        assert z == primitive(e(3))

    def test_totally_isotropic_line_subspace(self, form):
        s = subspace_span([e(0), e(2)], 4)  # q vanishes on it
        h = subspace_span([e(2)], 4)
        z = isotropic_in_subspace_outside(form, s, h, 3, primitive(e(0)))
        assert z == primitive(e(0))

    def test_contained_subspace_rejected(self, form):
        s = subspace_span([e(0)], 4)
        with pytest.raises(GeometryError, match="search subspace is contained in the excluded one"):
            isotropic_in_subspace_outside(form, s, subspace_span([e(0), e(1)], 4), 3, primitive(e(0)))

    def test_zero_mod_p_is_not_a_zero(self):
        # q = p*x0^2 + x1^2 has no nontrivial rational zero, but q(1, 0) = p
        # passes the mod-p prefilter, so only the exact test rejects it
        p = RANK_PRIME
        f = QuadraticFormQ(((Fraction(p), Fraction(0)), (Fraction(0), Fraction(1))))
        assert f.q((1, 0)) % p == 0 and f.q((1, 0)) != 0
        s = subspace_span([e(0, 2), e(1, 2)], 2)
        with pytest.raises(SearchExhausted, match="no isotropic point in S outside H up to height 3"):
            isotropic_in_subspace_outside(f, s, subspace_span([e(1, 2)], 2), 3, primitive(e(0, 2)))

    def test_height_exhausted(self):
        # x0*x1 + x2^2 + x3^2: only trivial zeros in the searched subspace
        z, half = Fraction(0), Fraction(1, 2)
        gram = ((z, half, z, z), (half, z, z, z), (z, z, Fraction(1), z), (z, z, z, Fraction(1)))
        f = QuadraticFormQ(gram)
        s = subspace_span([e(2), e(3)], 4)  # q positive definite there
        with pytest.raises(SearchExhausted, match="no isotropic point in S outside H up to height 4"):
            isotropic_in_subspace_outside(f, s, subspace_span([e(1)], 4), 4, primitive(e(0)))


class TestLineConstruction:
    def test_score_two_line(self, form, witness):
        alpha = primitive(e(0))
        h = hyperplane(1)  # equals perp(alpha): score 2
        z = line_in_quadric_through(form, witness, alpha, h, 2)
        line = subspace_span([alpha, z], 4)
        assert line.rank == 2
        assert z == primitive(e(2))
        assert line == subspace_span([e(0), e(2)], 4)

    def test_score_one_line(self, form, witness):
        alpha = primitive(e(0))
        h = hyperplane(2)  # score 1
        z = line_in_quadric_through(form, witness, alpha, h, 1)
        assert subspace_span([alpha, z], 4).rank == 2
        assert z == primitive(e(2))
        assert not h.contains(z)
        # every other rational line point leaves H
        for lam in range(-20, 21):
            y = tuple(lam * a + c for a, c in zip(e(0), e(2)))
            assert s_h_quadric(form, h, primitive(y)) == 0

    def test_score_zero_rejected(self, form, witness):
        with pytest.raises(GeometryError, match="line construction needs score 1 or 2, got 0"):
            line_in_quadric_through(form, witness, primitive(e(0)), hyperplane(0), 0)

    def test_line_totally_isotropic(self, form, witness):
        alpha = primitive((1, 0, 1, 0))
        h = subspace_span([e(0), (1, 0, 1, 0)], 4)
        s = s_h_quadric(form, h, alpha)
        assert s == 1
        z = line_in_quadric_through(form, witness, alpha, h, s)
        assert subspace_span([alpha, z], 4).rank == 2
        assert form.q(z) == 0
        assert form.bilinear(alpha, z) == 0
        for lam, mu in itertools.product(range(-5, 6), repeat=2):
            v = tuple(lam * a + mu * b for a, b in zip(alpha, z))
            assert form.q(v) == 0

    def test_score_two_samples_drop(self, form, witness):
        alpha = primitive(e(0))
        h = hyperplane(1)
        z = line_in_quadric_through(form, witness, alpha, h, 2)
        assert subspace_span([alpha, z], 4).rank == 2
        for lam in range(-20, 21):
            y = primitive(tuple(lam * a + c for a, c in zip(alpha, z)))
            assert s_h_quadric(form, h, y) <= 1


# an entry of a Segre factor: small, or of a few hundred bits, either sign
_entry = st.one_of(st.integers(-9, 9), st.integers(-2 ** 300, 2 ** 300))


@st.composite
def _primitive2(draw):
    f = (draw(_entry), draw(_entry))
    assume(any(f))
    g = math.gcd(*f)
    return f[0] // g, f[1] // g


def _det(a, b):
    return a[0] * b[1] - a[1] * b[0]


class TestSegre:
    """The factored split4 step against the 4-vector definitions (the Segre path of gen and verify)."""

    def test_split4_rows(self, form):
        assert form._int_rows == SPLIT4_ROWS

    @given(_primitive2(), _primitive2(), _primitive2(), st.integers(1, 12), st.booleans(),
           st.integers(-2 ** 400, 2 ** 400))
    @example((1, 0), (1, 0), (0, 1), 1, True, 1)
    @example((3, -5), (2, 7), (1, 1), 6, False, -4)
    @example((0, 1), (1, 0), (1, 0), 2, True, 3)
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_factored_step_matches_the_4_vectors(self, u, v, f, content, first, b):
        """G, the content of z + b x, the norms, the wedge and the primitive point, from the factors.

        x = u ⊗ v and z = e ⊗ k on the ruling that keeps k (v when
        ``first``), with e = content * f: contents above 1 and negative
        entries included.
        """
        x = segre(u, v)
        a, k = (u, v) if first else (v, u)
        e = (content * f[0], content * f[1])
        z = segre(e, k) if first else segre(k, e)
        assert x[0] * x[1] + x[2] * x[3] == 0 and z[0] * z[1] + z[2] * z[3] == 0
        assert segre_factors(primitive(x)) is not None and segre(*segre_factors(primitive(x))) == primitive(x)
        assert norm_sq(x) == norm_sq(u) * norm_sq(v)
        assert dot(x, z) == dot(a, e) * norm_sq(k)
        g = abs(_det(a, e))
        assert minors_gcd(x, z) == g
        assert wedge_sq(x, z) == norm_sq(k) ** 2 * _det(a, e) ** 2
        y = tuple(c + b * t for t, c in zip(x, z))
        ym = (e[0] + b * a[0], e[1] + b * a[1])
        assume(any(ym))
        assert math.gcd(*y) == math.gcd(g, *ym)
        assert norm_sq(y) == norm_sq(k) * norm_sq(ym)
        c = math.gcd(*ym)
        lifted, (lu, lv), _ = segre_lift((ym[0] // c, ym[1] // c), k, first)
        assert lifted == primitive(y) and segre(lu, lv) == lifted
        # z splits back on its ruling; a point that is neither ruling's does not
        split = segre_split(u, v, z)
        assert split is not None
        sf, sfirst = split
        assert (segre(sf, v) if sfirst else segre(u, sf)) == z
        if g:  # z is not a multiple of x, so the ruling is determined
            assert (sf, sfirst) == (e, first)
        w = (z[0] + 1, *z[1:])
        split = segre_split(u, v, w)
        if w[0] * w[1] + w[2] * w[3] != 0:  # not of rank one: on no ruling
            assert split is None
        elif split is not None:
            sf, sfirst = split
            assert (segre(sf, v) if sfirst else segre(u, sf)) == w

    @given(_primitive2(), _primitive2())
    @example((1, 0), (0, 1))
    @example((0, 1), (1, 0))
    @example((2, 3), (0, -1))
    @example((-2, 3), (-5, 1))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_perp_basis_gcds_from_the_factors(self, form, u, v):
        """orth_complement on the factors equals the one on the point, zero entries included, and so do its functionals.

        The factors keep the signs drawn, as a lift leaves them: only u is
        negated to make the point's first nonzero entry positive.
        """
        x = segre(u, v)
        if next(a for a in x if a) < 0:
            u = (-u[0], -u[1])
            x = segre(u, v)
        perp = orth_complement(form, x, (u, v))
        assert perp == orth_complement(form, x)
        assert perp.functionals == orthogonal_functionals(perp)

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=8),
           st.integers(0, 2), st.integers(0, 2 ** 32), st.integers(1, 3))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_line_search_on_the_factors(self, form, witness, pairs, n_extra, seed, height):
        """The search on x's factored complement finds the same z and leaves the rng in the same state.

        x = u ⊗ v; H is spanned by x and up to two more small points of
        the quadric, so that x lies in it.
        """
        vecs = [p for p in pairs if any(p)]
        assume(len(vecs) >= 2)
        x = primitive(segre(vecs[0], vecs[1]))
        extra = [primitive(segre(vecs[i % len(vecs)], vecs[(i + 1) % len(vecs)])) for i in range(2, 2 + n_extra)]
        h = subspace_span([x, *extra], 4)
        assume(h.rank < 4)
        s = s_h_quadric(form, h, x)
        assume(s in (1, 2))
        outcomes = []
        for factors in (None, segre_factors(x)):
            rng = random.Random(seed)
            try:
                z = line_in_quadric_through(form, witness, x, h, s, height=height, rng=rng, factors=factors)
            except SearchExhausted:
                z = None
            outcomes.append((z, rng.getstate()))
        assert outcomes[0] == outcomes[1]


class TestFormIO:
    def test_roundtrip(self, tmp_path, form, witness):
        path = tmp_path / "form.json"
        write_json(form_to_doc(form, witness), path)
        f2, w2 = load_form(str(path))
        assert f2.gram == form.gram
        assert w2 == witness

    def test_bad_witness_rejected(self, tmp_path, form):
        path = tmp_path / "bad.json"
        bad = HyperbolicWitness(e(0), e(2), e(1), e(3))
        write_json(form_to_doc(form, bad), path)
        with pytest.raises(InputError, match="witness does not certify two hyperbolic planes"):
            load_form(str(path))
