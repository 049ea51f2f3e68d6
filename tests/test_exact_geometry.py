import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from maxsing.errors import GeometryError
from maxsing.exact_geometry import (
    RANK_PRIME,
    dyadic_bounds,
    dyadic_str,
    in_span,
    inth_root,
    ln_hi_fixed,
    ln_lo_fixed,
    minors_gcd,
    orthogonal_functionals,
    primitive,
    rank,
    rank_from_residues,
    sci_str,
    spans_from_residues,
    subspace_span,
    vec_scale,
    wedge_sq,
)
from maxsing import exact_geometry
from maxsing.exact_geometry import _rank_mod_p

from kernel_oracles import (
    det, dist_sq, fraction_functionals, fraction_subspace_span, ln_bounds_two_series,
    sci_str_exact, sqrt_bounds_two_roots, wedge_k,
)

small_ints = st.integers(min_value=-50, max_value=50)


def vectors(dim, max_abs=50):
    return st.tuples(*[st.integers(min_value=-max_abs, max_value=max_abs)] * dim)


def nonzero_vectors(dim, max_abs=50):
    return vectors(dim, max_abs).filter(lambda v: any(a != 0 for a in v))


class TestPrimitive:
    def test_gcd_division(self):
        assert primitive((2, 4, 6)) == (1, 2, 3)

    def test_sign_canonicalization(self):
        assert primitive((0, -3, 0)) == (0, 1, 0)
        assert primitive((-2, 4)) == (1, -2)

    def test_zero_vector_rejected(self):
        with pytest.raises(GeometryError, match="cannot projectivize the zero vector"):
            primitive((0, 0, 0))

    def test_rational_input(self):
        assert primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)

    @given(nonzero_vectors(4), st.fractions(min_value=-9, max_value=9).filter(lambda c: c != 0))
    @settings(max_examples=300, derandomize=True)
    def test_scale_invariance(self, v, c):
        scaled = tuple(c * a for a in v)
        assert primitive(scaled) == primitive(v)

    @given(vectors(4, 10 ** 12), vectors(4, 10 ** 12), st.integers(min_value=-10 ** 6, max_value=10 ** 6),
           st.integers(min_value=-3, max_value=3))
    @settings(max_examples=300, derandomize=True)
    def test_content_through_the_minors(self, x, z, b, c):
        # the content of z + b*x divides G = minors_gcd(x, z), also for a z
        # parallel to x (c x, where G = 0 and the plain content is taken)
        z = z if c == 0 else tuple(c * a for a in x)
        y = tuple(zi + b * xi for zi, xi in zip(z, x))
        g = minors_gcd(x, z)
        assert (g == 0) == (rank([x, z]) < 2)
        if any(y):
            content = math.gcd(*y)
            sign = 1 if next(a for a in y if a) > 0 else -1
            assert math.gcd(g, *y) == content
            assert primitive(y) == tuple(sign * a // content for a in y)


class TestDistSq:
    def test_identical_points(self):
        assert dist_sq((1, 0, 0), (1, 0, 0)) == 0

    def test_orthogonal(self):
        assert dist_sq((1, 0, 0), (0, 1, 0)) == 1

    def test_lagrange_example(self):
        # (1*2 - 1^2) / (1*2)
        assert dist_sq((1, 0, 0), (1, 1, 0)) == Fraction(1, 2)

    def test_zero_rejected(self):
        with pytest.raises(GeometryError, match="projective distance needs nonzero vectors"):
            dist_sq((0, 0), (1, 0))

    @given(nonzero_vectors(3), nonzero_vectors(3),
           st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7))
    @settings(max_examples=300, derandomize=True)
    def test_scale_invariance(self, x, y, cx, cy):
        sx = tuple(cx * a for a in x)
        sy = tuple(-cy * a for a in y)
        assert dist_sq(sx, sy) == dist_sq(x, y)
        assert dist_sq(x, y) == dist_sq(primitive(x), primitive(y))

    @given(nonzero_vectors(3), nonzero_vectors(3))
    @settings(max_examples=300, derandomize=True)
    def test_range_and_symmetry(self, x, y):
        d = dist_sq(x, y)
        assert 0 <= d <= 1
        assert d == dist_sq(y, x)
        assert (d == 0) == (primitive(x) == primitive(y))

    @given(nonzero_vectors(3, 20), nonzero_vectors(3, 20), nonzero_vectors(3, 20))
    @settings(max_examples=300, derandomize=True)
    def test_triangle_inequality_outward(self, x, y, z):
        # sound check with outward rounding at 96 bits
        lo_xz = sqrt_bounds_two_roots(dist_sq(x, z), 96)[0]
        hi_xy = sqrt_bounds_two_roots(dist_sq(x, y), 96)[1]
        hi_yz = sqrt_bounds_two_roots(dist_sq(y, z), 96)[1]
        assert lo_xz <= hi_xy + hi_yz


class TestWedge:
    def test_basis_minor(self):
        e1, e2 = (1, 0, 0), (0, 1, 0)
        assert wedge_k([e1, e2]) == (1, 0, 0)

    def test_cofactor_example(self):
        assert wedge_k([(1, 2, 3), (0, 1, 1)]) == (1, 1, -1)

    def test_alternating(self):
        v = (3, -1, 2)
        assert wedge_k([v, v]) == (0, 0, 0)

    def test_dimension_check(self):
        with pytest.raises(GeometryError, match="wedge_k needs k <= n vectors of one dimension n"):
            wedge_k([(1, 0), (0, 1, 0)])

    @given(vectors(4, 9), vectors(4, 9), vectors(4, 9),
           st.fractions(min_value=-5, max_value=5), st.fractions(min_value=-5, max_value=5))
    @settings(max_examples=250, derandomize=True)
    def test_multilinearity(self, u, v, w, a, b):
        combo = tuple(a * x + b * y for x, y in zip(u, v))
        left = wedge_k([w, combo])
        right = tuple(a * x + b * y for x, y in
                      zip(wedge_k([w, u]), wedge_k([w, v])))
        assert tuple(Fraction(c) for c in left) == right

    @given(nonzero_vectors(6, 20), nonzero_vectors(6, 20))
    @settings(max_examples=400, derandomize=True)
    def test_lagrange_identity_against_minor_sum(self, x, y):
        # independent oracle: sum of squared 2x2 minors
        minors = wedge_k([x, y])
        assert wedge_sq(x, y) == sum(m * m for m in minors)


class TestRankSpan:
    def test_rank_with_dependency(self):
        e1, e2 = (1, 0, 0), (0, 1, 0)
        s = (1, 1, 0)
        assert rank([e1, e2, s]) == 2

    def test_rank_proportional_rows(self):
        assert rank([(1, 2), (2, 4)]) == 1

    def test_in_span(self):
        s = subspace_span([(1, 0, 0), (0, 1, 0)])
        assert not in_span((0, 0, 1), s)
        assert in_span((3, -2, 0), s)

    def test_canonical_equality(self):
        a = subspace_span([(1, 1, 0), (0, 2, 0)])
        b = subspace_span([(1, 0, 0), (5, 1, 0)])
        assert a == b
        assert a != subspace_span([(1, 0, 0), (0, 0, 1)])

    def test_orthogonal_functionals(self):
        s = subspace_span([(1, 2, 3), (0, 1, 1)])
        funcs = orthogonal_functionals(s)
        assert len(funcs) == 1
        for b in s.basis:
            assert sum(f * a for f, a in zip(funcs[0], b)) == 0

    @given(st.lists(vectors(4, 9), min_size=1, max_size=5))
    @settings(max_examples=200, derandomize=True)
    def test_functionals_annihilate_span(self, vecs):
        nonzero = [v for v in vecs if any(a != 0 for a in v)]
        if not nonzero:
            return
        s = subspace_span(nonzero)
        funcs = orthogonal_functionals(s)
        assert len(funcs) == 4 - s.rank
        for f in funcs:
            for v in nonzero:
                assert sum(a * b for a, b in zip(f, v)) == 0

    @given(st.lists(vectors(5, 30), min_size=1, max_size=4))
    @settings(max_examples=200, derandomize=True)
    def test_functionals_match_the_fraction_construction(self, vecs):
        nonzero = [v for v in vecs if any(a != 0 for a in v)]
        if nonzero:
            s = subspace_span(nonzero)
            assert orthogonal_functionals(s) == fraction_functionals(s)

    @given(st.lists(vectors(4, 7), min_size=1, max_size=4))
    @settings(max_examples=300, derandomize=True)
    def test_rank_against_minor_oracle(self, vecs):
        # independent oracle: rank = size of the largest nonzero minor
        rows = [v for v in vecs if any(a != 0 for a in v)]
        oracle = 0
        for size in range(1, min(len(rows), 4) + 1):
            found = any(
                det([[rows[i][j] for j in cols] for i in idx]) != 0
                for idx in itertools.combinations(range(len(rows)), size)
                for cols in itertools.combinations(range(4), size)
            )
            if found:
                oracle = size
        assert rank(rows) == oracle

    @given(st.lists(vectors(4, 7), min_size=1, max_size=4),
           st.randoms(use_true_random=False))
    @settings(max_examples=300, derandomize=True)
    def test_canonical_form_invariance(self, vecs, rnd):
        # shuffling, rescaling, and adding row multiples never change the
        # canonical basis, so subspace equality is structural equality
        rows = [v for v in vecs if any(a != 0 for a in v)]
        if not rows:
            return
        s1 = subspace_span(rows, 4)
        mixed = [vec_scale(rnd.choice([1, -2, 3]), v) for v in rows]
        rnd.shuffle(mixed)
        if len(mixed) >= 2:
            mixed.append(tuple(a + 2 * b for a, b in zip(mixed[0], mixed[1])))
        assert subspace_span(mixed, 4) == s1


# the scales a row may carry: negative leading entries, denominators 2, 3 and 6,
# and 2^300, the size of split4 points
ROW_SCALES = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), 1 << 300, -(1 << 300),
              Fraction(1 << 300, 3))


@st.composite
def rows_of_known_rank(draw):
    """(n, r, rows): rows spanning a rank-r subspace of Q^n, n <= 10, every r from 0 to n.

    Generator i has a 1 in column cols[i] and zeros in cols[:i], so the r
    generators are independent; each is kept, in a combination with the later
    ones, and zero, duplicate and mixed rows join them before every row is
    scaled and the order shuffled.
    """
    n = draw(st.integers(1, 10))
    r = draw(st.integers(0, n))
    cols = draw(st.permutations(range(n)))
    coeffs = st.integers(-3, 3)
    gens = []
    for i in range(r):
        g = [0] * n
        g[cols[i]] = 1
        for c in cols[i + 1:]:
            g[c] = draw(coeffs)
        gens.append(g)
    rows = []
    for i in range(r):
        cs = [draw(coeffs) for _ in gens[i + 1:]]
        rows.append([a + sum(c * g[j] for c, g in zip(cs, gens[i + 1:])) for j, a in enumerate(gens[i])])
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        if kind == "zero" or not rows:
            rows.append([0] * n)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            cs = [draw(coeffs) for _ in gens]
            rows.append([sum(c * g[j] for c, g in zip(cs, gens)) for j in range(n)])
    scales = st.sampled_from(ROW_SCALES)
    rows = [[c * a for a in row] for row, c in zip(rows, [draw(scales) for _ in rows])]
    return n, r, draw(st.permutations(rows))


class TestIntegerSpan:
    """subspace_span's integer elimination against the Fraction RREF it replaced."""

    @given(rows_of_known_rank())
    @example((3, 2, [(0, -2, 4), (Fraction(1, 2), Fraction(1, 3), 0), (0, 0, 0), (0, -2, 4), (3, 2, 0)]))
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_matches_the_fraction_oracle(self, case):
        n, r, rows = case
        s = subspace_span(rows, n)
        assert s == fraction_subspace_span(rows, n)
        assert s.rank == r


# ---------------------------------------------------------------------------
# oracles: the Fraction elimination code that rank and in_span replaced


def _rank_by_elimination(vectors):
    """Rank over Q by fraction-free elimination of primitive integer rows."""
    rows = [list(primitive(v)) for v in vectors if any(a != 0 for a in v)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rnk = col = 0
    while rnk < len(rows) and col < ncols:
        piv = next((i for i in range(rnk, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rnk], rows[piv] = rows[piv], rows[rnk]
        pv = rows[rnk][col]
        for i in range(rnk + 1, len(rows)):
            ai = rows[i][col]
            if ai:
                rows[i] = [a * pv - b * ai for a, b in zip(rows[i], rows[rnk])]
        rnk += 1
        col += 1
    return rnk


def _in_span_by_elimination(v, s):
    """Membership by reducing v against the echelon basis in Fractions."""
    r = [Fraction(a) for a in v]
    for row in s.basis:
        pc = next(j for j, a in enumerate(row) if a != 0)
        if r[pc] != 0:
            c = Fraction(r[pc], row[pc])
            r = [a - c * b for a, b in zip(r, row)]
    return all(a == 0 for a in r)


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)

# entries a + b*p with small a: the matrix mod p is the small a-part, which is
# often singular when the matrix itself is not, so the exact fallback runs
near_prime_multiples = st.builds(lambda a, b: a + b * RANK_PRIME,
                                 st.integers(-1, 1), st.integers(-2, 2))
huge_ints = st.integers(min_value=-(1 << 300), max_value=1 << 300)


def matrices(entries, max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(st.tuples(*[entries] * n), min_size=0, max_size=n + 2)
    )


class TestCertifiedKernel:
    """rank and in_span against the elimination code they replaced."""

    def test_minor_divisible_by_the_prime(self):
        # det = p: rank 1 modulo p, rank 2 over Q, so the exact fallback decides
        rows = [(1, 1), (1, 1 + RANK_PRIME)]
        assert _rank_mod_p([list(r) for r in rows], 2, RANK_PRIME) == 1
        assert rank(rows) == 2
        rows3 = [(RANK_PRIME, 0, 0), (0, 1, 0), (0, 0, 1)]  # a row that vanishes mod p
        assert _rank_mod_p([list(r) for r in rows3], 3, RANK_PRIME) == 2
        assert rank(rows3) == 3

    @given(matrices(st.one_of(near_prime_multiples, huge_ints), 4))
    @settings(max_examples=200, derandomize=True)
    def test_rank_from_residues_of_every_suffix(self, rows):
        # the audit's spanning table: each row reduced once, every suffix ranked
        rows = [r for r in rows if any(r)]
        residues = [[a % RANK_PRIME for a in r] for r in rows]
        for i in range(len(rows)):
            assert rank_from_residues(rows[i:], residues[i:]) == rank(rows[i:])
            assert spans_from_residues(rows[i:], residues[i:]) == (rank(rows[i:]) == len(rows[0]))

    def test_residues_must_match_the_rows(self):
        rows = [(1, 0), (0, 1), (1, 1)]
        residues = [list(r) for r in rows]
        with pytest.raises(GeometryError, match="residues do not match"):
            rank_from_residues(rows[:1], residues)
        with pytest.raises(GeometryError, match="residues do not match"):
            spans_from_residues(rows[:2], residues)

    def test_rational_rows_with_prime_denominator(self):
        rows = [(Fraction(1, RANK_PRIME), 1), (0, 1)]
        assert rank(rows) == 2

    @given(st.one_of(matrices(st.integers(-3, 3)), matrices(small_fractions),
                     matrices(near_prime_multiples), matrices(huge_ints, 4)))
    @settings(max_examples=400, derandomize=True)
    def test_rank_matches_elimination(self, rows):
        assert rank(rows) == _rank_by_elimination(rows)

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=n + 1),
        st.lists(st.tuples(*[small_fractions] * n), min_size=1, max_size=4),
    )))
    @settings(max_examples=400, derandomize=True)
    def test_in_span_matches_elimination(self, case):
        n, gens, probes = case
        s = subspace_span(gens, n)  # every rank from 0 (no nonzero generator) to n
        # members too: integer combinations of the generators, and rescaled ones
        probes = list(probes) + [tuple(sum(c * g[j] for c, g in zip(cs, gens)) for j in range(n))
                                 for cs in itertools.product((1, -2), repeat=min(len(gens), 2))]
        probes += [tuple(Fraction(a, 7) for a in p) for p in probes]
        for v in probes:
            if len(v) == n:
                assert in_span(v, s) == _in_span_by_elimination(v, s)

    def test_full_and_zero_rank_subspaces(self):
        full = subspace_span([(1, 2, 3), (0, 1, 5), (0, 0, 7)])
        zero = subspace_span([], 3)
        assert full.rank == 3 and full.functionals == ()
        assert in_span((5, -1, Fraction(1, 3)), full)
        assert zero.rank == 0 and len(zero.functionals) == 3
        assert in_span((0, 0, 0), zero) and not in_span((0, 0, 1), zero)

    def test_functionals_are_kept_on_the_subspace(self):
        s = subspace_span([(1, 2, 3)])
        assert s.functionals is s.functionals
        assert s.functionals == orthogonal_functionals(s)


class TestSqrtBounds:
    """The sqrt interval the tests take as their oracle, and the negative root the kernel refuses."""

    def test_perfect_square(self):
        assert sqrt_bounds_two_roots(4, 10) == (2, 2)
        assert sqrt_bounds_two_roots(Fraction(1, 4), 10) == (Fraction(1, 2), Fraction(1, 2))

    def test_sqrt2_width(self):
        lo, hi = sqrt_bounds_two_roots(2, 4)
        assert lo * lo <= 2 <= hi * hi
        assert hi - lo <= Fraction(1, 16)

    def test_negative_rejected(self):
        with pytest.raises(GeometryError, match="integer root of a negative number"):
            inth_root(-1, 2)

    @given(st.fractions(min_value=0, max_value=10 ** 6),
           st.integers(min_value=8, max_value=128))
    @settings(max_examples=300, derandomize=True)
    def test_containment_and_width(self, r, bits):
        lo, hi = sqrt_bounds_two_roots(r, bits)
        assert 0 <= lo <= hi
        assert lo * lo <= r <= hi * hi
        assert hi - lo <= Fraction(1, 2 ** bits)

    @given(st.fractions(min_value=0, max_value=10 ** 6))
    @settings(max_examples=300, derandomize=True)
    def test_refinement_soundness(self, r):
        lo1, hi1 = sqrt_bounds_two_roots(r, 16)
        lo2, hi2 = sqrt_bounds_two_roots(r, 64)
        assert lo1 <= lo2 and hi2 <= hi1


class TestDyadicBounds:
    """Working-precision bounds from top bits: they bracket and have relative width 2^-precision."""

    @given(st.integers(0, 2 ** 3000), st.integers(1, 2 ** 3000), st.integers(1, 80), st.sampled_from([1, 2]))
    @example(0, 7, 64, 2)
    @example(2 ** 200, 1, 64, 2)  # an exact square
    @example(1, 2 ** 3000 - 1, 1, 2)
    @example(2 ** 3000, 1, 64, 1)
    @settings(max_examples=400, derandomize=True)
    def test_brackets_within_relative_width(self, p, q, prec, root):
        lo, hi = dyadic_bounds(p, q, prec, root)
        v = Fraction(p, q)
        assert lo ** root <= v <= hi ** root
        # hi - lo <= 2^-prec v^(1/root), squared for root 2
        assert (hi - lo) ** root <= v / 2 ** (root * prec)
        for b in (lo, hi):
            assert b.denominator & (b.denominator - 1) == 0

    @given(st.integers(-2 ** 80, 2 ** 80), st.integers(-3000, 3000))
    @example(0, 5)
    @settings(max_examples=300, derandomize=True)
    def test_renderer_reads_back(self, m, e):
        x = Fraction(m) * Fraction(2) ** e
        text = dyadic_str(x)
        mant, exp = text.split("p")
        assert Fraction(int(mant, 0)) * Fraction(2) ** int(exp) == x
        assert m == 0 or int(mant, 0) % 2 == 1
        assert len(text) < 40

    def test_renderer_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            dyadic_str(Fraction(1, 3))

    def test_bad_input(self):
        with pytest.raises(GeometryError, match="dyadic bounds need p >= 0 and q >= 1"):
            dyadic_bounds(-1, 1, 64)
        with pytest.raises(ValueError):
            dyadic_bounds(1, 1, 64, 3)


class TestRoots:
    def test_inth_root(self):
        assert inth_root(0, 3) == 0
        assert inth_root(26, 3) == 2
        assert inth_root(27, 3) == 3
        assert inth_root(10 ** 30, 5) == 10 ** 6

    @given(st.integers(min_value=0, max_value=10 ** 18), st.integers(min_value=1, max_value=7))
    @settings(max_examples=300, derandomize=True)
    def test_inth_root_floor(self, x, n):
        r = inth_root(x, n)
        assert r ** n <= x < (r + 1) ** n


def ln_ends(y, bits: int) -> tuple[Fraction, Fraction]:
    """(ln_lo_fixed, ln_hi_fixed) of y = p/q, as Fractions."""
    y = Fraction(y)
    (a, w), (b, v) = (f(y.numerator, y.denominator, bits) for f in (ln_lo_fixed, ln_hi_fixed))
    return Fraction(a, 1 << w), Fraction(b, 1 << v)


class TestLnBounds:
    """The two one-sided logarithms bracket ln(y) within 2^-bits."""

    def test_ln_one(self):
        assert ln_ends(1, 32) == (0, 0)

    def test_known_values(self):
        lo, hi = ln_ends(2, 80)
        # ln 2 = 0.693147180559945309417232... (21-digit bracket)
        ref_lo = Fraction(693147180559945309417, 10 ** 21)
        ref_hi = Fraction(693147180559945309418, 10 ** 21)
        assert lo <= ref_hi and ref_lo <= hi

    def test_reciprocal_antisymmetry(self):
        lo, hi = ln_ends(Fraction(1, 3), 64)
        lo2, hi2 = ln_ends(3, 64)
        assert lo == -hi2 and hi == -lo2

    def test_nonpositive_rejected(self):
        with pytest.raises(GeometryError, match="log of a non-positive rational"):
            ln_ends(0, 16)

    @given(st.fractions(min_value=Fraction(1, 1000), max_value=10 ** 9).filter(lambda y: y > 0),
           st.integers(min_value=16, max_value=96))
    @settings(max_examples=300, derandomize=True)
    def test_width_and_monotonicity(self, y, bits):
        lo, hi = ln_ends(y, bits)
        assert lo <= hi and hi - lo <= Fraction(1, 2 ** bits)
        # exp monotonicity proxy: compare against a nearby power of two
        e = y.numerator.bit_length() - y.denominator.bit_length()
        lo2, hi2 = ln_ends(Fraction(2) ** (e + 2), bits)
        if Fraction(2) ** (e + 2) >= y:
            assert lo <= hi2

    @given(st.fractions(min_value=2, max_value=10 ** 6))
    @settings(max_examples=200, derandomize=True)
    def test_refinement_soundness(self, y):
        lo1, hi1 = ln_ends(y, 24)
        lo2, hi2 = ln_ends(y, 80)
        assert lo1 <= lo2 and hi2 <= hi1


def _pow2(e: int) -> tuple[int, int]:
    return (1 << e, 1) if e >= 0 else (1, 1 << -e)


# (p, q) pairs, not necessarily in lowest terms: y < 1 and y > 1, y = 1,
# y = 2^e, y just above 1, and 1000-bit numerators
ln_pairs = st.one_of(
    st.tuples(st.integers(min_value=1, max_value=2 ** 80), st.integers(min_value=1, max_value=2 ** 80)),
    st.integers(min_value=1, max_value=2 ** 80).map(lambda q: (q, q)),
    st.integers(min_value=-300, max_value=300).map(_pow2),
    st.integers(min_value=1, max_value=2 ** 200).map(lambda q: (q + 1, q)),
    st.tuples(st.integers(min_value=2 ** 999, max_value=2 ** 1000), st.integers(min_value=1, max_value=2 ** 140)),
)


class TestOneSidedLn:
    """ln_lo_fixed and ln_hi_fixed are the ends of ln_bounds_two_series, bit for bit."""

    @given(ln_pairs, st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=256))
    @example((3, 1), 1, 4096)
    @example((1, 3 * 2 ** 70 + 1), 5, 4096)
    @example((2 ** 1000 - 1, 7), 1, 4096)
    @example((2 ** 64 + 1, 2 ** 64), 3, 4096)
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_ends_match_the_two_series_oracle(self, pq, c, bits):
        p, q = pq[0] * c, pq[1] * c  # a common factor changes nothing
        lo, hi = ln_bounds_two_series(Fraction(p, q), bits)
        (a, w), (b, v) = ln_lo_fixed(p, q, bits), ln_hi_fixed(p, q, bits)
        assert Fraction(a, 1 << w) == lo and Fraction(b, 1 << v) == hi

    def test_one_and_reciprocal(self):
        assert ln_lo_fixed(7, 7) == ln_hi_fixed(7, 7) == (0, 0)
        a, w = ln_lo_fixed(1, 3, 64)
        b, v = ln_hi_fixed(3, 1, 64)
        assert (a, w) == (-b, v)

    def test_nonpositive_rejected(self):
        with pytest.raises(GeometryError, match="log of a non-positive rational"):
            ln_lo_fixed(0, 1)
        with pytest.raises(GeometryError, match="log of a non-positive rational"):
            ln_hi_fixed(1, -2)


# integers of up to 400k bits, the size of a 12-point split4 coordinate's products
big_ints = st.builds(lambda bits, seed: random.Random(seed).getrandbits(bits) | 1,
                     st.integers(min_value=1, max_value=400_000), st.integers(min_value=0, max_value=2 ** 32))
small_dens = st.integers(min_value=1, max_value=2 ** 4096)
render_values = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40).map(Fraction),
    st.builds(lambda a, k: Fraction(a, 1 << k),
              st.integers(min_value=-10 ** 40, max_value=10 ** 40), st.integers(min_value=0, max_value=300)),
    st.builds(lambda a, d, neg: Fraction(-a if neg else a, d), big_ints, small_dens, st.booleans()),
    st.builds(lambda a, d, neg: Fraction(-d if neg else d, a), big_ints, small_dens, st.booleans()),
    st.builds(lambda k, d: Fraction(10) ** k + Fraction(d, 10 ** 80),
              st.integers(min_value=-60, max_value=60), st.integers(min_value=-1, max_value=1)),
)


class TestRenderers:
    """sci_str gives the truncated leading digits."""

    @given(render_values)
    @example(Fraction(10 ** 12))
    @example(Fraction(10 ** 12 - 1))
    @example(Fraction(-1, 3))
    @example(Fraction(random.Random(7).getrandbits(400_000) | 1, 3 << 64))
    # just above 2^e where e*log10(2) lies within 3e-6 of an integer (above
    # it for e = 254370, below it for e = -325147), so a bound on log10(2)
    # rounded the wrong way overestimates the exponent
    @example(Fraction(1 << (254370 + 64), (1 << 64) - 1))
    @example(Fraction(1 << 64, ((1 << 64) - 1) << 325147))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_scientific_bounds(self, x):
        s = sci_str(x, 12)
        if x == 0:
            assert s == "0"
            return
        mantissa, exp = s.split("e")
        assert mantissa.startswith("-") == (x < 0)
        m, n = int(mantissa.lstrip("-").replace(".", "")), int(exp)
        assert 10 ** 11 <= m < 10 ** 12
        unit = Fraction(10) ** (n - 11)
        assert m * unit <= abs(x) < (m + 1) * unit


# dyadics m 2^e with |e| up to 2*10^5, rationals with large denominators, and
# values within a relative 10^-15 of a power of ten
exact_render_values = st.one_of(
    st.builds(lambda m, e: Fraction(m) * Fraction(2) ** e,
              st.integers(min_value=-2 ** 128, max_value=2 ** 128).filter(bool),
              st.integers(min_value=-200_000, max_value=200_000)),
    st.builds(lambda a, d, neg: Fraction(-a if neg else a, d), big_ints, small_dens, st.booleans()),
    st.builds(lambda a, d: Fraction(a, d), st.integers(min_value=1, max_value=2 ** 64), big_ints),
    st.builds(lambda k, d: Fraction(10) ** k * (1 + Fraction(d, 10 ** 21)),
              st.integers(min_value=-400, max_value=400), st.integers(min_value=-10 ** 6, max_value=10 ** 6)),
)


class TestSciStrTopBits:
    """sci_str reads floor(|x| 10^s) from K-bit brackets of 10^|s| and gives the exact formula's string."""

    @given(exact_render_values)
    @example(Fraction(10) ** 400)
    @example(Fraction(1, 10 ** 30000))
    @example(Fraction(1 << 200_000, 3))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_the_exact_formula(self, x):
        assert sci_str(x, 12) == sci_str_exact(x, 12)

    def test_exact_power_of_ten_reaches_the_exact_fallback(self, monkeypatch):
        # |x| 10^s is the integer 10^11, so the upper end of every cut
        # bracket floors one below it; only the uncut power agrees
        widths = []
        bounds = exact_geometry._pow10_bounds

        def recording(n, k):
            widths.append(k)
            return bounds(n, k)

        monkeypatch.setattr(exact_geometry, "_pow10_bounds", recording)
        x = Fraction(10) ** 400
        assert sci_str(x, 12) == sci_str_exact(x, 12) == "1.00000000000e+400"
        assert widths[0] == 128 and len(widths) > 1
        lo, hi, t = bounds(388, widths[-1])  # s = 11 - 399
        assert lo == hi and lo << t == 10 ** 388

    @pytest.mark.parametrize("n", [0, 1, 7, 389, 12345])
    @pytest.mark.parametrize("k", [128, 256])
    def test_pow10_bounds_bracket(self, n, k):
        lo, hi, t = exact_geometry._pow10_bounds(n, k)
        assert lo << t <= 10 ** n <= hi << t
        assert hi.bit_length() <= k
