"""Rational quadratic forms with a certified pair of hyperbolic planes.

The hypersurface machinery needs exactly three things decided exactly:
whether a point is on the quadric, the orthogonal complement of a point,
and totally isotropic rational lines through a given isotropic point.
The two-hyperbolic-plane witness is an input certificate, not something
computed: it guarantees such lines exist and seeds the searches.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from .errors import GeometryError, InputError, SearchExhausted, reading
from .exact_geometry import (
    RANK_PRIME,
    IntVec,
    ProjSubspaceQ,
    dot,
    int_from_doc,
    norm_sq,
    primitive,
    subspace_span,
    wedge_sq,
)
from .multilinear import candidate_vectors


class QuadraticFormQ:
    """Symmetric rational Gram matrix A of the form b(x,y) = x^T A y, q(x) = b(x,x).

    The Gram matrix is scaled once to the integer matrix d*A, d > 0 the
    least common denominator of its entries.  ``bilinear`` and ``q``
    return d*b and d*q: integers on integer vectors, with the same sign
    and the same zeros as b and q.  The rational value is
    Fraction(form.bilinear(x, y), form.denominator).
    """

    def __init__(self, gram: tuple[tuple[Fraction, ...], ...]):
        n = len(gram)
        for row in gram:
            if len(row) != n:
                raise GeometryError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise InputError("gram matrix must be symmetric")
        if all(a == 0 for row in gram for a in row):
            raise InputError("quadratic form must not vanish identically")
        d = 1
        for row in gram:
            for a in row:
                den = Fraction(a).denominator
                d = d * den // gcd(d, den)
        self.gram = gram
        self.denominator = d
        # nonzero entries (j, d*A[i][j]) of each row i of d*A
        self._int_rows = tuple(
            tuple((j, int(a * d)) for j, a in enumerate(row) if a != 0) for row in gram
        )
        # nonzero terms (i, j, c) of d*q(x) = sum c*x_i*x_j over i <= j
        self._q_terms = tuple(
            (i, j, a if i == j else 2 * a)
            for i, row in enumerate(self._int_rows) for j, a in row if i <= j
        )

    @property
    def dim(self) -> int:
        return len(self.gram)

    def apply(self, y: Sequence) -> tuple:
        """d*A*y, so that d*b(x, y) = dot(x, d*A*y)."""
        if len(y) != self.dim:
            raise GeometryError("bilinear form: wrong vector dimension")
        return tuple(sum(a * y[j] for j, a in row) for row in self._int_rows)

    def bilinear(self, x: Sequence, y: Sequence):
        """d*b(x, y): an integer for integer x and y."""
        if len(x) != self.dim:
            raise GeometryError("bilinear form: wrong vector dimension")
        return dot(x, self.apply(y))

    def q(self, x: Sequence):
        """d*q(x): an integer for integer x."""
        if len(x) != self.dim:
            raise GeometryError("bilinear form: wrong vector dimension")
        return sum(c * x[i] * x[j] for i, j, c in self._q_terms)


class HyperbolicWitness(namedtuple("HyperbolicWitness", "u1 v1 u2 v2")):
    """Two orthogonal hyperbolic planes: q(u_i)=q(v_i)=0, b(u_i,v_i)!=0, cross-pairs orthogonal."""

    __slots__ = ()


def validate_witness(form: QuadraticFormQ, w: HyperbolicWitness) -> bool:
    """True iff the witness certifies two orthogonal hyperbolic planes."""
    for v in w:
        if len(v) != form.dim:
            raise GeometryError("witness vector of wrong dimension")
    if any(form.q(v) != 0 for v in w):
        return False
    if form.bilinear(w.u1, w.v1) == 0 or form.bilinear(w.u2, w.v2) == 0:
        return False
    for a in (w.u1, w.v1):
        for b in (w.u2, w.v2):
            if form.bilinear(a, b) != 0:
                return False
    return True


def on_quadric(form: QuadraticFormQ, p: Sequence) -> bool:
    return form.q(p) == 0


def _pairing_row(form: QuadraticFormQ, v: Sequence) -> tuple:
    """d*A*v, the functional x -> d*b(v, x); a GeometryError if it vanishes (a radical direction)."""
    row = form.apply(v)
    if all(a == 0 for a in row):
        raise GeometryError("point pairs to zero with everything (radical direction)")
    return row


def orth_complement(form: QuadraticFormQ, p: Sequence, factors: tuple[IntVec, IntVec] | None = None) -> ProjSubspaceQ:
    """Kernel of x -> b(p, x) as a canonical subspace, in closed form.

    With row = d*A*p and j* its last nonzero index, the kernel has the
    basis row[j*] e_j - row[j] e_j* for j != j*.  Row j has its leading
    entry at j (row[j] = 0 for j > j*) and j* is no pivot, so after
    scaling each row to its leading entry this is the reduced row echelon
    form, which is unique.  Dividing by gcd(row[j*], row[j]) and fixing
    the sign of row[j*] gives the primitive rows of ProjSubspaceQ.

    ``factors`` are p's Segre factors (u, v) on split4.  Each row then
    comes from the factors' entries (_perp_entries), and the subspace's
    functional is row itself: its entries are p's, permuted, so it is
    primitive as p is; its sign is made canonical.
    """
    row = _pairing_row(form, p)
    js = max(j for j, a in enumerate(row) if a != 0)
    lead = row[js]
    basis = []
    for j in range(form.dim):
        if j != js:
            if factors is None:
                g = gcd(lead, row[j]) if lead > 0 else -gcd(lead, row[j])
                a, c = lead // g, -row[j] // g
            else:
                a, c = _perp_entries(*factors, row, js, j)
            basis.append(tuple(a if i == j else c if i == js else 0 for i in range(form.dim)))
    perp = ProjSubspaceQ(tuple(basis), form.dim)
    if factors is not None:
        perp.functionals = (row if next(a for a in row if a) > 0 else tuple(-a for a in row),)
    return perp


def s_h_quadric(form: QuadraticFormQ, h: ProjSubspaceQ, alpha: IntVec) -> int:
    """The three-valued obstruction score of alpha relative to H.

    0 if alpha is outside H; 1 if inside with orthogonal complement
    different from H; 2 if inside and the complement equals H exactly.

    Certificate for the score 2 test: with alpha in H and A*alpha != 0
    (otherwise a GeometryError), alpha^perp is the kernel of the
    nonzero functional x -> b(alpha, x), a hyperplane.  H equals it iff
    H lies in it and has the same dimension, that is iff rank H = n - 1
    and b(alpha, h) = 0 for every basis row h of H.
    """
    if not on_quadric(form, alpha):
        raise GeometryError(f"[{':'.join(map(str, alpha))}] is not a zero of the form")
    if not h.contains(alpha):
        return 0
    row = _pairing_row(form, alpha)
    if h.rank != form.dim - 1:
        return 1
    return 2 if all(dot(row, hb) == 0 for hb in h.basis) else 1


# the largest coefficient count (2*height+1)^(dim-1) that line_in_quadric_through
# accepts: the isotropic search builds and caches every shell up to the height whole
ISOTROPIC_COST_GUARD = 10 ** 6


@lru_cache(maxsize=None)
def _coefficient_shell(r: int, h: int) -> tuple[tuple, tuple]:
    """Primitive coefficient vectors of max-norm h with canonical sign, and their monomials.

    The vectors keep candidate_vectors' order.  The monomials of c are
    c_i c_j over the pairs i <= j of combinations_with_replacement.
    """
    shell = tuple(c for c in candidate_vectors(r, h) if gcd(*c) == 1 and next(a for a in c if a) > 0)
    pairs = tuple(itertools.combinations_with_replacement(range(r), 2))
    return shell, tuple(tuple(c[i] * c[j] for i, j in pairs) for c in shell)


def isotropic_in_subspace_outside(
    form: QuadraticFormQ,
    s: ProjSubspaceQ,
    h: ProjSubspaceQ,
    height: int,
    anchor: IntVec,
    seeds: Sequence[Sequence] = (),
    rng: random.Random | None = None,
) -> IntVec:
    """A zero of the form inside S but outside H of least wedge area with ``anchor``, by exhaustive enumeration.

    Seeds are tried first; then primitive coefficient vectors over S's
    canonical basis up to the given max-norm height, shell by shell, each
    shell in a fixed order that a seeded rng shuffles.  All valid
    candidates in the search range are collected and the one minimizing
    |anchor ∧ candidate|^2 wins (ties: earliest found), which keeps the
    construction's coordinate growth down.

    The per-candidate tests run in coefficient space: d*q on S is the sum
    of weights w_ij c_i c_j, w_ij the entries of d*A restricted to S
    (doubled off the diagonal), and membership in H reduces to integer
    pairings with H's orthogonal functionals.  Prefilter: each shell's
    q values are first reduced modulo p = RANK_PRIME, from the weights
    reduced once.  q mod p != 0 implies q != 0, so a skipped vector is
    not a zero; the rest get the exact integer test.  The candidates, their
    order and the result are those of the exact test alone.
    """
    if all(h.contains(b) for b in s.basis):
        raise GeometryError("search subspace is contained in the excluded one")
    found: dict[IntVec, None] = {}  # the candidates, in the order found
    for seed in seeds:
        if any(seed) and form.q(seed) == 0:
            pt = primitive(seed)
            if not h.contains(pt) and s.contains(pt):
                found.setdefault(pt)

    r = s.rank
    images = [form.apply(b) for b in s.basis]
    weights = [dot(s.basis[i], images[j]) * (1 if i == j else 2)
               for i, j in itertools.combinations_with_replacement(range(r), 2)]
    weights_p = [w % RANK_PRIME for w in weights]
    pairings = [[dot(f, b) for b in s.basis] for f in h.functionals]

    for hh in range(1, height + 1):
        shell, monos = _coefficient_shell(r, hh)
        maybe = {k for k, m in enumerate(monos) if not sum(map(mul, weights_p, m)) % RANK_PRIME}
        order = list(range(len(shell)))
        if rng is not None:
            rng.shuffle(order)
        for k in order:
            if k not in maybe or sum(map(mul, weights, monos[k])) != 0:
                continue
            coeffs = shell[k]
            if all(sum(c * w for c, w in zip(coeffs, row)) == 0 for row in pairings):
                continue  # inside H
            vec = [0] * s.ambient_dim
            for c, bas in zip(coeffs, s.basis):
                if c:
                    for j, a in enumerate(bas):
                        vec[j] += c * a
            found.setdefault(primitive(vec))
    if not found:
        raise SearchExhausted(f"no isotropic point in S outside H up to height {height}")
    if len(found) == 1:
        return next(iter(found))
    n2a = norm_sq(anchor)
    return min(found, key=lambda p: wedge_sq(anchor, p, n2a))


def line_in_quadric_through(
    form: QuadraticFormQ,
    witness: HyperbolicWitness,
    alpha: IntVec,
    h: ProjSubspaceQ,
    s: int,
    height: int = 6,
    rng: random.Random | None = None,
    factors: tuple[IntVec, IntVec] | None = None,
) -> IntVec:
    """A second generator z of a totally isotropic rational line through alpha that lowers the score.

    s must be s_h_quadric(form, h, alpha), which has checked that alpha
    is on the quadric and, for s >= 1, inside H; neither is checked again.
    For s = 1, z is an isotropic point of the orthogonal complement of
    alpha outside H, so every other rational line point leaves H.  For
    s = 2 (complement equals H) any isotropic line through alpha works;
    the witness guarantees one exists.  ``factors`` are alpha's Segre
    factors on split4 (orth_complement).  A height whose search would
    exceed ISOTROPIC_COST_GUARD raises an InputError before any shell.
    """
    if s not in (1, 2):
        raise GeometryError(f"line construction needs score 1 or 2, got {s}")
    est = (2 * height + 1) ** (form.dim - 1)
    if est > ISOTROPIC_COST_GUARD:
        raise InputError(f"max height {height} refused for a form of dimension {form.dim}: the isotropic "
                         f"search's (2*height+1)^(dim-1) = {est} exceeds the cost guard {ISOTROPIC_COST_GUARD}")
    perp = orth_complement(form, alpha, factors)
    seeds = list(witness)
    for a, b in itertools.product(witness[:2], witness[2:]):
        seeds.append(tuple(x + y for x, y in zip(a, b)))
        seeds.append(tuple(x - y for x, y in zip(a, b)))
    excluded = h if s == 1 else subspace_span([alpha], form.dim)
    return isotropic_in_subspace_outside(form, perp, excluded, height, alpha, seeds=seeds, rng=rng)


# ---------------------------------------------------------------------------
# built-in form and file format


def split4() -> tuple[QuadraticFormQ, HyperbolicWitness]:
    """The split form x0*x1 + x2*x3 on Q^4 with its standard witness."""
    half = Fraction(1, 2)
    zero = Fraction(0)
    gram = (
        (zero, half, zero, zero),
        (half, zero, zero, zero),
        (zero, zero, zero, half),
        (zero, zero, half, zero),
    )
    form = QuadraticFormQ(gram)
    wit = HyperbolicWitness((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    return form, wit


# ---------------------------------------------------------------------------
# split4 on its rulings
#
# A zero x of x0*x1 + x2*x3 is the rank-one matrix [[x0, x2], [-x3, x1]] = u v^T,
# that is x = segre(u, v) = u ⊗ v, the Segre embedding of P^1 x P^1.  By
# Gauss's lemma content(segre(u, v)) = content(u) content(v), so x is
# primitive iff u and v are.  The inner products factor:
# <segre(u, v), segre(u', v')> = <u, u'><v, v'>.  The lines through x in the
# quadric are its two rulings, the points segre(f, v) and segre(u, f); they
# make up the zeros in x^perp.  A line step keeps one factor k and moves the
# other, a: x = a ⊗ k, z = e ⊗ k and z + b x = (e + b a) ⊗ k.

# split4's d*A as QuadraticFormQ._int_rows; a form with other rows takes no Segre path
SPLIT4_ROWS = (((1, 1),), ((0, 1),), ((3, 1),), ((2, 1),))
# entry j of split4's d*A*segre(u, v) = (x1, x0, x3, x2) is s u[i] v[k], (i, k, s) = _ROW_FACTORS[j]
_ROW_FACTORS = ((1, 1, 1), (0, 0, 1), (1, 0, -1), (0, 1, 1))


def segre(u: Sequence[int], v: Sequence[int]) -> IntVec:
    """The point u ⊗ v = (u0 v0, u1 v1, u0 v1, -u1 v0) of x0*x1 + x2*x3 = 0."""
    return (u[0] * v[0], u[1] * v[1], u[0] * v[1], -u[1] * v[0])


def segre_factors(x: Sequence[int]) -> tuple[IntVec, IntVec] | None:
    """Primitive (u, v) with segre(u, v) == x, or None when x is zero, not of rank one or not primitive.

    Takes gcds of x's entries, so it is meant for small points: a start
    point, or a point the step check could not factor.  A nonzero row of
    u v^T is u_i v and a nonzero column u v_j, so each divided by its
    content is v or u up to sign; the sign of u is then fixed by testing.
    """
    m = ((x[0], x[2]), (-x[3], x[1]))
    if not any(x) or m[0][0] * m[1][1] != m[0][1] * m[1][0]:
        return None
    row = m[0] if any(m[0]) else m[1]
    col = (m[0][0], m[1][0]) if m[0][0] or m[1][0] else (m[0][1], m[1][1])
    gv, gu = gcd(*row), gcd(*col)
    v, u = (row[0] // gv, row[1] // gv), (col[0] // gu, col[1] // gu)
    x = tuple(x)
    for f in (u, (-u[0], -u[1])):
        if segre(f, v) == x:
            return f, v
    return None


def segre_split(u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> tuple[IntVec, bool] | None:
    """(f, True) with w == segre(f, v), or (f, False) with w == segre(u, f); None if w is on neither ruling.

    u and v are nonzero.  w's matrix is f k^T or k f^T for the kept factor
    k, so f is a column or a row of it divided by a nonzero entry of k,
    exactly, and all of w is then checked against the product: no gcd.
    The larger factor is tried first, so the quotient is the small one.  A
    w on both rulings is a multiple of segre(u, v), and either split of it
    gives the same line.
    """
    w = tuple(w)
    m = ((w[0], w[2]), (-w[3], w[1]))
    order = ((True, v), (False, u))
    for first, k in order[::-1] if max(map(abs, u)) > max(map(abs, v)) else order:
        j = 0 if k[0] else 1
        (f0, r0), (f1, r1) = (divmod(a, k[j]) for a in ((m[0][j], m[1][j]) if first else m[j]))
        if not (r0 or r1) and (segre((f0, f1), k) if first else segre(k, (f0, f1))) == w:
            return (f0, f1), first
    return None


def segre_lift(p: IntVec, k: IntVec, first: bool) -> tuple[IntVec, tuple[IntVec, IntVec], IntVec]:
    """The point segre(p, k) (``first``) or segre(k, p), with its factors (u, v) and its p.

    p is nonzero; its sign is flipped when needed so that the point's
    first nonzero entry is positive.  With p and k primitive the point is
    primitive(segre(p, k)) (Gauss's lemma).
    """
    x = segre(p, k) if first else segre(k, p)
    if next(a for a in x if a) < 0:
        p, x = (-p[0], -p[1]), tuple(-a for a in x)
    return x, ((p, k) if first else (k, p)), p


def _sign(a: int) -> int:
    return 1 if a > 0 else -1


def _perp_entries(u: IntVec, v: IntVec, row: Sequence[int], js: int, j: int) -> tuple[int, int]:
    """The entries at j and js of orth_complement's row (row[js] e_j - row[j] e_js) / g, for p = segre(u, v).

    g = gcd(row[js], row[j]) with row[js]'s sign, u and v primitive.  The
    entries are s u_i v_k and s' u_i' v_k' (_ROW_FACTORS).  For i = i'
    the gcd is |u_i| gcd(v_k, v_k') = |u_i|, as v is primitive, and the
    quotients are the other factors' entries: row[js] / g = |v_k| and
    -row[j] / g = -s s' sgn(v_k) v_k'.  Likewise for k = k', with g = |v_k|.
    Otherwise gcd(u_i, u_i') = gcd(v_k, v_k') = 1, and then
    g = gcd(u_i, v_k') gcd(v_k, u_i'): a prime divides at most one of
    u_i, u_i' and at most one of v_k, v_k', so its exponents on both sides
    agree case by case; zero entries included.  No gcd of full-size
    entries is taken.
    """
    (i, k, s), (i2, k2, s2) = _ROW_FACTORS[js], _ROW_FACTORS[j]
    if i == i2:
        return abs(v[k]), -s * s2 * _sign(v[k]) * v[k2]
    if k == k2:
        return abs(u[i]), -s * s2 * _sign(u[i]) * u[i2]
    g = gcd(u[i], v[k2]) * gcd(v[k], u[i2]) * _sign(row[js])
    return row[js] // g, -row[j] // g


def form_to_doc(form: QuadraticFormQ, witness: HyperbolicWitness) -> dict:
    names = ("u1", "v1", "u2", "v2")
    return {
        "dim": form.dim,
        "gram": [[str(a) for a in row] for row in form.gram],
        "witness": {name: [str(a) for a in v] for name, v in zip(names, witness)},
    }


def form_from_doc(doc: dict) -> tuple[QuadraticFormQ, HyperbolicWitness]:
    """The form and witness a document describes; its callers read a defect as an InputError.

    A ``dim`` that is present must be an integer equal to the Gram matrix's size.
    """
    with reading("gram"):
        form = QuadraticFormQ(tuple(tuple(Fraction(a) for a in row) for row in doc["gram"]))
    if "dim" in doc and int_from_doc(doc["dim"], "dim") != form.dim:
        raise InputError(f"dim: {doc['dim']!r:.40} is not the gram matrix's size {form.dim}")
    with reading("witness"):
        w = doc["witness"]
        wit = HyperbolicWitness(*(tuple(int_from_doc(a, name) for a in w[name])
                                  for name in ("u1", "v1", "u2", "v2")))
    return form, wit


def load_form(path: str) -> tuple[QuadraticFormQ, HyperbolicWitness]:
    with open(path) as fh, reading(f"cannot load form {path}"):
        form, wit = form_from_doc(json.load(fh))
        if not validate_witness(form, wit):
            raise InputError("witness does not certify two hyperbolic planes")
    return form, wit
