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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Sequence

from .errors import GeometryError, InputError, SearchExhausted, reading
from .exact_geometry import (
    RANK_PRIME,
    IntVec,
    ProjSubspaceQ,
    dot,
    int_from_doc,
    primitive,
    subspace_span,
    wedge_sq,
)
from .multilinear import candidate_vectors


@dataclass(frozen=True)
class QuadraticFormQ:
    """Symmetric rational Gram matrix A of the form b(x,y) = x^T A y, q(x) = b(x,x).

    The Gram matrix is scaled once to the integer matrix d*A, d > 0 the
    least common denominator of its entries.  ``bilinear`` and ``q``
    return d*b and d*q: integers on integer vectors, with the same sign
    and the same zeros as b and q.  The rational value is
    Fraction(form.bilinear(x, y), form.denominator).
    """

    gram: tuple[tuple[Fraction, ...], ...]
    denominator: int = field(init=False, repr=False, compare=False)
    # nonzero entries (j, d*A[i][j]) of each row i of d*A
    _int_rows: tuple = field(init=False, repr=False, compare=False)
    # nonzero terms (i, j, c) of d*q(x) = sum c*x_i*x_j over i <= j
    _q_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.gram)
        for row in self.gram:
            if len(row) != n:
                raise GeometryError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise InputError("gram matrix must be symmetric")
        if all(a == 0 for row in self.gram for a in row):
            raise InputError("quadratic form must not vanish identically")
        d = 1
        for row in self.gram:
            for a in row:
                den = Fraction(a).denominator
                d = d * den // gcd(d, den)
        int_rows = tuple(
            tuple((j, int(a * d)) for j, a in enumerate(row) if a != 0) for row in self.gram
        )
        q_terms = tuple(
            (i, j, a if i == j else 2 * a)
            for i, row in enumerate(int_rows) for j, a in row if i <= j
        )
        object.__setattr__(self, "denominator", d)
        object.__setattr__(self, "_int_rows", int_rows)
        object.__setattr__(self, "_q_terms", q_terms)

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


@dataclass(frozen=True)
class HyperbolicWitness:
    """Two orthogonal hyperbolic planes: q(u_i)=q(v_i)=0, b(u_i,v_i)!=0, cross-pairs orthogonal."""

    u1: tuple[int, ...]
    v1: tuple[int, ...]
    u2: tuple[int, ...]
    v2: tuple[int, ...]

    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return (self.u1, self.v1, self.u2, self.v2)


def validate_witness(form: QuadraticFormQ, w: HyperbolicWitness) -> bool:
    """True iff the witness certifies two orthogonal hyperbolic planes."""
    for v in w.vectors():
        if len(v) != form.dim:
            raise GeometryError("witness vector of wrong dimension")
    if any(form.q(v) != 0 for v in w.vectors()):
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


def orth_complement(form: QuadraticFormQ, p: Sequence) -> ProjSubspaceQ:
    """Kernel of x -> b(p, x) as a canonical subspace, in closed form.

    With row = d*A*p and j* its last nonzero index, the kernel has the
    basis row[j*] e_j - row[j] e_j* for j != j*.  Row j has its leading
    entry at j (row[j] = 0 for j > j*) and j* is no pivot, so after
    scaling each row to its leading entry this is the reduced row echelon
    form, which is unique.  Dividing by gcd(row[j*], row[j]) and fixing
    the sign of row[j*] gives the primitive rows of ProjSubspaceQ.
    """
    row = _pairing_row(form, p)
    js = max(j for j, a in enumerate(row) if a != 0)
    lead = row[js]
    basis = []
    for j in range(form.dim):
        if j != js:
            g = gcd(lead, row[j]) if lead > 0 else -gcd(lead, row[j])
            basis.append(tuple(lead // g if i == j else -row[j] // g if i == js else 0
                               for i in range(form.dim)))
    return ProjSubspaceQ(tuple(basis), form.dim)


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
    return min(found, key=lambda p: wedge_sq(anchor, p))


def line_in_quadric_through(
    form: QuadraticFormQ,
    witness: HyperbolicWitness,
    alpha: IntVec,
    h: ProjSubspaceQ,
    s: int,
    height: int = 6,
    rng: random.Random | None = None,
) -> IntVec:
    """A second generator z of a totally isotropic rational line through alpha that lowers the score.

    For s = 1, z is an isotropic point of the orthogonal complement of
    alpha outside H, so every other rational line point leaves H.  For
    s = 2 (complement equals H) any isotropic line through alpha works;
    the witness guarantees one exists.
    """
    if s not in (1, 2):
        raise GeometryError(f"line construction needs score 1 or 2, got {s}")
    if not h.contains(alpha):
        raise GeometryError("alpha must lie in the subspace")
    if not on_quadric(form, alpha):
        raise GeometryError(f"[{':'.join(map(str, alpha))}] is not on the quadric")
    perp = orth_complement(form, alpha)
    w = witness.vectors()
    seeds = list(w)
    for a, b in itertools.product((w[0], w[1]), (w[2], w[3])):
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


def form_to_doc(form: QuadraticFormQ, witness: HyperbolicWitness) -> dict:
    names = ("u1", "v1", "u2", "v2")
    return {
        "dim": form.dim,
        "gram": [[str(a) for a in row] for row in form.gram],
        "witness": {name: [str(a) for a in v] for name, v in zip(names, witness.vectors())},
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
