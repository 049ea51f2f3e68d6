"""Exact projective geometry over Q.

Integer vectors are plain tuples of ints, rational vectors tuples of
Fraction.  Everything here is pure and deterministic; distances and
subspace comparisons are decided exactly on squared quantities, and
square roots / logarithms only ever appear as certified rational
intervals with directed rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import index
from typing import Iterable, Sequence

from .errors import GeometryError, InputError

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# vector helpers


def dot(x: Sequence, y: Sequence):
    if len(x) != len(y):
        raise GeometryError(f"dot: {len(x)} vs {len(y)}")
    return sum(a * b for a, b in zip(x, y))


def norm_sq(x: Sequence):
    return sum(a * a for a in x)


def vec_add(x: Sequence, y: Sequence) -> tuple:
    if len(x) != len(y):
        raise GeometryError(f"add: {len(x)} vs {len(y)}")
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(c, x: Sequence) -> tuple:
    return tuple(c * a for a in x)


def wedge_sq(x: Sequence, y: Sequence):
    """``|x ∧ y|^2`` via the Lagrange identity |x|^2 |y|^2 - (x.y)^2."""
    d = dot(x, y)
    return norm_sq(x) * norm_sq(y) - d * d


def centring_shift(x: Sequence[int], z: Sequence[int]) -> int:
    """r = floor((|x|^2 - 2 x.z) / (2 |x|^2)), x != 0: z + r x is the shortest z + b x over integers b.

    It spans the same line with the same wedge area, and b >= 1 from it
    runs along the side of the line where the norm grows.
    """
    n2x = norm_sq(x)
    return (n2x - 2 * dot(x, z)) // (2 * n2x)


# ---------------------------------------------------------------------------
# projective points: a point is the primitive IntVec of its class (primitive)


@dataclass(frozen=True)
class TracePoint:
    """A point of a family, with the preimage tuple certifying it for k-linear images (else None)."""

    point: IntVec
    witness: tuple[RatVec, ...] | None = None


def primitive(v: Sequence) -> IntVec:
    """Canonical representative of the projective class of ``v``.

    Accepts integer or rational coordinates; clears denominators, divides
    by the content and flips sign so the first nonzero coordinate is
    positive.  primitive(c*v) == primitive(v) for every nonzero rational c.
    """
    if len(v) == 0 or all(a == 0 for a in v):
        raise GeometryError("cannot projectivize the zero vector")
    ints = _clear_denominators(v)
    g = 0
    for a in ints:
        g = gcd(g, a)
    ints = [a // g for a in ints]
    for a in ints:
        if a != 0:
            if a < 0:
                ints = [-b for b in ints]
            break
    return tuple(ints)


def minors_gcd(x: Sequence[int], z: Sequence[int]) -> int:
    """G, the gcd of the 2x2 minors x_a z_c - x_c z_a of integer vectors; 0 iff x and z are parallel.

    The content of y = z + b*x divides G for every integer b: it divides
    every entry of y, hence every minor of (x, y), and the b terms cancel
    there, leaving the minors of (x, z).  So when G != 0 the content of y
    is gcd(G, y_0, ..., y_{n-1}).
    """
    return gcd(*(x[a] * z[c] - x[c] * z[a] for a, c in itertools.combinations(range(len(x)), 2)))


def _clear_denominators(v: Sequence) -> list[int]:
    """The integer row c*v, with c the least common denominator of v's entries.

    An all-integer v takes one pass: a Fraction fails operator.index.
    """
    try:
        return list(map(index, v))
    except TypeError:
        pass
    m = 1
    for a in v:
        d = a.denominator if isinstance(a, Fraction) else 1
        m = m * d // gcd(m, d)
    return [int(a * m) for a in v]


# ---------------------------------------------------------------------------
# rank


RANK_PRIME = (1 << 61) - 1


def rank(vectors: Iterable[Sequence]) -> int:
    """Exact rank over Q, certified modulo one word-size prime where it can be.

    The nonzero rows are scaled to integer rows M (clearing denominators
    changes no rank over Q), and r_p, the rank of M modulo
    p = RANK_PRIME, is found by elimination over Z/p.

    Certificate: rank_Q(M) <= min(rows, cols) always.  Elimination mod p
    leaves an r_p x r_p minor of M that is nonzero mod p; that integer
    minor is then nonzero, so rank_Q(M) >= r_p.  If r_p equals
    min(rows, cols), the two bounds meet and r_p is the rank.  Otherwise
    p may divide every larger minor, and the rank comes from exact
    fraction-free elimination over Z instead.
    """
    rows = [_clear_denominators(v) for v in vectors if any(a != 0 for a in v)]
    if not rows:
        return 0
    if any(len(r) != len(rows[0]) for r in rows):
        raise GeometryError("rank: inconsistent dimensions")
    return rank_from_residues(rows, [[a % RANK_PRIME for a in r] for r in rows])


def rank_from_residues(rows: Sequence[Sequence[int]], residues: Sequence[Sequence[int]]) -> int:
    """rank(rows) for nonzero integer rows of one length, given their residues mod RANK_PRIME.

    The certificate and the exact fallback are rank's; a caller ranking
    several sets of the same rows reduces each row once.  residues[i] must
    be rows[i] mod RANK_PRIME, so the two must have one length.
    """
    if len(residues) != len(rows):
        raise GeometryError("rank: residues do not match the rows")
    ncols = len(rows[0])
    bound = min(len(rows), ncols)
    if _rank_mod_p(residues, ncols, RANK_PRIME) == bound:
        return bound
    return _rank_exact([list(r) for r in rows], ncols)


def spans_from_residues(rows: Sequence[Sequence[int]], residues: Sequence[Sequence[int]]) -> bool:
    """rank(rows) == len(rows[0]), the rows spanning their ambient space (rank_from_residues).

    Fewer rows than columns cannot span, so no rank is taken for them.
    """
    if len(residues) != len(rows):
        raise GeometryError("rank: residues do not match the rows")
    ncols = len(rows[0])
    return len(rows) >= ncols and rank_from_residues(rows, residues) == ncols


def _rank_mod_p(rows: list[list[int]], ncols: int, p: int) -> int:
    """Rank of an integer matrix over Z/p, p prime."""
    red = [[a % p for a in r] for r in rows]
    rnk = 0
    for col in range(ncols):
        piv = next((i for i in range(rnk, len(red)) if red[i][col]), None)
        if piv is None:
            continue
        red[rnk], red[piv] = red[piv], red[rnk]
        prow = red[rnk]
        inv = pow(prow[col], -1, p)
        for i in range(rnk + 1, len(red)):
            c = red[i][col] * inv % p
            if c:
                red[i] = [(a - c * b) % p for a, b in zip(red[i], prow)]
        rnk += 1
        if rnk == len(red):
            break
    return rnk


def _rank_exact(rows: list[list[int]], ncols: int) -> int:
    """Exact rank over Q by fraction-free integer elimination; rows are overwritten."""
    rnk = 0
    col = 0
    while rnk < len(rows) and col < ncols:
        piv = None
        for i in range(rnk, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rnk], rows[piv] = rows[piv], rows[rnk]
        pv = rows[rnk][col]
        for i in range(rnk + 1, len(rows)):
            ai = rows[i][col]
            if ai == 0:
                continue
            g = gcd(pv, ai)
            rows[i] = [a * (pv // g) - b * (ai // g) for a, b in zip(rows[i], rows[rnk])]
            gg = 0
            for a in rows[i]:
                gg = gcd(gg, a)
            if gg > 1:
                rows[i] = [a // gg for a in rows[i]]
        rnk += 1
        col += 1
    return rnk


# ---------------------------------------------------------------------------
# rational subspaces with a canonical basis


@dataclass(frozen=True)
class ProjSubspaceQ:
    """Linear subspace of Q^n in canonical form.

    The basis is the reduced row echelon form over Q with every row
    scaled to a primitive integer vector with positive leading entry, so
    two equal subspaces are structurally equal.
    """

    basis: tuple[IntVec, ...]
    ambient_dim: int

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def functionals(self) -> tuple[IntVec, ...]:
        """orthogonal_functionals(self), computed on first use and kept."""
        return orthogonal_functionals(self)

    def contains(self, v: Sequence) -> bool:
        return in_span(v, self)


def subspace_span(vectors: Sequence[Sequence], ambient_dim: int | None = None) -> ProjSubspaceQ:
    """Span of the given vectors as a canonical ProjSubspaceQ.

    Fraction-free (Bareiss, Math. Comp. 22, 1968) Gauss-Jordan
    elimination on the integer rows c*v (``_clear_denominators``), each
    kept row primitive, with a positive leading entry (its pivot) and
    zeros at the other kept pivots.  A new row has the kept pivots
    cleared by ``_eliminate``; a nonzero rest is made primitive with a
    positive pivot and cleared from the kept rows, scaling each by a
    positive factor, which keeps its pivot positive.

    Ordered by pivot, the kept rows divided by their pivots form a reduced
    row echelon matrix of the span.  That matrix is unique, so each kept
    row is a positive multiple of the rational RREF's row, and being
    primitive it is that row's ``primitive``: the Fraction basis.
    """
    if ambient_dim is None:
        if not vectors:
            raise GeometryError("empty span needs an explicit ambient_dim")
        ambient_dim = len(vectors[0])
    rows: list[IntVec] = []
    pivots: list[int] = []
    for v in vectors:
        if not any(v):
            continue
        if len(v) != ambient_dim:
            raise GeometryError("subspace_span: inconsistent dimensions")
        r = _clear_denominators(v)
        for row, pc in zip(rows, pivots):
            if r[pc]:
                r = _eliminate(r, row, pc)
        pc = next((j for j, a in enumerate(r) if a), None)
        if pc is None:
            continue
        r = primitive(r)
        for i, row in enumerate(rows):
            if row[pc]:
                rows[i] = primitive(_eliminate(row, r, pc))
        rows.append(r)
        pivots.append(pc)
    order = sorted(range(len(rows)), key=pivots.__getitem__)
    return ProjSubspaceQ(tuple(rows[i] for i in order), ambient_dim)


def _eliminate(r: Sequence[int], row: Sequence[int], pc: int) -> list[int]:
    """(row[pc]*r - r[pc]*row) / gcd(row[pc], r[pc]): zero at pc, r's factor positive if row[pc] is."""
    g = gcd(row[pc], r[pc])
    a, b = row[pc] // g, r[pc] // g
    return [a * x - b * y for x, y in zip(r, row)]


def in_span(v: Sequence, s: ProjSubspaceQ) -> bool:
    """Exact membership of a vector in the span of a subspace.

    Certificate: the subspace's functionals (``orthogonal_functionals``)
    vanish on its basis and are linearly independent, and there are
    ambient_dim - rank of them, so they span the annihilator of the
    span.  A vector lies in the span iff every one of them pairs to zero
    with it.  A rational vector is scaled to an integer one first, so
    each test is an integer dot product.
    """
    if len(v) != s.ambient_dim:
        raise GeometryError("in_span: wrong ambient dimension")
    v = _clear_denominators(v)
    return all(dot(f, v) == 0 for f in s.functionals)


def orthogonal_functionals(s: ProjSubspaceQ) -> tuple[IntVec, ...]:
    """Primitive integer functionals vanishing exactly on the subspace.

    A vector lies in the span iff it pairs to zero with every returned
    functional; there are ambient_dim - rank of them.  Cheap membership
    tests against big vectors reduce to integer dot products.
    """
    pivots = [next(j for j, a in enumerate(row) if a != 0) for row in s.basis]
    pivot_set = set(pivots)
    # f_j = e_j - sum_rows (row_j / row_pc) e_pc, scaled by the lcm of the
    # (positive) pivot entries to an integer vector with the same primitive
    scale = lcm(*(row[pc] for row, pc in zip(s.basis, pivots)))
    funcs = []
    for j in range(s.ambient_dim):
        if j in pivot_set:
            continue
        f = [0] * s.ambient_dim
        f[j] = scale
        for row, pc in zip(s.basis, pivots):
            f[pc] = -row[j] * (scale // row[pc])
        funcs.append(primitive(f))
    return tuple(funcs)


# ---------------------------------------------------------------------------
# certified radicals and logarithms


def inth_root(x: int, n: int) -> int:
    """floor(x**(1/n)) for x >= 0, n >= 1, by Newton iteration."""
    if x < 0:
        raise GeometryError("integer root of a negative number")
    if n == 1 or x in (0, 1):
        return x
    if n == 2:
        return isqrt(x)
    r = 1 << (x.bit_length() // n + 1)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    return r


def dyadic_bounds(p: int, q: int, precision_bits: int, root: int = 1) -> tuple[Fraction, Fraction]:
    """Dyadic lo <= (p/q)^(1/root) <= hi with hi - lo <= 2^-precision_bits (p/q)^(1/root).

    For integers p >= 0, q >= 1 and root 1 or 2.  Working precision (the
    MPFI design: Revol and Rouillier, Reliable Computing 11, 2005): only
    the top t = root*b + 3 bits of p and q are read, b = precision_bits + 2,
    so no full-size product, gcd or root is taken.  Proof:

    - p = P 2^a and q = Q 2^c with a, c the bits dropped and
      p_lo <= P <= p_hi, q_lo <= Q <= q_hi for p_lo = p >> a,
      p_hi = p_lo + [a > 0], and likewise q.  When a > 0, p_lo >= 2^(t-1),
      so p_hi / p_lo <= 1 + 2^(1-t); likewise q.
    - d = root*b + 2 + bl(q_hi) - bl(p_lo) >= 0 (bl the bit length,
      bl(p_lo) <= t), raised by less than root so that e = (a - c - d)/root
      is an integer.  Then N = (p/q) 2^(-root e) = (P/Q) 2^d lies in
      [N_lo, N_hi] = [p_lo 2^d / q_hi, p_hi 2^d / q_lo], and
      N_lo > 2^(bl(p_lo) - 1 + d - bl(q_hi)) >= 2^(root*b + 1).
    - A = floor(N_lo) <= N <= B = ceil(N_hi), so lo = floor(A^(1/root)) 2^e
      and hi = ceil(B^(1/root)) 2^e bracket (p/q)^(1/root) = N^(1/root) 2^e.
    - N_hi / N_lo <= (1 + 2^(1-t))^2 <= 1 + 2^(3-t) = 1 + 2^(-root*b), so
      B - A < N_lo 2^(-root*b) + 2, and with A >= 2^(root*b + 1),
      (B - A) / A <= 2^(2 - root*b).
    - Relative to (p/q)^(1/root) >= A^(1/root) 2^e, the width is at most
      (B - A) / A <= 2^(2-b) for root 1, and for root 2 at most
      (sqrt B - sqrt A + 2) / sqrt A <= (B - A) / (2A) + 2 / sqrt A
      <= 2^(1-2b) + 2^(1/2-b) <= 2^(1-b).  Both are at most 2^-precision_bits.
    """
    if p < 0 or q < 1:
        raise GeometryError("dyadic bounds need p >= 0 and q >= 1")
    if root not in (1, 2):
        raise GeometryError("dyadic bounds take root 1 or 2")
    if p == 0:
        return (Fraction(0), Fraction(0))
    b = precision_bits + 2
    t = root * b + 3
    a, c = max(0, p.bit_length() - t), max(0, q.bit_length() - t)
    p_lo, q_lo = p >> a, q >> c
    p_hi, q_hi = p_lo + (a > 0), q_lo + (c > 0)
    d = root * b + 2 + q_hi.bit_length() - p_lo.bit_length()
    d += (a - c - d) % root
    e = (a - c - d) // root
    lo = inth_root((p_lo << d) // q_hi, root)
    hi = inth_root(-(-(p_hi << d) // q_lo) - 1, root) + 1
    if e >= 0:
        return (Fraction(lo << e), Fraction(hi << e))
    return (Fraction(lo, 1 << -e), Fraction(hi, 1 << -e))


def _atanh_series_scaled(t_scaled: int, scale_bits: int, terms: int, round_up: bool) -> int:
    """2^scale_bits * atanh(t) bounds for t = t_scaled / 2^scale_bits in [0, 1/2].

    Directed rounding: with round_up=False every intermediate floor gives a
    lower bound of the truncated series; with round_up=True every ceiling
    plus an explicit tail bound gives an upper bound of the full series.
    A ceiling is a floor of the numerator raised by the divisor less one:
    ceil(a / d) = floor((a + d - 1) / d) for d >= 1.
    """
    one = 1 << scale_bits
    if t_scaled == 0:
        return 0
    up = int(round_up)
    mul_pad = (one - 1) * up
    t2 = (t_scaled * t_scaled + mul_pad) >> scale_bits
    total = t_scaled
    power = t_scaled
    j = 1
    while j <= terms:
        power = (power * t2 + mul_pad) >> scale_bits
        if power == 0 and not round_up:
            break
        d = 2 * j + 1
        total += (power + (d - 1) * up) // d
        j += 1
    if round_up:
        # tail: sum_{i>terms} t^(2i+1)/(2i+1) <= t^(2J+3) / ((2J+3)(1-t^2))
        next_power = (power * t2 + mul_pad) >> scale_bits
        denom = (2 * j + 1) * (one - t2)
        if denom <= 0:
            raise GeometryError("atanh series needs t < 1")
        total += (next_power * one + denom - 1) // denom + 1
    return total


_LN2_CACHE: dict[tuple[int, bool], int] = {}


def _ln2_scaled(scale_bits: int, round_up: bool) -> int:
    """The lower (round_up=False) or upper bound of 2^scale_bits ln 2, as 2 atanh(1/3)."""
    key = (scale_bits, round_up)
    if key not in _LN2_CACHE:
        t = (1 << scale_bits) // 3 + round_up
        _LN2_CACHE[key] = 2 * _atanh_series_scaled(t, scale_bits, scale_bits // 3 + 3, round_up)
    return _LN2_CACHE[key]


def _ln_fixed(p: int, q: int, precision_bits: int, round_up: bool) -> tuple[int, int]:
    """(A, w) with A / 2^w the lower (round_up=False) or upper bound of ln(p/q), p, q >= 1.

    p/q < 1 takes the other end of ln(q/p), negated; p = q gives (0, 0).
    Otherwise p/q = 2^e m with m in [1, 2), w = precision_bits + 32 +
    bl(e), bl the bit length, and ln(p/q) = e ln 2 + 2 atanh(t) with
    t = (m - 1)/(m + 1) = tn / td, tn = p - q 2^e, td = p + q 2^e.  The
    series runs on t_s = floor(2^w tn / td) (lower) or t_s + 1 (upper),
    with w // 3 + 3 terms and every rounding directed outward.

    The ends are at most 2^-precision_bits apart, and each is, bit for bit,
    the end of ``ln_bounds_two_series`` (tests/kernel_oracles.py), which
    sums both series in Fraction ends: e, w, the term count and t_s depend
    on p/q only (scaling p and q scales tn and td); ln 2 is cached per
    (w, end), so the sum is made over the one denominator 2^w that the
    Fraction sum reduced; the oracle swapped and negated the ends of ln(q/p)
    for p/q < 1; and a ceiling is the floor of the padded numerator
    (_atanh_series_scaled), the same integer.
    """
    if p < 1 or q < 1:
        raise GeometryError("log of a non-positive rational")
    if p < q:
        a, w = _ln_fixed(q, p, precision_bits, not round_up)
        return -a, w
    if p == q:
        return 0, 0
    e = p.bit_length() - q.bit_length()
    if (q << e) > p:
        e -= 1
    w = precision_bits + 32 + e.bit_length()
    tn = p - (q << e)
    a = 0
    if tn:
        t_scaled = (tn << w) // (p + (q << e)) + round_up
        a = 2 * _atanh_series_scaled(t_scaled, w, w // 3 + 3, round_up)
    if e:
        a += e * _ln2_scaled(w, round_up)
    return a, w


def ln_lo_fixed(p: int, q: int, precision_bits: int = 64) -> tuple[int, int]:
    """(A, w) with A / 2^w <= ln(p/q), the lower end of _ln_fixed."""
    return _ln_fixed(p, q, precision_bits, False)


def ln_hi_fixed(p: int, q: int, precision_bits: int = 64) -> tuple[int, int]:
    """(A, w) with A / 2^w >= ln(p/q), the upper end of _ln_fixed."""
    return _ln_fixed(p, q, precision_bits, True)


def dec_str(x, digits: int = 12) -> str:
    """Decimal rendering of a rational at the given precision (truncated)."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = (x.numerator * 10 ** digits) // x.denominator
    ip, fp = divmod(scaled, 10 ** digits)
    return f"{sign}{ip}.{str(fp).zfill(digits)}"


def dyadic_str(x) -> str:
    """Exact rendering of a dyadic rational m 2^e as 0x<hex m>p<signed decimal e>, m odd.

    Zero is 0x0p+0.  The length follows the mantissa, not the exponent: a
    value near 2^-46000 stays a few dozen characters, where 0x<num>/0x<den>
    would take 11,500.  Hex converts in linear time where decimal takes
    quadratic time (Brent and Zimmermann, Modern Computer Arithmetic, 2010,
    section 1.7).  int(m, 0) * 2**e reads it exactly, and float.fromhex
    approximately within the float range.
    """
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    if q & (q - 1):
        raise GeometryError(f"{x} is not a dyadic rational")
    e = 1 - q.bit_length()
    if p and q == 1:
        e = (p & -p).bit_length() - 1
        p >>= e
    return f"{p:#x}p{e:+d}"


def _pow10_bounds(n: int, k: int) -> tuple[int, int, int]:
    """(lo, hi, t) with lo 2^t <= 10^n <= hi 2^t, by square-and-multiply cut to k bits.

    After each step the sh bits below hi's top k are cut: lo rounds down
    and hi up, so the bracket holds.  A power that fits in k bits is never
    cut, so lo = hi = 10^n once 10^n has at most k bits.
    """
    lo = hi = 1
    t = 0
    for bit in bin(n)[2:]:
        lo, hi, t = lo * lo, hi * hi, 2 * t
        if bit == "1":
            lo, hi = 10 * lo, 10 * hi
        sh = max(0, hi.bit_length() - k)
        lo, hi, t = lo >> sh, -(-hi >> sh), t + sh
    return lo, hi, t


def sci_str(x, digits: int = 12) -> str:
    """d.ddd...e±N with ``digits`` significant digits truncated toward zero; "0" for zero.

    With m the digits read as one integer,
    m * 10^(N-digits+1) <= |x| < (m+1) * 10^(N-digits+1) and
    10^(digits-1) <= m < 10^digits.  Bit lengths give |x| > 2^e, so
    L = floor(e * c) <= N for c = 0.3010299956 (0.3010299957 when e < 0)
    on the right side of log10(2); |x| < 2^(e+2) keeps N - L <= 1 for
    |e| < 10^9.  So
    M = floor(|x| * 10^s), s = digits-1-L, has at least ``digits`` digits,
    and dropping its extra low digits gives m, since
    floor(floor(y) / 10^k) = floor(y / 10^k).

    M is read from top bits: with lo 2^t <= 10^|s| <= hi 2^t
    (_pow10_bounds, K bits, K = 128 first), M lies between
    floor(p lo 2^t / q) and floor(p hi 2^t / q) for |x| = p/q and s >= 0,
    and between floor(p / (q hi 2^t)) and floor(p / (q lo 2^t)) for
    s < 0.  When the two ends agree they are M.  Otherwise K doubles,
    and once 10^|s| fits in K bits the ends are the exact formula.
    """
    x = Fraction(x)
    if x == 0:
        return "0"
    p, q = abs(x.numerator), x.denominator
    e = p.bit_length() - q.bit_length() - 1
    low = e * (3010299956 if e >= 0 else 3010299957) // 10 ** 10
    s = digits - 1 - low
    k = 128
    while True:
        lo, hi, t = _pow10_bounds(abs(s), k)
        if s >= 0:
            m, m_hi = (p * lo << t) // q, (p * hi << t) // q
        else:
            m, m_hi = p // (q * hi << t), p // (q * lo << t)
        if m == m_hi:
            break
        k *= 2
    extra = len(str(m)) - digits
    mantissa = str(m // 10 ** extra)
    sign = "-" if x < 0 else ""
    return f"{sign}{mantissa[0]}.{mantissa[1:]}e{low + extra:+d}"


def int_from_doc(value, field: str) -> int:
    """An integer from JSON: an int, a 0x hex string or a decimal string.

    Anything else, a "1/2" or a bool included, raises an InputError naming
    ``field``.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value, 16) if value.lstrip("+-")[:2].lower() == "0x" else int(value)
        except ValueError:
            pass
    raise InputError(f"{field}: {value!r:.40} is not an integer")
