"""Recursive construction of approximation sequences with a full audit trail.

Each step takes a line through the current point inside the obstruction
subspace, then searches for a multiplier b >= 1 such that
x_next = primitive(z + b*x) grows in norm, telescopes the previous
projective distance by 1/3, and lands under the decay target.  The first
b the scan/hint/doubling/bisection search accepts passes the full exact
test; a smaller sporadic b may be skipped.  Every inequality is decided
in exact rational arithmetic.  The trace records the points, the line
generators, the multipliers and the family certificates; the verifier
re-derives every other value from them.

The builder knows no family: it calls the adapter's ``start`` and
``member`` for the start point and, per step, ``line_step``, which returns
z centred on x, the certificate document the trace stores as it is, and
``witness_at``, the next point's witness at the accepted b; the auditor
calls ``check_certificate`` (families.py).  Points are integer tuples.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, isqrt

from . import multilinear as ml
from .errors import GeometryError, InputError, SearchExhausted, reading
from .exact_geometry import (
    IntVec,
    ProjSubspaceQ,
    TracePoint,
    dot,
    int_from_doc,
    inth_root,
    ln_hi_fixed,
    ln_lo_fixed,
    minors_gcd,
    norm_sq,
    # not called here, but bench/tests/test_bench.py::
    # test_tracing_records_nested_spans_and_restores_functions reads builder.primitive
    primitive,  # noqa: F401
    rank,
    spans_from_residues,
    subspace_span,
    vec_add,
    vec_scale,
)
from .families import KLinearAdapter, QuadricAdapter, SearchBudget, adapter_from_descriptor


# ---------------------------------------------------------------------------
# decay targets


def _product_gt(lhs, rhs) -> bool:
    """prod(f^e for f, e in lhs) > prod(f^e for f, e in rhs), for ints f >= 0, e >= 1.

    Decided from top bits where they suffice, else exactly (proof in
    _select_multiplier).
    """
    if not all(f for f, _ in lhs):
        return False
    if not all(f for f, _ in rhs):
        return True
    k = 64
    while True:
        (l_lo, l_hi, l_s), (r_lo, r_hi, r_s) = _top_bounds(lhs, k), _top_bounds(rhs, k)
        m = min(l_s, r_s)
        l_lo, l_hi, r_lo, r_hi = l_lo << (l_s - m), l_hi << (l_s - m), r_lo << (r_s - m), r_hi << (r_s - m)
        if l_lo > r_hi:
            return True
        if l_hi <= r_lo:
            return False
        k *= 2


def _top_bounds(side, k: int) -> tuple[int, int, int]:
    """(lo, hi, s) with lo 2^s <= prod(f^e for f, e in side) <= hi 2^s, from each f's top k bits."""
    lo, s, cut = 1, 0, 0
    for f, e in side:
        sh = max(0, f.bit_length() - k)
        lo *= (f >> sh) ** e
        s += e * sh
        cut += e if sh else 0
    return lo, (lo + ((lo * cut) >> (k - 2)) + 1 if cut else lo), s


# The largest precision a decay target or an audit may ask for: every root and
# logarithm is taken at about this many bits.  Built-in runs use 64 and tests
# at most 96.
MAX_PRECISION_BITS = 4096


class ApproxFn:
    """Monotonically decreasing decay target on [1, oo) with values in (0, 1].

    Two variants: ``log3x`` is min(1, log(3X)/X); ``pow`` is X^(-p/q) with
    exponent p/q in (0, 1).  ``le_phi_sq`` decides u/v <= phi(X)^2 at a
    certified lower (or upper) end of phi, and ``phi_hi`` gives a certified
    upper bound at integer scales, within 2^-(precision_bits + 2) of phi.
    The power law decides comparisons against phi^2 exactly by
    cross-multiplied integer powers, with no rounding at all.  Two decay
    targets are equal when their descriptors are.
    """

    def __init__(self, variant: str, exponent: Fraction | None = None, precision_bits: int = 64):
        if variant not in ("log3x", "pow"):
            raise InputError(f"unknown decay variant {variant!r}")
        if variant == "pow":
            if exponent is None or not 0 < exponent < 1:
                raise InputError("power-law exponent must lie strictly between 0 and 1")
        elif exponent is not None:
            raise InputError("log3x takes no exponent")
        if not 0 <= precision_bits <= MAX_PRECISION_BITS:
            raise InputError(f"precision_bits {precision_bits} is outside 0..{MAX_PRECISION_BITS}")
        self.variant, self.exponent, self.precision_bits = variant, exponent, precision_bits

    def __eq__(self, other):
        return isinstance(other, ApproxFn) and self.descriptor() == other.descriptor()

    def __repr__(self):
        return f"ApproxFn({self.variant!r}, {self.exponent!r}, {self.precision_bits!r})"

    def descriptor(self) -> dict:
        d = {"variant": self.variant, "precision_bits": self.precision_bits}
        if self.variant == "pow":
            d["exponent"] = str(self.exponent)
        return d

    @staticmethod
    def from_descriptor(d: dict) -> "ApproxFn":
        exponent = Fraction(d["exponent"]) if d.get("exponent") is not None else None
        return ApproxFn(d["variant"], exponent, int_from_doc(d.get("precision_bits", 64), "precision_bits"))

    def phi_hi(self, x: int) -> Fraction:
        """A certified upper bound of phi(X) at the integer X >= 1.

        Under ``pow`` it is 2^b / m, b = precision_bits + 2 and
        m = floor(2^b X^(p/q)) >= 2^b (exact when X^p is a q-th power), so
        0 <= 2^b/m - X^(-p/q) < 2^b/m - 2^b/(m + 1) <= 2^-b.
        """
        if x < 1:
            raise GeometryError("decay target is only defined for X >= 1")
        if self.variant == "log3x":
            return Fraction(*self._log3x_phi(x, 1, True))
        p, q = self.exponent.numerator, self.exponent.denominator
        b = self.precision_bits + 2
        return Fraction(1 << b, inth_root(x ** p << (q * b), q))

    def _log3x_phi(self, p: int, q: int, upper: bool) -> tuple[int, int]:
        """(num, den) with num/den = min(1, L/X) at X = p/q >= 1, unreduced.

        L/2^w is ln_lo_fixed (ln_hi_fixed) of 3X at precision_bits + 2, so
        L/X = L q / (p 2^w), and the clamp is one integer comparison.
        """
        a, w = (ln_hi_fixed if upper else ln_lo_fixed)(3 * p, q, self.precision_bits + 2)
        num, den = a * q, p << w
        return (1, 1) if num >= den else (num, den)

    def le_phi_sq(self, u: int, v: int, norm_sq: int, upper: bool = False) -> bool:
        """u/v <= phi(X)^2, v > 0, X = sqrt(norm_sq), at the lower (upper) end of phi, in integers.

        The power law decides exactly at either end: u^q norm_sq^p <= v^q.
        Under log3x, X = max(m / 2^b, 1) with b = precision_bits and
        m = isqrt(norm_sq 4^b), the lower bound of the norm (exact for
        perfect squares), and phi = num/den from _log3x_phi, so the test is
        u den^2 <= v num^2, with no Fraction and no gcd.
        """
        if u < 0:
            return True
        if self.variant == "pow":
            p, q = self.exponent.numerator, self.exponent.denominator
            return not _product_gt(((u, q), (norm_sq, p)), ((v, q),))
        b = self.precision_bits
        m = max(isqrt(norm_sq << (2 * b)), 1 << b)
        num, den = self._log3x_phi(m, 1 << b, upper)
        return u * den * den <= v * num * num


# ---------------------------------------------------------------------------
# trace data


# a step: the line's second generator z (an IntVec) with its witness, the
# multiplier b and the family's certificate document
StepData = namedtuple("StepData", "z z_witness b certificate")
# a point x with its witness, and the step leaving it (None at the last point)
TraceEntry = namedtuple("TraceEntry", "x witness step")


class SequenceTrace:
    def __init__(self, family: QuadricAdapter | KLinearAdapter, phi: ApproxFn, seed: int,
                 entries: list[TraceEntry] | None = None, partial: bool = False,
                 budget_note: str | None = None):
        self.family, self.phi, self.seed = family, phi, seed
        self.entries = [] if entries is None else entries
        self.partial, self.budget_note = partial, budget_note

    def points(self) -> list[IntVec]:
        return [e.x for e in self.entries]


# ---------------------------------------------------------------------------
# construction steps


def compute_hi(points: Sequence[IntVec], ambient_dim: int,
               residues: Sequence[Sequence[int]] | None = None) -> ProjSubspaceQ:
    """Largest proper subspace spanned by a suffix of the points.

    Returns H, the span of points[j-1:] for the smallest 1-based index j
    making that span proper.  Always defined for ambient
    dimension >= 2 since a single point spans one dimension.  Suffix
    ranks are nonincreasing in j, so the smallest proper suffix is found
    by binary search over integer rank computations.

    ``residues``, when given, holds points[i] mod RANK_PRIME at index
    i, one entry per point; the audit, which takes H for every prefix of
    a trace, passes the prefix's slice of the residues it reduced once.
    Then a suffix is proper iff it does not span (spans_from_residues,
    which raises GeometryError when the lengths differ), and one of fewer
    than ambient_dim rows is proper without a rank.  Without them, as in
    gen, each probe is one rank call.
    """
    n = len(points)

    def proper(j: int) -> bool:
        if residues is None:
            return rank(points[j - 1:]) < ambient_dim
        return not spans_from_residues(points[j - 1:], residues[j - 1:])

    if ambient_dim < 2:
        raise GeometryError("ambient dimension must be at least 2")
    if proper(1):
        j = 1
    else:
        lo, hi = 1, n  # proper(lo) is False, proper(hi) is True (single point)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if proper(mid):
                hi = mid
            else:
                lo = mid
        j = hi
    return subspace_span(points[j - 1:], ambient_dim)


def _ceil_root(a: int, b: int, r: int) -> int:
    """ceil((a/b)^(1/r)) for a, b > 0."""
    m = inth_root(a // b, r)
    while m ** r * b < a:
        m += 1
    return m


def _log3x_stop_forced(n2x: int, n2z: int, w2: int, g: int, b_max: int, prec: int) -> bool:
    """Covolume certificate: no b in 1..b_max passes the log3x decay test.

    With x, z the line's generators (n2x = |x|^2, n2z = |z|^2,
    w2 = |x ^ z|^2), G = g the gcd of the 2x2 minors of (x, z), and L the
    upper end of ln(3 (ceil|z| + b_max ceil|x|)) (ln_hi_fixed), the stop
    is forced when 9 w2 > 4 G^2 L^2 (1 + 2^-prec)^2.  Proof, for
    y = z + b x with 1 <= b <= b_max, p = primitive(y), n2y = |y|^2,
    n2p = |p|^2 and m = max(norm_lo, 1), norm_lo = floor(2^prec |p|) / 2^prec
    the lower bound of |p| that ApproxFn.le_phi_sq takes:

    - the content c of y divides y's entries, hence every 2x2 minor of
      (x, y), and those equal the minors of (x, z); so c | G and
      n2y = c^2 n2p <= G^2 n2p;
    - ``attempt`` accepts b only if 9 w2 <= 4 n2y phi_lo(m)^2;
    - phi_lo(m) <= ln(3m)/m, and n2p/m^2 <= (1 + 2^-prec)^2: with
      s = sqrt(n2p) >= 1 and k = prec, floor(2^k s) >= 2^k, so
      2^k s < floor(2^k s) + 1 <= floor(2^k s) (1 + 2^-k);
    - 1 <= m <= |p| <= |y| <= ceil|z| + b_max ceil|x|, so 0 <= ln(3m) <= L.

    Together, acceptance needs 9 w2 <= 4 G^2 L^2 (1 + 2^-prec)^2.
    """
    norm_hi = _ceil_root(n2z, 1, 2) + b_max * _ceil_root(n2x, 1, 2)
    a, w = ln_hi_fixed(3 * norm_hi, 1, prec)  # L = a / 2^w
    return (9 * w2) << (2 * (w + prec)) > 4 * (g * a * ((1 << prec) + 1)) ** 2


def _log3x_stop_bits(n2x: int, n2z: int, w2: int, g: int, cap: int, prec: int) -> tuple[int, int]:
    """(N, M) for a forced log3x stop: the bits of norm needed against the cap.

    The decay condition (3/2) |x| dist(x_next, x) <= phi(|x_next|) with
    phi(X) <= ln(3X)/X reads (3/2) |x ^ x_next| <= ln(3 |x_next|), and
    |x ^ x_next| >= sqrt(w2)/G, so log2 |x_next| >= N, the floor of
    ((3/2) sqrt(w2)/G - ln 3)/ln 2 taken from certified bounds.  Every
    |x_next| within the cap is below 2^M, M the bit length of
    ceil|z| + 2^cap ceil|x|.
    """
    ln3_hi, ln2_hi = (Fraction(a, 1 << w) for a, w in (ln_hi_fixed(3, 1, prec), ln_hi_fixed(2, 1, prec)))
    need = (Fraction(3, 2) * Fraction(isqrt(w2 << (2 * prec)), 1 << prec) / g - ln3_hi) / ln2_hi
    norm_cap = _ceil_root(n2z, 1, 2) + (1 << cap) * _ceil_root(n2x, 1, 2)
    return need.numerator // need.denominator, norm_cap.bit_length()


def _no_multiplier(cap: int, w2: int, needed_bits: int | None = None,
                   cap_bits: int | None = None) -> SearchExhausted:
    """The stop of a multiplier search that found no b up to 2^cap; the bits are SearchExhausted's."""
    return SearchExhausted(
        f"no multiplier up to 2^{cap} satisfies the step conditions "
        f"(squared wedge area {w2} forces norm growth beyond the cap)", needed_bits, cap_bits)


def _hint_floor(dzx: int, disc: int, n2x: int) -> int:
    """floor((-dzx + sqrt(disc)) / n2x) for disc >= 0 and n2x >= 1, from the top bits of disc.

    -dzx and n2x are integers, so flooring sqrt(disc) first changes no
    floor: the value is (-dzx + isqrt(disc)) // n2x, which is taken as it
    stands when n2x has at most 64 bits.  Otherwise let
    sh = bl(n2x) - 64 >= 1, bl the bit length, and r = isqrt(disc >> 2sh).
    Then r^2 <= disc >> 2sh < (r + 1)^2, so (r 2^sh)^2 <= disc
    < ((r + 1) 2^sh)^2, and sqrt(disc) lies in [r 2^sh, (r + 1) 2^sh).
    With b = (-dzx + r 2^sh) // n2x, the quotient (-dzx + sqrt(disc)) / n2x
    lies in [b, b + 1 + 2^sh / n2x), and n2x >= 2^(sh + 63) makes
    2^sh / n2x < 1: its floor is b or b + 1.  It is b + 1 iff
    sqrt(disc) >= t = (b + 1) n2x + dzx.  As b is a floor,
    t > r 2^sh >= 0, so that holds iff t^2 <= disc.
    """
    sh = n2x.bit_length() - 64
    if sh <= 0:
        return (-dzx + isqrt(disc)) // n2x
    b = (-dzx + (isqrt(disc >> (2 * sh)) << sh)) // n2x
    t = (b + 1) * n2x + dzx
    return b + 1 if t * t <= disc else b


def _pow_hint_term(lhs: int, w9: int, n2x: int, v: int, p: int, q: int) -> int:
    """floor(n2x theta / v) for theta = ceil(((w9 v^2)^q / 4^q)^(1/(q-p))), lhs = w9^q v^(q+p).

    As 2q = (q + p) + (q - p), (w9 v^2)^q = lhs v^(q-p).  When q - p = 1,
    theta = ceil(A / B) with A = lhs v and B = 4^q, that is (A + s) / B
    with s = (-A) mod B, taken from residues mod B.  So n2x theta / v =
    (n2x lhs + n2x s / v) / B, and as n2x lhs is an integer the floor is
    (n2x lhs + floor(n2x s / v)) // B: nothing full-size is divided by v.
    """
    bq = 4 ** q
    if q - p == 1:
        s = -(pow(w9, q, bq) * pow(v, 2 * q, bq)) % bq
        return (n2x * lhs + n2x * s // v) // bq
    return n2x * _ceil_root(lhs * v ** (q - p), bq, q - p) // v


def _hint_root(n2x: int, dzx: int, n2z: int, w2: int, v: int,
               tel: tuple[int, int] | None = None, decay: tuple[int, int, int] | None = None) -> int | None:
    """The multiplier hint floor((-d + sqrt(X)) / U), or None when X <= d^2; see _select_multiplier.

    In moving coordinates U = n2x, d = dzx, E = n2z, w2 = U E - d^2 and
    V = v.  theta is the largest of the lower bounds on the full-size
    |y ⊗ k|^2 = V |z + b x|^2 that hold where y = z + b x is primitive:
    V U + 1 (growth); with decay = (lhs, p, q), lhs = (9 w2)^q V^(q+p),
    ceil(((9 V^2 w2)^q / 4^q)^(1/(q-p))) (the power law); with
    tel = (tel_l, tel_r), floor(rho) + 1 with rho = V tel_l / tel_r, the
    full-size 9 V^2 w2 p_den / (p_num U V) (telescoping).  U b^2 + 2 d b
    + E >= theta / V solves to b >= (-d + sqrt(X)) / U with
    X = d^2 - U E + U theta / V, which is the full-size formula
    (-V d + sqrt(V^2 X)) / (U V).

    - One floor.  -d and U are integers, so the floor is that of
      (-d + isqrt(floor(X))) / U, and floor(X) = t - w2 with
      t = floor(U theta / V), the largest of the bounds' own
      floor(U theta_i / V): U^2 + U // V for growth, _pow_hint_term for
      the power law and U (floor(rho) + 1) // V for telescoping.
      _hint_floor takes it from there.
    - The test.  X > d^2 iff theta > V E, which holds iff one bound
      exceeds V E: V U + 1 > V E iff U >= E; the power law's iff
      lhs > 4^q E^(q-p), as ceil(r) > n iff r > n for an integer n, and
      (9 V^2 w2)^q > 4^q (V E)^(q-p) divided by V^(q-p); telescoping's iff
      floor(rho) >= V E, that is tel_l >= E tel_r.
    - A skipped division.  floor(rho) + 1 <= 2^l with l = bl(V) +
      bl(tel_l) - bl(tel_r) + 1, bl the bit length, and the other bounds
      give theta >= V t / U >= 2^(bl(V) + bl(t) - bl(U) - 2).  So when
      bl(U) + bl(tel_l) - bl(tel_r) + 3 <= bl(t), telescoping changes
      neither theta nor the test, and rho is not divided out.
    """
    t, big = n2x * n2x + n2x // v, n2x >= n2z
    if decay is not None:
        lhs, p, q = decay
        t = max(t, _pow_hint_term(lhs, 9 * w2, n2x, v, p, q))
        big = big or _product_gt(((lhs, 1),), ((4 ** q, 1), (n2z, q - p)))
    if tel is not None:
        tel_l, tel_r = tel
        if n2x.bit_length() + tel_l.bit_length() - tel_r.bit_length() + 3 > t.bit_length():
            t = max(t, n2x * ((v * tel_l) // tel_r + 1) // v)
            big = big or tel_l >= n2z * tel_r
    return _hint_floor(dzx, t - w2, n2x) if big else None


def _line_gcd(x: Sequence[int], z: Sequence[int]) -> int:
    """minors_gcd(x, z); for 2-vectors, a Segre line's moving coordinates, the one minor |det(x, z)|."""
    return abs(x[0] * z[1] - x[1] * z[0]) if len(x) == 2 else minors_gcd(x, z)


def _select_multiplier(
    x: IntVec,
    z: IntVec,
    phi: ApproxFn,
    dsq_prev: tuple[int, int] | None,
    budget: SearchBudget,
    kept_sq: int = 1,
) -> tuple[int, IntVec, tuple[int, int]]:
    """A multiplier b >= 1 meeting the step conditions, found by search.

    One search for every family, on a line's moving coordinates
    (families.MovingLine): the point is x ⊗ k and the line's second
    generator z ⊗ k, with kept_sq = V = |k|^2.  On a plain line x and z
    are the points themselves and V = 1.  On split4 they are the moving
    Segre factors, 2-vectors, and every full-size quantity is V or V^2
    times one of the moving factor's size: with U = |x|^2, d = x.z and
    E = |z|^2, |x ⊗ k|^2 = U V, (x ⊗ k).(z ⊗ k) = d V, |z ⊗ k|^2 = E V and
    |(x ⊗ k) ^ (z ⊗ k)|^2 = V^2 (U E - d^2), and for y = z + b x the point
    (z + b x) ⊗ k = y ⊗ k has |y ⊗ k|^2 = V |y|^2 and the content of y,
    k being primitive (Gauss's lemma).

    Returns (b, p, (w2, n2x n2y)) with p = y / c, c the content of y, and
    w2 = U E - d^2, n2x = U and n2y = |y|^2 in moving coordinates.  p is
    primitive(y) up to sign, which the line's lift fixes; on a plain line
    it is primitive(y) itself (below).  The pair is the squared distance
    dist(x_next, x)^2 = V^2 w2 / (U V V n2y) = w2 / (n2x n2y), unreduced,
    V^2 cancelling; dsq_prev is the previous step's in the same form, any
    representation of the same ratio.  The search scans the region where
    |z + b*x| may still shrink, then 64 values from an analytic hint
    (_hint_root), then doubles up to the 2^multiplier_bits cap and
    bisects.  The conditions are monotone in b on the growing branch
    except at sporadic content jumps of the primitive representative, so
    the first b this search accepts passes the full exact test but a
    smaller sporadic b may be skipped.

    A probe decides b on integers, in moving coordinates; y / c is
    computed for the accepted b only, and no distance is reduced.

    - Content through G.  With G = minors_gcd(x, z), the gcd of the 2x2
      minors of (x, z), the content c of y divides G (proof there), so
      c = gcd(G, y_0, ..., y_{n-1}), and |primitive(y)|^2 = n2y / c^2
      with n2y = |y|^2 in closed form.  For 2-vectors G = |det(x, z)|,
      the one minor (_line_gcd).  On split4 it is also the full-size G:
      those minors are det(x, z) times products of two entries of k, and
      k_0^2, k_0 k_1 and k_1^2 have gcd 1.
    - One distance.  For the same reason |y ^ x| = |z ^ x|, and the
      content cancels: dist(x_next, x)^2 = w2 / (n2x n2y).
    - The tests, with V cancelled.  Telescoping, 9 V^2 w2 p_den <=
      p_num (U V)(V n2y), is 9 w2 p_den <= p_num U n2y; growth,
      V n2y / c^2 > U V, is n2y / c^2 > U.  The power-law decay test
      (9 V^2 w2)^q (V n2y / c^2)^p <= (4 V n2y)^q, times
      c^2p / (V^q n2y^p), is (9 w2)^q V^(q+p) <= 4^q n2y^(q-p) c^2p: its
      left side is one integer for every b, and the right side n2y
      times small factors when q - p = 1, so no probe multiplies two
      full-size numbers.  Under log3x the decay test reads the full-size ratio and
      norm, V times the moving ones.
    - No second gcd.  ``accept`` divides y by the c that ``attempt``
      found, which is y's content.  On a plain line the first nonzero
      entries of x and z are positive and b >= 1, so the first nonzero
      entry of y is too, and y / c is primitive(y).
    - Top bits (_product_gt, _top_bounds).  A zero factor makes its side
      0, so the left is not larger, or larger than a zero right.  Else,
      for an f >= 1 of bit length l, with s = max(0, l - K) and t = f >> s,
      t 2^s <= f <= (t + [s > 0]) 2^s.  A cut factor (s > 0) has
      t >= 2^(K-1), so (t + 1) / t <= 1 + 2^(1-K).  With lo the product of
      the t^e and c the sum of the e of cut factors, a side lies in
      [lo 2^S, lo (1 + 2^(1-K))^c 2^S], and (1 + x)^c <= e^(cx)
      <= 1 + 2cx for cx <= 1/2, so hi = lo + floor(c lo / 2^(K-2)) + 1
      bounds it above with one product per side.  The left is larger if
      its lower bound exceeds the right's upper bound, and not larger if
      its upper bound is at most the right's lower bound.  K starts at 64
      and doubles; once it reaches every factor's bit length, nothing is
      cut, hi = lo is the product itself, and one of the two tests holds:
      the comparison is made exactly, multiplied out only then.

    Raises SearchExhausted when no probed b passes.  Under log3x from the
    second step on, the covolume certificate (_log3x_stop_forced) is
    checked on the full-size values before any probe: when it holds, no b
    the search could probe passes, and the same exception is raised at
    once, carrying the bits of norm needed against the cap.
    """
    v = kept_sq
    n2x = norm_sq(x)
    dzx = dot(z, x)
    n2z = norm_sq(z)
    w2 = n2x * n2z - dzx * dzx
    w9 = 9 * w2
    g = _line_gcd(x, z)
    prec = phi.precision_bits
    tel = decay = None
    if dsq_prev is not None:  # telescoping: 9 w2 p_den <= p_num n2x n2y, dsq_prev = p_num/p_den
        tel_l, tel_r = w9 * dsq_prev[1], dsq_prev[0] * n2x
        tel = tel_l, tel_r
        if phi.variant == "pow":  # (9 w2)^q V^(q+p), the decay test's left side for every b
            pp, qq = phi.exponent.numerator, phi.exponent.denominator
            pow_lhs = w9 ** qq * v ** (qq + pp)
            decay = pow_lhs, pp, qq

    def attempt(b: int):
        # (b, y, n2y, c) when b passes, else None
        n2y = n2z + 2 * b * dzx + b * b * n2x
        if tel is not None and _product_gt(((tel_l, 1),), ((tel_r, 1), (n2y, 1))):
            return None
        y = vec_add(z, vec_scale(b, x))
        if not any(y):
            return None
        c = gcd(g, *y)
        n2p = n2y // (c * c)
        if n2p <= n2x:
            return None
        if decay is not None:
            if _product_gt(((pow_lhs, 1),), ((4 ** qq, 1), (n2y, qq - pp), (c, 2 * pp))):
                return None
        elif tel is not None and not phi.le_phi_sq(w9 * v, 4 * n2y, n2p * v):
            return None
        return b, y, n2y, c

    def accept(r):
        b, y, n2y, c = r
        return b, tuple(a // c for a in y), (w2, n2x * n2y)

    # the region where |z + b*x| may still be shrinking is scanned in full
    vertex_end = 0 if dzx >= 0 else (-dzx) // n2x + 1
    scan_end = min(vertex_end, 4096) + 8

    root = _hint_root(n2x, dzx, n2z, w2, v, tel, decay)
    b_hint = scan_end + 1 if root is None else max(scan_end + 1, root)

    if phi.variant == "log3x" and dsq_prev is not None:
        # every b probed below is at most b_max; the certificate reads full-size values
        b_max = max(scan_end, b_hint + 63, 1 << budget.multiplier_bits)
        full = (n2x * v, n2z * v, w2 * v * v, g)
        if _log3x_stop_forced(*full, b_max, prec):
            raise _no_multiplier(budget.multiplier_bits, w2 * v * v,
                                 *_log3x_stop_bits(*full, budget.multiplier_bits, prec))

    for b in itertools.chain(range(1, scan_end + 1), range(b_hint, b_hint + 64)):
        r = attempt(b)
        if r is not None:
            return accept(r)

    # doubling then bisection on the monotone branch
    lo = b_hint + 63
    b = max(2 * lo, 2)
    while b.bit_length() <= budget.multiplier_bits:
        best = attempt(b)
        if best is not None:
            hi = b
            break
        lo = b
        b *= 2
    else:
        raise _no_multiplier(budget.multiplier_bits, w2 * v * v)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        r = attempt(mid)
        if r is not None:
            hi, best = mid, r
        else:
            lo = mid
    return accept(best)


def next_point(
    points: list[IntVec],
    witnesses: list,
    adapter,
    phi: ApproxFn,
    dsq_prev: tuple[int, int] | None,
    budget: SearchBudget,
    rng: random.Random | None,
    factors=None,
) -> tuple[TracePoint, StepData, tuple[int, int], object]:
    """Extend the sequence by one audited step.

    Returns the next point, the step record, the step's squared distance
    as an unreduced pair (see _select_multiplier) and the next point's
    factors.  ``factors`` are the last point's: the line step and the
    multiplier search run on the moving coordinates of the line that
    line_step returns (families.MovingLine), and its lift builds the next
    point.
    """
    x = points[-1]
    h = compute_hi(points, adapter.ambient_dim)
    z_tp, cert, witness_at, line = adapter.line_step(TracePoint(x, witnesses[-1]), h, budget, rng, factors)
    b, p, dsq = _select_multiplier(line.a, line.e, phi, dsq_prev, budget, line.kept_sq)
    x_next, factors, _ = line.lift(p)
    step = StepData(z=z_tp.point, z_witness=z_tp.witness, b=b, certificate=cert)
    return TracePoint(x_next, witness_at(b)), step, dsq, factors


def run(
    adapter,
    phi: ApproxFn,
    steps: int,
    seed: int = 0,
    budget: SearchBudget | None = None,
) -> SequenceTrace:
    """Construct a trace with the given number of points.

    A search that finds nothing raises SearchExhausted, its ``partial`` set
    to the trace built so far, flagged as partial.
    """
    if steps < 2:
        raise InputError("a run needs at least 2 points")
    budget = budget or SearchBudget()
    rng = random.Random(seed) if seed else None
    tp = adapter.start()
    if not adapter.member(tp):
        raise InputError("start point is not a certified member of the family")
    trace = SequenceTrace(family=adapter, phi=phi, seed=seed)
    points = [tp.point]
    witnesses = [tp.witness]
    entries: list[TraceEntry] = []
    dsq_prev = factors = None
    for i in range(1, steps):
        try:
            nxt, step, dsq_prev, factors = next_point(points, witnesses, adapter, phi, dsq_prev, budget, rng,
                                                      factors)
        except SearchExhausted as exc:
            trace.entries = entries + [TraceEntry(points[-1], witnesses[-1], None)]
            trace.partial = True
            trace.budget_note = f"stopped at point {i}: {exc}"
            exc.partial = trace
            raise
        entries.append(TraceEntry(points[-1], witnesses[-1], step))
        points.append(nxt.point)
        witnesses.append(nxt.witness)
    entries.append(TraceEntry(points[-1], witnesses[-1], None))
    trace.entries = entries
    return trace


def limit_radius_sq(trace: SequenceTrace) -> Fraction:
    """The squared radius of a ball around the last point containing the limit of any valid continuation.

    The telescoping condition bounds the remaining travel by a geometric
    series with ratio 1/3, so (3/2) * dist(x_last, x_prev) is a certified
    radius; its square, 9 |x_prev ^ x_last|^2 / (4 |x_prev|^2 |x_last|^2),
    is exact, no rounding needed.  The audit writes an upper bound of it
    instead and needs this exact value only for the brute-force search.
    """
    if len(trace.entries) < 3:
        raise InputError("limit extraction needs at least 3 points")
    prev, last = trace.entries[-2].x, trace.entries[-1].x
    nn = norm_sq(prev) * norm_sq(last)
    return Fraction(9 * (nn - dot(prev, last) ** 2), 4 * nn)


# ---------------------------------------------------------------------------
# trace (de)serialization
#
# Version 3 writes every number of an entry in hex: integers as 0x strings
# and rationals (k-linear witnesses and certificate scales) as 0x<num> or
# 0x<num>/0x<den> (ml.rational_to_doc), which convert in linear time where
# decimal takes quadratic time (Brent and Zimmermann, Modern Computer
# Arithmetic, 2010, section 1.7).  It is encoded without indentation, which
# runs json's C encoder.  Version 2 wrote the k-linear fields in decimal,
# and version 1 every integer too, and also the values the verifier
# re-derives; the reader ignores those.  One parser per kind of number,
# int_from_doc and ml.rational_from_doc, reads every version.


def _hex_vec(v) -> list[str]:
    return [format(a, "#x") for a in v]


def _witness_doc(w):
    return None if w is None else ml.witness_to_doc(w)


def trace_to_doc(trace: SequenceTrace) -> dict:
    entries = []
    for i, e in enumerate(trace.entries, start=1):
        s = e.step
        entries.append({
            "index": i,
            "x": _hex_vec(e.x),
            "witness": _witness_doc(e.witness),
            "step": None if s is None else {
                "z": _hex_vec(s.z),
                "z_witness": _witness_doc(s.z_witness),
                "b": format(s.b, "#x"),
                "certificate": s.certificate,
            },
        })
    return {
        "version": 3,
        "family": trace.family.descriptor(),
        "phi": trace.phi.descriptor(),
        "ambient_dim": trace.family.ambient_dim,
        "seed": trace.seed,
        "partial": trace.partial,
        "budget_note": trace.budget_note,
        "entries": entries,
    }


def _parse_point(doc, dim: int, where: str) -> IntVec:
    if not isinstance(doc, list) or len(doc) != dim:
        raise InputError(f"{where}: expected a list of {dim} integers")
    rep = tuple(int_from_doc(a, where) for a in doc)
    if not any(rep):
        raise InputError(f"{where}: the zero vector is not a projective point")
    return rep


def _parse_witness(doc, where: str, shape: tuple[int, int] | None = None):
    if doc is None:
        return None
    if shape is not None and not (
        isinstance(doc, list) and len(doc) == shape[0]
        and all(isinstance(v, list) and len(v) == shape[1] for v in doc)
    ):
        raise InputError(f"{where}: expected {shape[0]} slots of {shape[1]} coordinates")
    return ml.witness_from_doc(doc, where)


def _parse_step(doc, dim: int, shape, where: str) -> StepData:
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object")
    if not isinstance(doc.get("certificate"), dict):
        raise InputError(f"{where}.certificate: expected an object")
    return StepData(
        z=_parse_point(doc.get("z"), dim, f"{where}.z"),
        z_witness=_parse_witness(doc.get("z_witness"), f"{where}.z_witness", shape),
        b=int_from_doc(doc.get("b"), f"{where}.b"),
        certificate=doc["certificate"],
    )


def trace_from_doc(doc) -> SequenceTrace:
    """A trace from a version 1, 2 or 3 document, every stored field checked.

    The family's adapter and the decay target are built from their
    descriptors before any entry is read, so every command that reads a
    trace refuses a bad family, a map above the size caps or a bad decay
    target first; ambient_dim must be the family's.
    An integer is a JSON int, a 0x hex string or a decimal string, and a
    witness entry a rational in hex or decimal (ml.rational_from_doc).  An
    entry's index is its 1-based position, which the writer recomputes.  A
    point is a nonzero list of ambient_dim integers.  A z_witness has the
    adapter's ``witness_shape``, since the certificate check indexes it; a
    point's witness is judged by the audit's membership test.  A defect
    raises an InputError naming the entry and the field.
    """
    if not isinstance(doc, dict):
        raise InputError("a trace is a JSON object")
    version = doc.get("version")
    if version not in (1, 2, 3):
        raise InputError(f"unsupported trace version {version!r:.40}")
    family, phi, entries = doc.get("family"), doc.get("phi"), doc.get("entries")
    if not isinstance(family, dict) or not isinstance(phi, dict):
        raise InputError("family and phi must be objects")
    adapter = adapter_from_descriptor(family)
    with reading("phi"):
        phi = ApproxFn.from_descriptor(phi)
    if not isinstance(entries, list):
        raise InputError("entries: expected a list")
    partial = doc.get("partial", False)
    if not isinstance(partial, bool):
        raise InputError(f"partial: expected true or false, got {partial!r:.40}")
    dim = int_from_doc(doc.get("ambient_dim"), "ambient_dim")
    if dim != adapter.ambient_dim:
        raise InputError("ambient dimension does not match the family")
    trace = SequenceTrace(
        family=adapter,
        phi=phi,
        seed=int_from_doc(doc.get("seed", 0), "seed"),
        partial=partial,
        budget_note=doc.get("budget_note"),
    )
    for i, e in enumerate(entries):
        where = f"entries[{i}]"
        if not isinstance(e, dict):
            raise InputError(f"{where}: expected an object")
        index = int_from_doc(e.get("index"), f"{where}.index")
        if index != i + 1:
            raise InputError(f"{where}.index: {index} is not the entry's position {i + 1}")
        s = e.get("step")
        trace.entries.append(TraceEntry(
            x=_parse_point(e.get("x"), dim, f"{where}.x"),
            witness=_parse_witness(e.get("witness"), f"{where}.witness"),
            step=None if s is None else _parse_step(s, dim, adapter.witness_shape, f"{where}.step"),
        ))
    return trace


def save_trace(trace: SequenceTrace, path: str) -> None:
    """Write the trace's document, encoded in full before the file is opened.

    One write, and an encoding error leaves an existing file as it was.
    The compact separators keep json on its C encoder.
    """
    text = json.dumps(trace_to_doc(trace), separators=(",", ":")) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_trace(path: str) -> SequenceTrace:
    with open(path) as fh, reading(f"cannot load trace {path}"):
        return trace_from_doc(json.load(fh))
