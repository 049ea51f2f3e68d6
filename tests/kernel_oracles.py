"""Earlier, plainer versions of exact kernels, kept as test oracles.

``box_scan_candidates`` is ``multilinear.candidate_vectors`` as a scan of
the whole box [-h, h]^n; ``sqrt_bounds_two_roots`` is the certified
interval around sqrt(r) of width 2^-precision_bits, exact for perfect
squares, where the program takes only a lower end, as one ``isqrt``;
``evaluate`` is the map's value as ``Fraction``s,
``multilinear.integer_image`` divided out, which ``verify`` no longer
forms; ``fraction_evaluate`` is ``evaluate`` in ``Fraction`` arithmetic
over the product of the slots' supports.  The faster kernels
must return exactly what these return.

``ln_bounds_two_series`` is the certified interval around ln(y) as it was
summed with both series per call in ``Fraction`` ends, and
``le_phi_sq_log3x_fraction`` is ``ApproxFn.le_phi_sq`` under ``log3x`` at
both ends of phi as it decided in ``Fraction``s on that logarithm; the
one-sided fixed-point logarithms and the integer decay test must give the
same values.

``fraction_functionals`` is ``exact_geometry.orthogonal_functionals`` as it
built each functional from ``Fraction`` entries before ``primitive``, and
``fraction_subspace_span`` is ``exact_geometry.subspace_span`` as it
reduced ``Fraction`` rows to the RREF; the integer elimination must give the
same canonical basis.

``outside_candidates_loop`` is ``multilinear.outside_candidates`` as it
built every candidate's image and its ``primitive`` and tested the point
with ``in_span``; the search through contracted functionals must yield the
same (m, beta) sequence.

``sci_str_exact`` is ``exact_geometry.sci_str`` as it multiplied out the
full power of ten; the bracketed top-bit reading must give the same string.

``exponent_report_v2`` and ``radius_sq_v2`` are the audit's exponent rows
and limit radius as audit version 2 computed them: exact reduced
``Fraction``s of full size and roots of absolute width 2^-64.  Audit
version 3's working-precision values must bracket the exact quantities
they bound and stay within relative 2^-(precision + 3) of them.

``spanning_check`` is the audit's spanning table entry for one i0 as a
plain rank, which the table, built from residues, must match.

``dist_sq``, ``wedge_k`` (through the ``Fraction`` determinant ``det``) and
``d_xi`` are reference quantities that the exact kernels never compute:
the projective distance as a reduced ``Fraction``, the wedge product as its
k x k minors, and the norm-weighted distance to a certified limit ball as
an interval.

``write_json`` writes a form, map or other document as the program's
readers (``load_form``, ``load_map``) expect it; the program itself only
reads such files.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import isqrt

from maxsing.builder import ApproxFn, limit_radius_sq
from maxsing.errors import GeometryError, InputError
from maxsing.exact_geometry import ProjSubspaceQ, TracePoint, dot, primitive, rank
from maxsing.multilinear import _contract, _integer_slots, _sparse, candidate_vectors, integer_image


def box_scan_candidates(n: int, height: int, rng: random.Random | None = None) -> list:
    values = [0]
    for a in range(1, height + 1):
        values += [a, -a]
    shell = [v for v in itertools.product(values, repeat=n) if max(abs(a) for a in v) == height]
    if rng is not None:
        rng.shuffle(shell)
    return shell


def sqrt_bounds_two_roots(r, precision_bits: int) -> tuple[Fraction, Fraction]:
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    sp, sq = isqrt(p), isqrt(q)
    if sp * sp == p and sq * sq == q:
        e = Fraction(sp, sq)
        return (e, e)
    b = precision_bits
    m = isqrt((p << (2 * b)) // q)
    return (Fraction(m, 1 << b), Fraction(m + 1, 1 << b))


def evaluate(kmap, vectors) -> tuple:
    s, img = integer_image(kmap, vectors)
    return tuple(Fraction(a, s) for a in img)


def fraction_evaluate(kmap, vectors) -> tuple:
    supports = [[(i, c) for i, c in enumerate(v) if c != 0] for v in vectors]
    acc = [Fraction(0)] * kmap.target_dim
    for combo in itertools.product(*supports):
        img = kmap.basis_images.get(tuple(i for i, _ in combo))
        if img is None:
            continue
        coeff = 1
        for _, c in combo:
            coeff = coeff * c
        for j, a in enumerate(img):
            if a:
                acc[j] += coeff * a
    return tuple(acc)


def fraction_functionals(s) -> tuple:
    pivots = [next(j for j, a in enumerate(row) if a != 0) for row in s.basis]
    funcs = []
    for j in range(s.ambient_dim):
        if j in pivots:
            continue
        f = [Fraction(0)] * s.ambient_dim
        f[j] = Fraction(1)
        for row, pc in zip(s.basis, pivots):
            f[pc] = Fraction(-row[j], row[pc])
        funcs.append(primitive(f))
    return tuple(funcs)


def fraction_subspace_span(vectors, ambient_dim: int | None = None) -> ProjSubspaceQ:
    if ambient_dim is None:
        if not vectors:
            raise GeometryError("empty span needs an explicit ambient_dim")
        ambient_dim = len(vectors[0])
    rows = [[Fraction(a) for a in v] for v in vectors if any(c != 0 for c in v)]
    for r in rows:
        if len(r) != ambient_dim:
            raise GeometryError("subspace_span: inconsistent dimensions")
    rref = _rref(rows, ambient_dim)
    return ProjSubspaceQ(tuple(primitive(r) for r in rref), ambient_dim)


def _rref(rows: list, ncols: int) -> list:
    rref: list = []
    pivots: list = []
    for row in rows:
        r = row[:]
        for prow, pc in zip(rref, pivots):
            if r[pc] != 0:
                c = r[pc]
                r = [a - c * b for a, b in zip(r, prow)]
        pc = next((j for j, a in enumerate(r) if a != 0), None)
        if pc is None:
            continue
        inv = r[pc]
        r = [a / inv for a in r]
        for prow in rref:
            if prow[pc] != 0:
                c = prow[pc]
                prow[:] = [a - c * b for a, b in zip(prow, r)]
        rref.append(r)
        pivots.append(pc)
    order = sorted(range(len(rref)), key=lambda i: pivots[i])
    return [rref[i] for i in order]


def outside_candidates_loop(kmap, h, anchor, max_height: int, rng: random.Random | None = None):
    k = kmap.k
    _, images = kmap.integer_images
    _, anchor_ints = _integer_slots(anchor.witness)
    for m in range(k - 1, -1, -1):
        d = k - m
        contracted = {subset: _sparse(_contract(images, kmap.target_dim, anchor_ints, subset))
                      for subset in itertools.combinations(range(k), d)}
        for height in range(1, max_height + 1):
            pools = [list(candidate_vectors(kmap.n, hh, rng)) for hh in range(1, height + 1)]
            for subset, sub in contracted.items():
                for heights in itertools.product(range(height), repeat=d):
                    if max(heights) != height - 1:
                        continue
                    for repl in itertools.product(*(pools[hh] for hh in heights)):
                        img = _contract(sub, kmap.target_dim, repl).get(())
                        if img is None or not any(img):
                            continue
                        pt = primitive(img)
                        if h.contains(pt):
                            continue
                        witness = list(anchor.witness)
                        for slot, vec in zip(subset, repl):
                            witness[slot] = tuple(Fraction(c) for c in vec)
                        yield m, TracePoint(pt, tuple(witness))


def _sqrt_bounds_rel(r, precision_bits: int) -> tuple[Fraction, Fraction]:
    r = Fraction(r)
    if r == 0:
        return (Fraction(0), Fraction(0))
    e = r.numerator.bit_length() - r.denominator.bit_length()
    return sqrt_bounds_two_roots(r, precision_bits + max(0, -(e // 2)) + 2)


def _decay_term(n2x: int, n2y: int, dxy: int) -> Fraction:
    return Fraction(9 * (n2x * n2y - dxy * dxy), 4 * n2y)


def exponent_row_v2(index: int, n2x: int, n2n: int, dxy: int, norm_prec: int, precision_bits: int):
    """(index, X, D_hi, lambda_lb) of one step, or None where no exponent is certified."""
    d_hi = _sqrt_bounds_rel(_decay_term(n2x, n2n, dxy), precision_bits + 4)[1]
    x_scale = sqrt_bounds_two_roots(n2n, norm_prec)[0]
    if x_scale * x_scale < n2x:
        x_scale = sqrt_bounds_two_roots(n2x, precision_bits + 4)[1]
    if x_scale <= 1 or d_hi == 0:
        return None
    ln_x_lo, ln_x_hi = ln_bounds_two_series(x_scale, precision_bits)
    if d_hi < 1:
        lam = ln_bounds_two_series(1 / d_hi, precision_bits)[0] / ln_x_hi
    else:
        lam = -ln_bounds_two_series(d_hi, precision_bits)[1] / ln_x_lo
    return index, x_scale, d_hi, lam


def exponent_report_v2(trace, precision_bits: int = 64) -> list:
    norm_prec = ApproxFn.from_descriptor(trace.phi).precision_bits
    pts = trace.points()
    rows = []
    for i in range(2, len(trace.entries)):
        if trace.entries[i - 1].step is None:
            break
        x, y = pts[i - 1], pts[i]
        row = exponent_row_v2(i, dot(x, x), dot(y, y), dot(x, y), norm_prec, precision_bits)
        if row is not None:
            rows.append(row)
    return rows


def radius_sq_v2(trace) -> Fraction:
    x, y = trace.entries[-2].x, trace.entries[-1].x
    return _decay_term(dot(x, x), dot(y, y), dot(x, y)) / dot(x, x)



def _atanh_series_closures(t_scaled: int, scale_bits: int, terms: int, round_up: bool) -> int:
    """2^scale_bits * atanh(t) bounds for t = t_scaled / 2^scale_bits in [0, 1/2].

    Directed rounding: with round_up=False every intermediate floor gives a
    lower bound of the truncated series; with round_up=True every ceiling
    plus an explicit tail bound gives an upper bound of the full series.
    """
    one = 1 << scale_bits
    if t_scaled == 0:
        return 0

    def mul(a: int, b: int) -> int:
        prod = a * b
        if round_up:
            return -((-prod) >> scale_bits)
        return prod >> scale_bits

    def div(a: int, b: int) -> int:
        if round_up:
            return -((-a) // b)
        return a // b

    t2 = mul(t_scaled, t_scaled)
    total = t_scaled
    power = t_scaled
    j = 1
    while j <= terms:
        power = mul(power, t2)
        if power == 0 and not round_up:
            break
        total += div(power, 2 * j + 1)
        j += 1
    if round_up:
        # tail: sum_{i>terms} t^(2i+1)/(2i+1) <= t^(2J+3) / ((2J+3)(1-t^2))
        next_power = mul(power, t2)
        denom = (2 * j + 1) * (one - t2)
        if denom <= 0:
            raise ValueError("atanh series needs t < 1")
        total += div(next_power * one, denom) + 1
    return total


_LN2_FRACTION_CACHE: dict[int, tuple[Fraction, Fraction]] = {}


def _ln2_bounds_fraction(scale_bits: int) -> tuple[Fraction, Fraction]:
    if scale_bits not in _LN2_FRACTION_CACHE:
        terms = scale_bits // 3 + 3
        t_lo = (1 << scale_bits) // 3
        t_hi = t_lo + 1
        lo = 2 * _atanh_series_closures(t_lo, scale_bits, terms, round_up=False)
        hi = 2 * _atanh_series_closures(t_hi, scale_bits, terms, round_up=True)
        _LN2_FRACTION_CACHE[scale_bits] = (Fraction(lo, 1 << scale_bits), Fraction(hi, 1 << scale_bits))
    return _LN2_FRACTION_CACHE[scale_bits]


def ln_bounds_two_series(y, precision_bits: int = 64) -> tuple[Fraction, Fraction]:
    """Certified rational interval around ln(y), width <= 2^-precision_bits.

    Range-reduces y = 2^e * m with m in [1, 2) and sums the atanh series
    of (m-1)/(m+1) in fixed-point integers with directed rounding.
    """
    y = Fraction(y)
    if y <= 0:
        raise ValueError("log of a non-positive rational")
    if y == 1:
        return (Fraction(0), Fraction(0))
    if y < 1:
        lo, hi = ln_bounds_two_series(1 / y, precision_bits)
        return (-hi, -lo)
    p, q = y.numerator, y.denominator
    e = p.bit_length() - q.bit_length()
    while e > 0 and (q << e) > p:
        e -= 1
    while (q << (e + 1)) <= p:
        e += 1
    w = precision_bits + 32 + e.bit_length()
    tn = p - (q << e)
    td = p + (q << e)
    terms = w // 3 + 3
    if tn == 0:
        m_lo = m_hi = Fraction(0)
    else:
        t_scaled = (tn << w) // td
        t_lo, t_hi = t_scaled, t_scaled + 1
        m_lo = Fraction(2 * _atanh_series_closures(t_lo, w, terms, round_up=False), 1 << w)
        m_hi = Fraction(2 * _atanh_series_closures(t_hi, w, terms, round_up=True), 1 << w)
    if e == 0:
        lo, hi = m_lo, m_hi
    else:
        l2_lo, l2_hi = _ln2_bounds_fraction(w)
        lo, hi = e * l2_lo + m_lo, e * l2_hi + m_hi
    assert hi - lo <= Fraction(1, 1 << precision_bits)
    return (lo, hi)


def le_phi_sq_log3x_fraction(u: int, v: int, norm_sq: int, precision_bits: int) -> tuple[bool, bool]:
    """(u/v <= phi_lo(X)^2, u/v <= phi_hi(X)^2) with phi = min(1, ln(3X)/X), X = max(sqrt_lo(norm_sq), 1)."""
    x = max(sqrt_bounds_two_roots(norm_sq, precision_bits)[0], Fraction(1))
    ln = ln_bounds_two_series(3 * x, precision_bits + 2)

    def le(end: int) -> bool:
        if u < 0:
            return True
        b = min(ln[end] / x, Fraction(1))
        return u * b.denominator ** 2 <= v * b.numerator ** 2

    lo = le(0)
    return lo, lo or le(1)



def spanning_check(trace, i0: int) -> bool:
    """True iff the points from index i0 on span the ambient space."""
    n = len(trace.entries)
    if not 2 <= i0 <= n:
        raise InputError(f"i0 must lie in [2, {n}]")
    return rank(trace.points()[i0 - 1:]) == trace.ambient_dim


def dist_sq(x, y) -> Fraction:
    """Squared projective distance |x ∧ y|^2 / (|x|^2 |y|^2), in [0, 1]."""
    nx, ny = dot(x, x), dot(y, y)
    if nx == 0 or ny == 0:
        raise GeometryError("projective distance needs nonzero vectors")
    d = dot(x, y)
    return Fraction(nx * ny - d * d, nx * ny)


def det(rows) -> Fraction:
    """Determinant of a square rational matrix by Gaussian elimination in Fractions."""
    m = [[Fraction(a) for a in r] for r in rows]
    if any(len(r) != len(m) for r in m):
        raise GeometryError("det needs a square matrix")
    out = Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, len(m)):
            c = m[i][k] / m[k][k]
            m[i] = [a - c * b for a, b in zip(m[i], m[k])]
    return out


def wedge_k(vectors) -> tuple:
    """Wedge product of k vectors of dim n as the C(n, k) minors, k-subsets of columns in lex order."""
    n = len(vectors[0])
    if any(len(v) != n for v in vectors) or not 1 <= len(vectors) <= n:
        raise GeometryError("wedge_k needs k <= n vectors of one dimension n")
    return tuple(det([[v[j] for j in cols] for v in vectors])
                 for cols in itertools.combinations(range(n), len(vectors)))


def trace_limit(trace) -> tuple:
    """(center, radius_sq): the certified ball around the trace's last point (builder.limit_radius_sq)."""
    return trace.entries[-1].x, limit_radius_sq(trace)


def d_xi(limit, x, precision_bits: int = 64) -> tuple[Fraction, Fraction]:
    """(lo, hi) bracketing D(x) = |x| dist(limit, [x]) for every point of the certified ball.

    ``limit`` is the ball's (center, radius_sq).  With d the distance to
    the center and r the radius, D(x) lies in |x| [max(0, d - r), d + r];
    every square root is rounded outward.
    """
    center, radius_sq = limit
    prec = precision_bits + 4
    d_lo, d_hi = sqrt_bounds_two_roots(dist_sq(x, center), prec)
    r_hi = sqrt_bounds_two_roots(radius_sq, prec)[1]
    n_lo, n_hi = sqrt_bounds_two_roots(dot(x, x), prec)
    return n_lo * max(Fraction(0), d_lo - r_hi), n_hi * (d_hi + r_hi)


def sci_str_exact(x, digits: int = 12) -> str:
    """sci_str with floor(|x| 10^(digits-1-L)) taken from the full power of ten."""
    x = Fraction(x)
    if x == 0:
        return "0"
    p, q = abs(x.numerator), x.denominator
    e = p.bit_length() - q.bit_length() - 1
    low = e * (3010299956 if e >= 0 else 3010299957) // 10 ** 10
    s = digits - 1 - low
    m = p * 10 ** s // q if s >= 0 else p // (q * 10 ** -s)
    extra = len(str(m)) - digits
    mantissa = str(m // 10 ** extra)
    sign = "-" if x < 0 else ""
    return f"{sign}{mantissa[0]}.{mantissa[1:]}e{low + extra:+d}"


def write_json(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
