"""Earlier, plainer versions of exact kernels, kept as test oracles.

``box_scan_candidates`` is ``multilinear.candidate_vectors`` as a scan of
the whole box [-h, h]^n; ``sqrt_bounds_two_roots`` is
``exact_geometry.sqrt_bounds`` with a separate root for the perfect-square
test; ``fraction_evaluate`` is ``multilinear.evaluate`` in ``Fraction``
arithmetic over the product of the slots' supports.  The faster kernels
must return exactly what these return.

``exponent_report_v2`` and ``radius_sq_v2`` are the audit's exponent rows
and limit radius as audit version 2 computed them: exact reduced
``Fraction``s of full size and roots of absolute width 2^-64.  Audit
version 3's working-precision values must bracket the exact quantities
they bound and stay within relative 2^-(precision + 3) of them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import isqrt

from maxsing.builder import ApproxFn
from maxsing.exact_geometry import dot, ln_bounds, sqrt_bounds


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


def _sqrt_bounds_rel(r, precision_bits: int) -> tuple[Fraction, Fraction]:
    r = Fraction(r)
    if r == 0:
        return (Fraction(0), Fraction(0))
    e = r.numerator.bit_length() - r.denominator.bit_length()
    return sqrt_bounds(r, precision_bits + max(0, -(e // 2)) + 2)


def _decay_term(n2x: int, n2y: int, dxy: int) -> Fraction:
    return Fraction(9 * (n2x * n2y - dxy * dxy), 4 * n2y)


def exponent_row_v2(index: int, n2x: int, n2n: int, dxy: int, norm_prec: int, precision_bits: int):
    """(index, X, D_hi, lambda_lb) of one step, or None where no exponent is certified."""
    d_hi = _sqrt_bounds_rel(_decay_term(n2x, n2n, dxy), precision_bits + 4)[1]
    x_scale = sqrt_bounds(n2n, norm_prec)[0]
    if x_scale * x_scale < n2x:
        x_scale = sqrt_bounds(n2x, precision_bits + 4)[1]
    if x_scale <= 1 or d_hi == 0:
        return None
    ln_x_lo, ln_x_hi = ln_bounds(x_scale, precision_bits)
    if d_hi < 1:
        lam = ln_bounds(1 / d_hi, precision_bits)[0] / ln_x_hi
    else:
        lam = -ln_bounds(d_hi, precision_bits)[1] / ln_x_lo
    return index, x_scale, d_hi, lam


def exponent_report_v2(trace, precision_bits: int = 64) -> list:
    norm_prec = ApproxFn.from_descriptor(trace.phi).precision_bits
    pts = [p.rep for p in trace.points()]
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
    x, y = trace.entries[-2].x.rep, trace.entries[-1].x.rep
    return _decay_term(dot(x, x), dot(y, y), dot(x, y)) / dot(x, x)
