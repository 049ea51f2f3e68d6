"""Earlier, plainer versions of exact kernels, kept as test oracles.

``box_scan_candidates`` is ``multilinear.candidate_vectors`` as a scan of
the whole box [-h, h]^n; ``sqrt_bounds_two_roots`` is
``exact_geometry.sqrt_bounds`` with a separate root for the perfect-square
test; ``fraction_evaluate`` is ``multilinear.evaluate`` in ``Fraction``
arithmetic over the product of the slots' supports.  The faster kernels
must return exactly what these return.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import isqrt


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
