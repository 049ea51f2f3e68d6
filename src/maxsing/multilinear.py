"""k-linear maps over Q: evaluation, witnesses, and line construction.

A point of the projectivized image is always carried together with a
witness (a k-tuple of rational source vectors mapping onto it), because
witness slot agreement is what certifies the line constructions: two
image points whose witnesses agree in many slots lie on checkable
rational lines inside the image.

Evaluation runs on integers: ``integer_image`` contracts an integer map
with every slot fixed, and the outside-candidate search contracts the
anchor's kept slots and H's functionals once per set of replaced slots, so
testing a candidate is a small integer contraction.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import namedtuple
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from math import comb, lcm, perm, prod

from .errors import GeometryError, InputError, SearchExhausted, reading
from .exact_geometry import (
    IntVec,
    ProjSubspaceQ,
    RatVec,
    TracePoint,
    centring_shift,
    int_from_doc,
    norm_sq,
    primitive,
    rank,
    vec_add,
    vec_scale,
    wedge_sq,
)


# Caps on the size of a k-linear map, checked before any map is built, so that a
# trace or a map file cannot ask for work exponential in its own size: a
# grassmann map with n = 30, k = 15 would list about 2*10^20 index tuples.
# Every built-in, test and script map stays far below them (n <= 5, k <= 3,
# D <= 10, at most 24 basis images).
MAX_SOURCE_DIM = 16
MAX_ARITY = 8
MAX_TARGET_DIM = 64
MAX_BASIS_IMAGES = 4096


def check_caps(where: str, **fields: int) -> None:
    """Raise an InputError naming the first of the fields n, k, D, basis_images above its cap."""
    caps = {"n": MAX_SOURCE_DIM, "k": MAX_ARITY, "D": MAX_TARGET_DIM, "basis_images": MAX_BASIS_IMAGES}
    for name, value in fields.items():
        if value > caps[name]:
            raise InputError(f"{where}: {name} = {value} exceeds the cap {caps[name]}")


def map_sizes(kind: str, n: int, k: int) -> dict[str, int]:
    """D and the basis-image count of the grassmann or prodforms map on (Q^n)^k, n, k >= 1.

    The fields check_caps takes, read off n and k before any map is built.
    """
    if kind == "grassmann":
        return {"D": comb(n, k), "basis_images": perm(n, k)}
    return {"D": comb(n + k - 1, k), "basis_images": n ** k}


class KLinearMap:
    """A k-linear map (Q^n)^k -> Q^D given by its values on basis tuples.

    ``basis_images`` maps index tuples (i_1, ..., i_k) to image vectors;
    missing tuples are zero.  The images must span Q^D (checked here);
    everything downstream relies on that to escape proper subspaces.
    """

    def __init__(self, k: int, n: int, target_dim: int, basis_images: dict[tuple[int, ...], tuple]):
        if k < 1 or n < 1:
            raise InputError("k and n must be positive")
        if target_dim < 3:
            raise InputError("target dimension must be at least 3")
        for idx, img in basis_images.items():
            if len(idx) != k or any(not 0 <= i < n for i in idx):
                raise InputError(f"bad basis index {idx}")
            if len(img) != target_dim:
                raise GeometryError(f"image of {idx} has dim {len(img)}")
        if rank(basis_images.values()) != target_dim:
            raise InputError("basis images do not span the target space")
        self.k, self.n, self.target_dim, self.basis_images = k, n, target_dim, basis_images

    @cached_property
    def integer_images(self) -> tuple[int, dict[tuple[int, ...], list[tuple[int, int]]]]:
        """(d, N): d the basis images' common denominator, N[idx] the pairs (j, d*a_j) with a_j != 0.

        Each image entry is an int or a Fraction, both of which carry
        ``numerator`` and ``denominator``.
        """
        d = lcm(*(a.denominator for img in self.basis_images.values() for a in img))
        return d, {idx: [(j, a.numerator * (d // a.denominator)) for j, a in enumerate(img) if a]
                   for idx, img in self.basis_images.items()}


def _integer_slots(vectors: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """(d_1*...*d_k, [d_s*v_s]): each slot scaled by its least common denominator d_s."""
    dens = [lcm(*(c.denominator for c in v)) for v in vectors]
    return prod(dens), [[c.numerator * (ds // c.denominator) for c in v] for ds, v in zip(dens, vectors)]


def _contract(images: dict, dim: int, vectors: Sequence, free: tuple[int, ...] = ()) -> dict:
    """Fix the slots outside ``free`` of an integer map with sparse ``images`` to ``vectors``.

    Returns the contracted map: free-slot index tuples to dense images (key () if none is free).
    """
    fixed = [(s, v) for s, v in enumerate(vectors) if s not in free]
    out: dict = {}
    for idx, img in images.items():
        c = 1
        for s, v in fixed:
            c *= v[idx[s]]
            if not c:
                break
        else:
            key = tuple(idx[s] for s in free) if free else ()
            acc = out.get(key)
            if acc is None:
                acc = out[key] = [0] * dim
            for j, a in img:
                acc[j] += c * a
    return out


def _sparse(images: dict) -> dict:
    """A contracted map's dense images as sparse ones, ready to contract again."""
    return {idx: [(j, a) for j, a in enumerate(img) if a] for idx, img in images.items()}


def integer_image(kmap: KLinearMap, vectors: Sequence[Sequence]) -> tuple[int, list[int]]:
    """(s, N(u)) with M(vectors) = N(u) / s, s > 0, for M the map and rational vectors.

    With d the basis images' common denominator, N = d*M has integer
    images; with d_s slot s's common denominator, u_s = d_s*v_s is an
    integer vector.  M is multilinear, so the scales factor out of every
    slot: M(v_1, ..., v_k) = N(u_1, ..., u_k) / s with s = d*d_1*...*d_k.
    The integer image N(u) is the contraction of N with every slot fixed;
    s > 0, so primitive(N(u)) is the image's point.
    """
    if len(vectors) != kmap.k or any(len(v) != kmap.n for v in vectors):
        raise GeometryError(f"need {kmap.k} source vectors of dim {kmap.n}")
    d, images = kmap.integer_images
    scale, ints = _integer_slots(vectors)
    return d * scale, _contract(images, kmap.target_dim, ints).get((), [0] * kmap.target_dim)


def witnessed_point(kmap: KLinearMap, witness: Sequence[Sequence]) -> TracePoint:
    img = integer_image(kmap, witness)[1]
    if not any(img):
        raise GeometryError("witness maps to zero")
    return TracePoint(primitive(img), tuple(tuple(Fraction(c) for c in v) for v in witness))


def rational_to_doc(c) -> str:
    """An int or Fraction as 0x<num>, or 0x<num>/0x<den> when den > 1, the sign in front.

    Hex converts in linear time where decimal takes quadratic time
    (builder's serialization note); rational_from_doc reads it.
    """
    num = format(c.numerator, "#x")
    return num if c.denominator == 1 else f"{num}/{c.denominator:#x}"


def witness_to_doc(witness: Sequence[Sequence]) -> list[list[str]]:
    """A witness as its JSON list of lists of rational_to_doc strings (witness_from_doc reads it)."""
    return [[rational_to_doc(c) for c in v] for v in witness]


def rational_from_doc(value):
    """A rational from JSON: the hex forms of rational_to_doc, else Fraction(value).

    Mirrors exact_geometry.int_from_doc.  A string whose numerator is 0x
    hex is 0x<num> (an int) or 0x<num>/0x<den> (a Fraction, den > 0); a
    malformed hex part or a zero or signed denominator raises ValueError,
    which the caller's ``reading`` names.  A decimal string of the form
    -?[0-9]+, which trace versions 1 and 2 write for an integer, is the
    int of the same value; Fraction would parse it with the same int()
    and then reduce by a gcd.  Every other value goes to Fraction, which
    accepts or rejects it with its own message.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if num.lstrip("+-")[:2].lower() == "0x":
            if not slash:
                return int(num, 16)
            d = int(den, 16) if den[:2].lower() == "0x" else 0
            if not d:
                raise ValueError(f"{value!r:.40}: the denominator is not a positive 0x integer")
            return Fraction(int(num, 16), d)
        digits = value[1:] if value[:1] == "-" else value
        if digits.isascii() and digits.isdigit():
            return int(value)
    return Fraction(value)


def witness_from_doc(doc, field: str) -> tuple[RatVec, ...]:
    """A witness from its JSON list of lists; an InputError names ``field`` if it is malformed.

    Each slot must be a list: a string slot such as "1000" would otherwise
    be read digit by digit as a vector.  Entries are read by
    rational_from_doc, hex or decimal, so integer entries are ints.
    """
    if not isinstance(doc, list) or not all(isinstance(v, list) for v in doc):
        raise InputError(f"{field} {doc!r:.80} is not a witness: expected a list of lists")
    with reading(field):
        return tuple(tuple(rational_from_doc(c) for c in v) for v in doc)


def replace_slot(witness: Sequence[Sequence], slot: int, vec: Sequence) -> tuple:
    """The witness tuple with slot ``slot`` set to ``vec``."""
    w = list(witness)
    w[slot] = vec
    return tuple(w)


def shared_count(w1: Sequence[Sequence], w2: Sequence[Sequence]) -> int:
    """Number of slots where the two witness tuples are exactly equal."""
    if len(w1) != len(w2):
        raise GeometryError("witness tuples of different length")
    return sum(1 for a, b in zip(w1, w2) if tuple(a) == tuple(b))


def _coord_value(idx: int) -> int:
    # 0, 1, -1, 2, -2, ...
    if idx == 0:
        return 0
    return (idx + 1) // 2 if idx % 2 == 1 else -(idx // 2)


def candidate_vectors(n: int, height: int, rng: random.Random | None = None) -> list[tuple[int, ...]]:
    """Nonzero integer vectors of max-norm exactly ``height``.

    Ordered by per-coordinate value index (0, 1, -1, 2, -2, ...)
    lexicographically; a seeded rng, when given, shuffles within the
    shell (the search stays exhaustive either way).
    """
    values = [_coord_value(i) for i in range(2 * height + 1)]
    shell = [v for v in itertools.product(values, repeat=n) if height in v or -height in v]
    if rng is not None:
        rng.shuffle(shell)
    return shell


def outside_candidates(
    kmap: KLinearMap,
    h: ProjSubspaceQ,
    anchor: TracePoint,
    max_height: int,
    rng: random.Random | None = None,
) -> Iterator[tuple[int, TracePoint, tuple[int, list[int]]]]:
    """Yield (m, beta, (s, img)) with [beta] outside H, best witness agreement first.

    For m from k-1 down to 0, replaces exactly k-m anchor slots with
    integer vectors of max-norm up to max_height; m is then a lower-bound
    certificate for the witness agreement between anchor and beta.

    Membership: per set of replaced slots, the anchor's kept slots are
    contracted once into an integer map ``sub`` on the replaced slots, and
    H's functionals into F, F[key] = (f·sub[key] for f in h.functionals).
    Each f∘sub is multilinear, so contracting F with the replacement
    vectors u gives the pairings f·sub(u).  The functionals span H's
    annihilator (``in_span``), so all vanish exactly when sub(u) lies in
    H, a zero image included.  So the candidates and their order are
    those of testing every sub(u) with ``in_span``, but only an outside
    one builds sub(u) and its primitive.

    Scale: img = sub(u) and s = d*prod(d_s over the kept slots s), d the
    basis images' common denominator and d_s slot s's.  That is
    integer_image(kmap, beta.witness): the replaced slots are integer
    vectors (d_s = 1), the kept ones are scaled as there, and contracting
    the kept slots first sums the same integer products.
    """
    k = kmap.k
    d, images = kmap.integer_images
    dens = [lcm(*(c.denominator for c in v)) for v in anchor.witness]
    _, anchor_ints = _integer_slots(anchor.witness)
    funcs = h.functionals
    for m in range(k - 1, -1, -1):
        contracted = []
        for subset in itertools.combinations(range(k), k - m):
            sub = _sparse(_contract(images, kmap.target_dim, anchor_ints, subset))
            pairings = {key: [sum(f[j] * a for j, a in img) for f in funcs] for key, img in sub.items()}
            scale = d * prod(ds for slot, ds in enumerate(dens) if slot not in subset)
            contracted.append((subset, sub, _sparse(pairings), scale))
        for height in range(1, max_height + 1):
            pools = [list(candidate_vectors(kmap.n, hh, rng)) for hh in range(1, height + 1)]
            for subset, sub, pairings, scale in contracted:
                for heights in itertools.product(range(height), repeat=k - m):
                    if max(heights) != height - 1:
                        continue  # only new combinations at this height
                    for repl in itertools.product(*(pools[hh] for hh in heights)):
                        if not any(_contract(pairings, len(funcs), repl).get((), ())):
                            continue
                        img = _contract(sub, kmap.target_dim, repl)[()]
                        witness = list(anchor.witness)
                        for slot, vec in zip(subset, repl):
                            witness[slot] = tuple(Fraction(c) for c in vec)
                        yield m, TracePoint(primitive(img), tuple(witness)), (scale, img)


class LineCertificate(namedtuple("LineCertificate", "slot m anchor_scale z_scale beta beta_prime")):
    """Audit data for one line step.

    z's witness is x's witness with the stated slot t replaced.  For every
    rational b the point b*x + z then has the witness x's witness with
    slot t set to (b/anchor_scale)*xs + (1/z_scale)*ys (xs, ys: slot t of
    x's and z's witnesses), and the companion, beta's witness with the
    same slot, evaluates to (b/anchor_scale)*beta' + (1/z_scale)*E_y,
    E_y being beta's witness with slot t set to ys.  beta' lies in H (or
    is 0) and E_y outside it, so the companion stays outside H for every
    b.  That pins the witness-agreement drop along the line.
    ``families.KLinearAdapter.check_certificate`` proves it once per step,
    taking beta's integer image itself.

    anchor_scale: the map at x.witness is anchor_scale * x.point.
    z_scale: the map at z.witness is z_scale * z.point.
    beta_prime: the map at beta.witness with slot <- x slot, None if zero.
    """

    __slots__ = ()


def line_witness(x_witness: Sequence[Sequence], z_witness: Sequence[Sequence], slot: int,
                 anchor_scale: int | Fraction, z_scale: int | Fraction, b: int) -> tuple[RatVec, ...]:
    """Witness for b*x + z given a LineCertificate's slot and scales, ints or Fractions."""
    lam = Fraction(b) / anchor_scale
    mu = 1 / Fraction(z_scale)
    ys = z_witness[slot]
    return replace_slot(x_witness, slot, tuple(lam * a + mu * c for a, c in zip(x_witness[slot], ys)))


def line_step(
    kmap: KLinearMap,
    x: TracePoint,
    h: ProjSubspaceQ,
    max_height: int,
    rng: random.Random | None = None,
) -> tuple[TracePoint, LineCertificate]:
    """One line construction through x inside the image.

    Requires [x] in H.  Returns z such that the line {b*x + z} stays in
    the image (witnesses exhibited), z is not proportional to x, and the
    certificate's companion family certifies the witness-agreement drop.
    Among valid candidates the one minimizing |x ∧ z|^2 is kept, which
    controls coordinate growth of the whole construction; the search keeps
    the integer images (s, img) of the best one so far and builds its
    certificate once, at the end.  The winner is centred on x first
    (centring_shift): z + r*x has the witness line_witness gives at b = r,
    and its own scale.

    Stop rule: the search stops at the first candidate of lower agreement
    than the best's, or after nine certified (candidate, slot) pairs.  No
    candidate is promoted by setting a replaced slot back to x's:
    outside_candidates yields each level m = k-1, ..., 0 whole up to
    max_height, so an outside promotion of a level-m candidate was already
    yielded at level m+1 with the same (s, img), and scoring it again gives
    the same m and areas, which the strict comparison never takes.
    """
    if not h.contains(x.point):
        raise GeometryError("line_step needs a point inside the subspace")
    s_x, img_x = integer_image(kmap, x.witness)
    n2x = norm_sq(x.point)
    best = None  # (area, t, m, beta, w_z, z, (s_z, alpha_prime), (s_b, beta_prime) or None)
    certified = 0
    for m, beta, beta_image in outside_candidates(kmap, h, x, max_height, rng):
        if best is not None and m < best[2]:
            break
        for t in range(kmap.k):
            if beta.witness[t] == x.witness[t]:
                continue
            w_z = replace_slot(x.witness, t, beta.witness[t])
            s_z, alpha_prime = beta_image if w_z == beta.witness else integer_image(kmap, w_z)
            if not any(alpha_prime):
                continue
            z_pt = primitive(alpha_prime)
            if z_pt == x.point:
                continue  # degenerate: proportional to x, retry next candidate
            w_b = replace_slot(beta.witness, t, x.witness[t])
            s_b, beta_prime = (s_x, img_x) if w_b == x.witness else integer_image(kmap, w_b)
            bp_zero = not any(beta_prime)
            if not bp_zero and not h.contains(beta_prime):
                continue  # cannot certify this slot
            area = wedge_sq(x.point, z_pt, n2x)
            if best is None or area < best[0]:
                best = (area, t, m, beta, w_z, z_pt, (s_z, alpha_prime), None if bp_zero else (s_b, beta_prime))
            certified += 1
        if certified >= 9:
            break
    if best is None:
        raise SearchExhausted("no non-degenerate certified line found within the search budget")
    _, t, m, beta, w_z, z_pt, (s_z, alpha_prime), b_prime = best
    anchor_scale = _scale_of(img_x, x.point, s_x)
    z_scale = _scale_of(alpha_prime, z_pt, s_z)  # z's witness is w_z
    r = centring_shift(x.point, z_pt)
    if r:
        y = vec_add(z_pt, vec_scale(r, x.point))
        w_z = line_witness(x.witness, w_z, t, anchor_scale, z_scale, r)
        z_pt = primitive(y)
        z_scale = _scale_of(y, z_pt)
    b_prime = None if b_prime is None else tuple(Fraction(a, b_prime[0]) for a in b_prime[1])
    return TracePoint(z_pt, w_z), LineCertificate(t, m, anchor_scale, z_scale, beta, b_prime)


def _scale_of(img: Sequence, point: IntVec, s: int = 1) -> Fraction:
    """The c with img / s == c * point, given that img is a multiple of it."""
    j = next(i for i, a in enumerate(point) if a != 0)
    return Fraction(img[j]) / (s * point[j])


# ---------------------------------------------------------------------------
# the two standard instantiations


def grassmann_map(n: int, k: int) -> KLinearMap:
    """The wedge map (Q^n)^k -> Q^C(n,k), Plücker coordinates in lex order."""
    check_caps("grassmann", n=n, k=k)
    if not (1 <= k < n) or n < 3 or comb(n, k) < 3:
        raise InputError(f"grassmann map needs 1 <= k < n, n >= 3, C(n,k) >= 3; got n={n}, k={k}")
    check_caps(f"grassmann({n}, {k})", **map_sizes("grassmann", n, k))
    d = comb(n, k)
    subsets = {s: i for i, s in enumerate(itertools.combinations(range(n), k))}
    images: dict[tuple[int, ...], tuple] = {}
    for idx in itertools.permutations(range(n), k):
        key = tuple(sorted(idx))
        sign = _perm_sign(idx)
        img = [0] * d
        img[subsets[key]] = sign
        images[idx] = tuple(img)
    return KLinearMap(k=k, n=n, target_dim=d, basis_images=images)


def _perm_sign(idx: Sequence[int]) -> int:
    sign = 1
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign


def prodforms_map(n: int, k: int) -> KLinearMap:
    """Product of k linear forms in n variables as a k-linear map.

    Target coordinates are homogeneous degree-k monomials in
    degree-lexicographic order with x1 > x2 > ... > xn.
    """
    check_caps("prodforms", n=n, k=k)
    if n < 2 or k < 1 or n + k < 4:
        raise InputError(f"product-of-forms map needs n >= 2, k >= 1 and n + k >= 4; got n={n}, k={k}")
    check_caps(f"prodforms({n}, {k})", **map_sizes("prodforms", n, k))
    monomials = sorted(_exponent_vectors(n, k), reverse=True)
    index = {m: i for i, m in enumerate(monomials)}
    d = len(monomials)
    images: dict[tuple[int, ...], tuple] = {}
    for idx in itertools.product(range(n), repeat=k):
        expo = [0] * n
        for i in idx:
            expo[i] += 1
        img = [0] * d
        img[index[tuple(expo)]] = 1
        images[idx] = tuple(img)
    return KLinearMap(k=k, n=n, target_dim=d, basis_images=images)


def _exponent_vectors(n: int, k: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(k,)]
    out = []
    for first in range(k, -1, -1):
        for rest in _exponent_vectors(n - 1, k - first):
            out.append((first,) + rest)
    return out


# ---------------------------------------------------------------------------
# user-supplied map files


def map_to_doc(kmap: KLinearMap) -> dict:
    entries = [
        {"index": list(idx), "image": [str(Fraction(a)) for a in img]}
        for idx, img in sorted(kmap.basis_images.items())
    ]
    return {"k": kmap.k, "n": kmap.n, "D": kmap.target_dim, "basis_images": entries}


def map_from_doc(doc: dict) -> KLinearMap:
    """The map a document describes; its callers read a defect as an InputError (errors.reading)."""
    k, n, dim = (int_from_doc(doc[name], name) for name in ("k", "n", "D"))
    check_caps("k-linear map", k=k, n=n, D=dim, basis_images=len(doc["basis_images"]))
    with reading("basis_images"):
        images = {tuple(int_from_doc(i, "index") for i in e["index"]): tuple(Fraction(s) for s in e["image"])
                  for e in doc["basis_images"]}
    return KLinearMap(k=k, n=n, target_dim=dim, basis_images=images)


def load_map(path: str) -> KLinearMap:
    with open(path) as fh, reading(f"cannot load map {path}"):
        return map_from_doc(json.load(fh))
