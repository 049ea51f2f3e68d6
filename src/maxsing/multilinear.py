"""k-linear maps over Q: evaluation, witnesses, and line construction.

A point of the projectivized image is always carried together with a
witness (a k-tuple of rational source vectors mapping onto it), because
witness slot agreement is what certifies the line constructions: two
image points whose witnesses agree in many slots lie on checkable
rational lines inside the image.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Sequence

from .exact_geometry import (
    DimensionMismatch,
    ProjPointQ,
    ProjSubspaceQ,
    RatVec,
    ZeroVector,
    primitive,
    rank,
    wedge_sq,
)


class InvalidParameters(ValueError):
    pass


class BudgetExhausted(RuntimeError):
    pass


class DegenerateLine(RuntimeError):
    pass


class StepPreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class KLinearMap:
    """A k-linear map (Q^n)^k -> Q^D given by its values on basis tuples.

    ``basis_images`` maps index tuples (i_1, ..., i_k) to image vectors;
    missing tuples are zero.  The images must span Q^D (checked here);
    everything downstream relies on that to escape proper subspaces.
    """

    k: int
    n: int
    target_dim: int
    basis_images: dict[tuple[int, ...], tuple]

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise InvalidParameters("k and n must be positive")
        if self.target_dim < 3:
            raise InvalidParameters("target dimension must be at least 3")
        for idx, img in self.basis_images.items():
            if len(idx) != self.k or any(not 0 <= i < self.n for i in idx):
                raise InvalidParameters(f"bad basis index {idx}")
            if len(img) != self.target_dim:
                raise DimensionMismatch(f"image of {idx} has dim {len(img)}")
        if rank(self.basis_images.values()) != self.target_dim:
            raise InvalidParameters("basis images do not span the target space")

    def __hash__(self):
        return hash((self.k, self.n, self.target_dim))


def evaluate(kmap: KLinearMap, vectors: Sequence[Sequence]) -> tuple:
    """Evaluate the map on a k-tuple of rational vectors, exactly."""
    if len(vectors) != kmap.k:
        raise DimensionMismatch(f"need {kmap.k} vectors, got {len(vectors)}")
    for v in vectors:
        if len(v) != kmap.n:
            raise DimensionMismatch(f"source vectors must have dim {kmap.n}")
    supports = [[(i, c) for i, c in enumerate(v) if c != 0] for v in vectors]
    acc = [Fraction(0)] * kmap.target_dim
    for combo in itertools.product(*supports):
        idx = tuple(i for i, _ in combo)
        img = kmap.basis_images.get(idx)
        if img is None:
            continue
        coeff = 1
        for _, c in combo:
            coeff = coeff * c
        for j, a in enumerate(img):
            if a:
                acc[j] += coeff * a
    return tuple(acc)


@dataclass(frozen=True)
class WitnessedPoint:
    """An image point together with a preimage tuple certifying it."""

    point: ProjPointQ
    witness: tuple[RatVec, ...]


def witnessed_point(kmap: KLinearMap, witness: Sequence[Sequence]) -> WitnessedPoint:
    img = evaluate(kmap, witness)
    if all(a == 0 for a in img):
        raise ZeroVector("witness maps to zero")
    return WitnessedPoint(primitive(img), tuple(tuple(Fraction(c) for c in v) for v in witness))


def shared_count(w1: Sequence[Sequence], w2: Sequence[Sequence]) -> int:
    """Number of slots where the two witness tuples are exactly equal."""
    if len(w1) != len(w2):
        raise DimensionMismatch("witness tuples of different length")
    return sum(1 for a, b in zip(w1, w2) if tuple(a) == tuple(b))


@dataclass(frozen=True)
class OutsideSearchBudget:
    """Bounds for the deterministic search for image points outside a subspace."""

    max_height: int = 6


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
    anchor: WitnessedPoint,
    budget: OutsideSearchBudget,
    rng: random.Random | None = None,
) -> Iterator[tuple[int, WitnessedPoint]]:
    """Yield (m, beta) with [beta] outside H, best witness agreement first.

    For m from k-1 down to 0, replaces exactly k-m anchor slots with
    bounded-height integer vectors; m is then a lower-bound certificate
    for the witness agreement between anchor and beta.
    """
    k = kmap.k
    for m in range(k - 1, -1, -1):
        d = k - m
        slot_subsets = list(itertools.combinations(range(k), d))
        for height in range(1, budget.max_height + 1):
            pools = [list(candidate_vectors(kmap.n, hh, rng)) for hh in range(1, height + 1)]
            for subset in slot_subsets:
                for heights in itertools.product(range(height), repeat=d):
                    if max(heights) != height - 1:
                        continue  # only new combinations at this height
                    for repl in itertools.product(*(pools[hh] for hh in heights)):
                        witness = list(anchor.witness)
                        for slot, vec in zip(subset, repl):
                            witness[slot] = tuple(Fraction(c) for c in vec)
                        img = evaluate(kmap, witness)
                        if all(a == 0 for a in img):
                            continue
                        pt = primitive(img)
                        if h.contains_point(pt):
                            continue
                        yield m, WitnessedPoint(pt, tuple(witness))


def find_outside(
    kmap: KLinearMap,
    h: ProjSubspaceQ,
    anchor: WitnessedPoint,
    budget: OutsideSearchBudget,
    rng: random.Random | None = None,
) -> WitnessedPoint:
    """A point of the image outside H maximizing witness slot agreement."""
    if not h.contains_point(anchor.point):
        return anchor
    for _, beta in outside_candidates(kmap, h, anchor, budget, rng):
        return beta
    raise BudgetExhausted(
        f"no image point outside the subspace within height {budget.max_height}"
    )


@dataclass(frozen=True)
class LineCertificate:
    """Audit data for one line step.

    z's witness is x's witness with the stated slot t replaced.  For every
    rational b the point b*x + z then has the witness x's witness with
    slot t set to (b/anchor_scale)*xs + (1/z_scale)*ys (xs, ys: slot t of
    x's and z's witnesses), and the companion, beta's witness with the
    same slot, evaluates to (b/anchor_scale)*beta' + (1/z_scale)*E_y,
    E_y being beta's witness with slot t set to ys.  beta' lies in H (or
    is 0) and E_y outside it, so the companion stays outside H for every
    b.  That pins the witness-agreement drop along the line.
    ``families.KLinearAdapter.check_certificate`` proves it once per step.
    """

    slot: int
    m: int
    anchor_scale: Fraction   # evaluate(x.witness) == anchor_scale * x.rep
    z_scale: Fraction        # evaluate(z.witness) == z_scale * z.rep
    beta: WitnessedPoint
    beta_image: tuple        # evaluate(beta.witness)
    beta_prime: tuple | None  # evaluate(beta.witness with slot <- x slot), None if zero


def line_witness(cert: LineCertificate, x: WitnessedPoint, z: WitnessedPoint, b) -> tuple[RatVec, ...]:
    """Witness for the line point b*x.rep + z.rep."""
    lam = Fraction(b) / cert.anchor_scale
    mu = 1 / cert.z_scale
    xs = x.witness[cert.slot]
    ys = z.witness[cert.slot]
    combined = tuple(lam * a + mu * c for a, c in zip(xs, ys))
    w = list(x.witness)
    w[cert.slot] = combined
    return tuple(w)


def line_step(
    kmap: KLinearMap,
    x: WitnessedPoint,
    h: ProjSubspaceQ,
    budget: OutsideSearchBudget,
    rng: random.Random | None = None,
) -> tuple[WitnessedPoint, LineCertificate]:
    """One line construction through x inside the image.

    Requires [x] in H.  Returns z such that the line {b*x + z} stays in
    the image (witnesses exhibited), z is not proportional to x, and the
    certificate's companion family certifies the witness-agreement drop.
    Among valid candidates the one minimizing |x ∧ z|^2 is kept, which
    controls coordinate growth of the whole construction.
    """
    if not h.contains_point(x.point):
        raise StepPreconditionError("line_step needs a point inside the subspace")
    k = kmap.k
    best = None  # (area, order, z, cert)
    best_m = -1
    order = 0
    for m, beta in outside_candidates(kmap, h, x, budget, rng):
        # bootstrap: improve beta while a replaced slot yields an outside point
        improved = True
        while improved and m < k - 1:
            improved = False
            for t in _differing_slots(x, beta):
                w2 = list(beta.witness)
                w2[t] = x.witness[t]
                img2 = evaluate(kmap, w2)
                if all(a == 0 for a in img2):
                    continue
                p2 = primitive(img2)
                if not h.contains_point(p2):
                    beta = WitnessedPoint(p2, tuple(w2))
                    m += 1
                    improved = True
                    break
        if m < best_m:
            continue
        for t in _differing_slots(x, beta):
            w_z = list(x.witness)
            w_z[t] = beta.witness[t]
            alpha_prime = evaluate(kmap, w_z)
            if all(a == 0 for a in alpha_prime):
                continue
            z_pt = primitive(alpha_prime)
            if z_pt == x.point:
                continue  # degenerate: proportional to x, retry next candidate
            w_bp = list(beta.witness)
            w_bp[t] = x.witness[t]
            beta_prime = evaluate(kmap, w_bp)
            bp_zero = all(a == 0 for a in beta_prime)
            if not bp_zero and not h.contains_point(primitive(beta_prime)):
                continue  # cannot certify this slot; the bootstrap above already tried it
            z = WitnessedPoint(z_pt, tuple(w_z))
            cert = LineCertificate(
                slot=t,
                m=m,
                anchor_scale=_scale_of(kmap, x),
                z_scale=_scale_of(kmap, z),
                beta=beta,
                beta_image=evaluate(kmap, beta.witness),
                beta_prime=None if bp_zero else tuple(beta_prime),
            )
            area = wedge_sq(x.point.rep, z_pt.rep)
            if best is None or m > best_m or (m == best_m and area < best[0]):
                best = (area, order, z, cert)
                best_m = m
            order += 1
        if best is not None and best_m == k - 1 and (m < k - 1 or order > 8):
            break  # nothing can beat a maximal-agreement candidate
    if best is None:
        raise DegenerateLine(
            "no non-degenerate certified line found within the search budget"
        )
    return best[2], best[3]


def _differing_slots(x: WitnessedPoint, beta: WitnessedPoint) -> list[int]:
    return [t for t in range(len(x.witness)) if x.witness[t] != beta.witness[t]]


def _scale_of(kmap: KLinearMap, wp: WitnessedPoint) -> Fraction:
    img = evaluate(kmap, wp.witness)
    j = next(i for i, a in enumerate(wp.point.rep) if a != 0)
    return Fraction(img[j]) / wp.point.rep[j]


# ---------------------------------------------------------------------------
# the two standard instantiations


def grassmann_map(n: int, k: int) -> KLinearMap:
    """The wedge map (Q^n)^k -> Q^C(n,k), Plücker coordinates in lex order."""
    if not (1 <= k < n) or n < 3 or comb(n, k) < 3:
        raise InvalidParameters(f"grassmann map needs 1 <= k < n, n >= 3, C(n,k) >= 3; got n={n}, k={k}")
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
    if n < 2 or n + k < 4:
        raise InvalidParameters(f"product-of-forms map needs n >= 2 and n + k >= 4; got n={n}, k={k}")
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
    images = {
        tuple(int(i) for i in entry["index"]): tuple(Fraction(s) for s in entry["image"])
        for entry in doc["basis_images"]
    }
    return KLinearMap(k=int(doc["k"]), n=int(doc["n"]), target_dim=int(doc["D"]), basis_images=images)


def save_map(kmap: KLinearMap, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(map_to_doc(kmap), fh, indent=2)
        fh.write("\n")


def load_map(path: str) -> KLinearMap:
    with open(path) as fh:
        return map_from_doc(json.load(fh))
