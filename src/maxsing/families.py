"""Family adapters: one uniform line-step interface over both engines.

The builder and the auditor reach a family through five calls only:
``start()``, a certified start point; ``member(tp)``, exact membership;
``line_step(tp, h, budget, rng, factors)``, a line through the point x
inside H, as (z, the certificate document, witness_at, the line's
MovingLine), z centred on x (exact_geometry.centring_shift) and
witness_at(b) the witness of primitive(z + b*x), None on a quadric;
``moving_line(x, z, factors)``, the moving coordinates of a recorded
line (MovingLine); and ``check_certificate``, the exact re-check of a
recorded step.  The adapter alone writes the certificate document.
``factors`` are x's Segre factors on a form whose integer rows are
split4's (QuadricAdapter.segre), which lift returns with each next
point, and None elsewhere (the plain line).  Points are primitive
integer tuples and travel in TracePoints, with their witnesses.  A trace
holds its adapter: the trace reader builds it with
``adapter_from_descriptor`` and checks the entries against its
``ambient_dim`` and ``witness_shape``, and the writer stores its
``descriptor()``.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import partial

from . import multilinear as ml
from . import quadric as qd
from .errors import GeometryError, InputError, reading
from .exact_geometry import (
    ProjSubspaceQ,
    TracePoint,
    centring_shift,
    int_from_doc,
    norm_sq,
    primitive,
    rank,
    vec_add,
    vec_scale,
)


SearchBudget = namedtuple("SearchBudget", "max_height multiplier_bits", defaults=(6, 4096))

# The line through x and z in moving coordinates: the points of the line are
# (e + b a) ⊗ k with x = a ⊗ k, z = e ⊗ k, kept_sq = |k|^2, and lift(p) gives
# (the point p ⊗ k with canonical sign, its factors, p with that sign).  On
# split4 a and e are the moving Segre factors (quadric.segre); a plain line
# has a = x, e = z, k = (1), kept_sq = 1 and no factors.
MovingLine = namedtuple("MovingLine", "a e kept_sq lift")


def _plain_lift(p: tuple) -> tuple[tuple, None, tuple]:
    q = p if next(a for a in p if a) > 0 else tuple(-a for a in p)
    return q, None, q


def plain_line(x: Sequence[int], z: Sequence[int]) -> MovingLine:
    return MovingLine(x, z, 1, _plain_lift)


class QuadricAdapter:
    kind = "quadric"
    # a clean check_certificate and the step check put x_next on the quadric
    # (verifier.check_conditions), so the audit does not evaluate q(x_next)
    certificate_proves_next_member = True
    # points carry no witness, so a trace's z_witness has no shape to check
    witness_shape = None

    def __init__(self, form: qd.QuadraticFormQ, witness: qd.HyperbolicWitness):
        if not qd.validate_witness(form, witness):
            raise InputError("witness does not certify two hyperbolic planes")
        self.form = form
        self.hyp_witness = witness
        self.ambient_dim = form.dim
        # the Segre path: only a form whose integer rows are split4's
        self.segre = form._int_rows == qd.SPLIT4_ROWS

    def descriptor(self) -> dict:
        return {"kind": "quadric", **qd.form_to_doc(self.form, self.hyp_witness)}

    def start(self) -> TracePoint:
        return TracePoint(primitive(self.hyp_witness.u1))

    def member(self, tp: TracePoint) -> bool:
        return qd.on_quadric(self.form, tp.point)

    def _factors(self, x: Sequence[int], factors):
        """x's Segre factors: ``factors`` when given, else from x (quadric.segre_factors); None off split4."""
        if not self.segre:
            return None
        return qd.segre_factors(x) if factors is None else factors

    def line_step(
        self, tp: TracePoint, h: ProjSubspaceQ, budget: SearchBudget, rng: random.Random | None,
        factors=None,
    ) -> tuple[TracePoint, dict, Callable, MovingLine]:
        """The line of quadric.line_in_quadric_through, centred on x in its moving coordinates.

        On split4 the search and the centring run on x's Segre factors, with
        the same z.  The shift of centring_shift is the same in moving
        coordinates: with x = a ⊗ k and z = e ⊗ k, |x|^2 = |a|^2 |k|^2 and
        x.z = (a.e) |k|^2, and |k|^2 cancels in the quotient.
        """
        x = tp.point
        s = qd.s_h_quadric(self.form, h, x)
        if s == 0:
            raise GeometryError("line step needs the point inside the subspace")
        factors = self._factors(x, factors)
        z = qd.line_in_quadric_through(
            self.form, self.hyp_witness, x, h, s, height=budget.max_height, rng=rng, factors=factors
        )
        line = self.moving_line(x, z, factors)
        r = centring_shift(line.a, line.e)
        if r:
            z, _, e = line.lift(primitive(vec_add(line.e, vec_scale(r, line.a))))
            line = line._replace(e=e)
        return TracePoint(z), {"kind": "quadric", "s_at_x": s}, lambda b: None, line

    def moving_line(self, x: Sequence[int], z: Sequence[int], factors=None) -> MovingLine:
        """The line through x and z on x's Segre factors, when z is on a ruling through x; else the plain line.

        Off split4, or when x does not factor (quadric.segre_factors) or z
        is on neither ruling (quadric.segre_split), the line is plain.  Every
        split is checked exactly, so the line's points are those of z + b x.
        """
        uv = self._factors(x, factors)
        split = None if uv is None else qd.segre_split(*uv, z)
        if split is None:
            return plain_line(x, z)
        e, first = split
        a, k = uv if first else uv[::-1]
        return MovingLine(a, e, norm_sq(k), partial(qd.segre_lift, k=k, first=first))

    def check_certificate(
        self, x: TracePoint, z: TracePoint, h: ProjSubspaceQ, cert: dict
    ) -> list[str]:
        """Exact re-verification of one recorded step; returns failure messages.

        Proves the score drop at every point y = λx + z of the line (λ
        rational, so every multiplier) with one check, no sampling.  With
        q(x) = 0 (s_h_quadric raises otherwise), q(z) = 0 and b(x, z) = 0,
        q(y) = λ²q(x) + 2λb(x, z) + q(z) = 0, and rank(x, z) = 2 keeps y
        nonzero.  Let s be the recomputed score of x.

        - s = 1: x ∈ H, so y ∈ H iff z ∈ H.  Every y has score 0 iff
          z ∉ H; otherwise every y has score at least 1.
        - s = 2: H = x^⊥, and b(x, z) = 0 puts z and so every y in H.  y
          keeps score 2 iff A·y is a nonzero multiple of A·x, and its
          score is undefined (a GeometryError) iff A·y = 0.  A·y =
          λA·x + A·z meets span(A·x) for some λ iff A·z ∈ span(A·x), and
          then for every λ.  A·x ≠ 0, so every y has score at most 1 iff
          rank(A·x, A·z) = 2, that is z ∉ span(x) + rad(q).
        """
        if cert.get("kind") != "quadric":
            return [f"certificate kind {cert.get('kind')!r:.40} is not 'quadric'"]
        fails: list[str] = []
        form = self.form
        s = int_from_doc(cert.get("s_at_x"), "certificate s_at_x")
        actual_s = qd.s_h_quadric(form, h, x.point)
        if actual_s != s:
            fails.append(f"recorded score {s} but recomputed {actual_s}")
        xr, zr = x.point, z.point
        if form.q(zr) != 0:
            fails.append("line generator not on the quadric")
        if form.bilinear(xr, zr) != 0:
            fails.append("line not totally isotropic (generators not orthogonal)")
        if rank([xr, zr]) != 2:
            fails.append("degenerate line: z proportional to x")
        if actual_s == 0:
            fails.append("step from a point with score 0")
        elif actual_s == 1 and h.contains(zr):
            fails.append("score fails to drop along the line: z lies in the subspace")
        elif actual_s == 2 and rank([form.apply(xr), form.apply(zr)]) != 2:
            fails.append("score fails to drop along the line: z lies in span(x) + rad(q)")
        return fails


class KLinearAdapter:
    # x_next's witness is a separate stored field, which the audit checks
    certificate_proves_next_member = False

    def __init__(self, kmap: ml.KLinearMap, kind: str):
        self.kmap = kmap
        self.kind = kind
        self.ambient_dim = kmap.target_dim
        # k slots of n coordinates, which a trace's z_witness must have
        self.witness_shape = (kmap.k, kmap.n)

    def descriptor(self) -> dict:
        if self.kind in ("grassmann", "prodforms"):
            return {"kind": self.kind, "n": self.kmap.n, "k": self.kmap.k}
        return {"kind": "klinear", **ml.map_to_doc(self.kmap)}

    def start(self) -> TracePoint:
        if self.kind == "grassmann":
            witness = tuple(_unit(self.kmap.n, i) for i in range(self.kmap.k))
        elif self.kind == "prodforms":
            witness = tuple(_unit(self.kmap.n, 0) for _ in range(self.kmap.k))
        else:
            witness = next(
                tuple(_unit(self.kmap.n, i) for i in idx)
                for idx in sorted(self.kmap.basis_images)
                if any(a != 0 for a in self.kmap.basis_images[idx])
            )
        wp = ml.witnessed_point(self.kmap, witness)
        return TracePoint(wp.point, wp.witness)

    def member(self, tp: TracePoint) -> bool:
        w = tp.witness
        if w is None or len(w) != self.kmap.k or any(len(v) != self.kmap.n for v in w):
            return False
        img = ml.integer_image(self.kmap, w)[1]
        return any(img) and primitive(img) == tp.point

    def line_step(
        self, tp: TracePoint, h: ProjSubspaceQ, budget: SearchBudget, rng: random.Random | None,
        factors=None,
    ) -> tuple[TracePoint, dict, Callable, MovingLine]:
        z, cert = ml.line_step(self.kmap, tp, h, budget.max_height, rng)
        cert_doc = {
            "kind": "klinear",
            "slot": cert.slot,
            "m": cert.m,
            "anchor_scale": str(cert.anchor_scale),
            "z_scale": str(cert.z_scale),
            "beta_point": [str(a) for a in cert.beta.point],
            "beta_witness": ml.witness_to_doc(cert.beta.witness),
            "beta_prime": None if cert.beta_prime is None else [str(a) for a in cert.beta_prime],
        }
        witness_at = partial(ml.line_witness, tp.witness, z.witness, cert.slot, cert.anchor_scale, cert.z_scale)
        return z, cert_doc, witness_at, plain_line(tp.point, z.point)

    def moving_line(self, x: Sequence[int], z: Sequence[int], factors=None) -> MovingLine:
        return plain_line(x, z)

    def _cert_from_doc(self, cert: dict) -> ml.LineCertificate:
        """The certificate from its document; an InputError names a malformed field."""

        def field(name: str, parse):
            with reading(f"certificate {name}"):
                return parse(cert[name])

        beta_point = tuple(int_from_doc(a, "certificate beta_point") for a in field("beta_point", _list))
        return ml.LineCertificate(
            slot=int_from_doc(cert.get("slot"), "certificate slot"),
            m=int_from_doc(cert.get("m"), "certificate m"),
            anchor_scale=field("anchor_scale", Fraction),
            z_scale=field("z_scale", Fraction),
            beta=TracePoint(beta_point,
                            ml.witness_from_doc(cert.get("beta_witness"), "certificate beta_witness")),
            beta_prime=None if cert.get("beta_prime") is None else field(
                "beta_prime", lambda v: tuple(map(ml.rational_from_doc, _list(v)))),
        )

    def check_certificate(
        self, x: TracePoint, z: TracePoint, h: ProjSubspaceQ, cert_doc: dict
    ) -> list[str]:
        """Exact re-verification of one recorded step; returns failure messages.

        Proves, for every rational multiplier b at once, that the line
        point b·x + z lies in the image and that its companion stays
        outside H.  Let M be the map, t the certificate slot,
        xs = x.witness[t], ys = z.witness[t], λ = b/anchor_scale and
        μ = 1/z_scale (the scales are checked nonzero).  The line point's
        witness w_b is x's witness with slot t set to λ·xs + μ·ys
        (``ml.line_witness``), and its companion c_b is β's witness with
        the same slot.

        - w_b maps to b·x + z.  M is linear in slot t, so
          M(w_b) = λ·M(x.witness) + μ·M(x.witness with slot t set to ys).
          z's witness equals x's outside slot t, so the second witness is
          z's, and the scale checks turn the sum into
          λ·anchor_scale·x + μ·z_scale·z = b·x + z.
        - c_b maps to λ·E′ + μ·E_y, E′ and E_y being M at β's witness
          with slot t set to xs and to ys.  E′ is 0 or in H and E_y is
          outside H.  Were λ·E′ + μ·E_y in H, then so would be E_y, as
          μ ≠ 0; so it is outside H, and in particular nonzero.

        The recorded beta_prime must be null iff E′ = 0, and otherwise
        proportional to E′.

        Every image is decided on integers: ``ml.integer_image`` gives
        (s, img) with M(w) = img/s and s > 0.  Dividing by s > 0 keeps a
        vector zero or nonzero, keeps its point (``primitive``), its
        membership in H (``in_span``) and its proportionality to any
        other vector, so those tests read img in place of img/s.  A scale
        check M(w) = (num/den)·rep, den > 0, is img_j/s = num·rep_j/den for
        every j, that is img_j·den = num·s·rep_j once both sides are
        multiplied by s·den > 0.  Only the two scales are Fractions.
        """
        if cert_doc.get("kind") != "klinear":
            return [f"certificate kind {cert_doc.get('kind')!r:.40} is not 'klinear'"]
        kmap = self.kmap
        cert = self._cert_from_doc(cert_doc)
        beta_image = ml.integer_image(kmap, cert.beta.witness)[1]
        t = cert.slot
        if not 0 <= t < kmap.k:
            return [f"certificate slot {t} outside 0..{kmap.k - 1}"]
        if x.witness is None:
            return ["witness is missing"]
        if z.witness is None:
            return ["z_witness is missing"]
        fails: list[str] = []
        beta = cert.beta
        if primitive(beta_image) != beta.point:
            fails.append("beta witness does not certify beta")
        if h.contains(beta.point):
            fails.append("beta lies inside the subspace")
        m = ml.shared_count(x.witness, beta.witness)
        if m != cert.m:
            fails.append(f"recorded slot agreement {cert.m} but witnesses share {m}")
        if z.point == x.point:
            fails.append("degenerate line: z proportional to x")
        if ml.replace_slot(z.witness, t, x.witness[t]) != x.witness:
            fails.append("z witness differs from the anchor witness outside the certificate slot")
        if cert.anchor_scale == 0:
            fails.append("anchor scale is zero")
        if cert.z_scale == 0:
            fails.append("z scale is zero")
        if not _maps_to(ml.integer_image(kmap, x.witness), cert.anchor_scale, x.point):
            fails.append("anchor scale does not match the anchor witness")
        if not _maps_to(ml.integer_image(kmap, z.witness), cert.z_scale, z.point):
            fails.append("z scale does not match the z witness")
        e_prime = ml.integer_image(kmap, ml.replace_slot(beta.witness, t, x.witness[t]))[1]
        if any(e_prime):
            if cert.beta_prime is None:
                fails.append("companion base recorded as zero but the witnesses give a nonzero one")
            elif not _proportional(e_prime, cert.beta_prime):
                fails.append("recorded companion base does not match the witnesses")
            if not h.contains(e_prime):
                fails.append("companion base point escapes the subspace")
        elif cert.beta_prime is not None:
            fails.append("recorded companion base is nonzero but the witnesses give zero")
        e_y = ml.integer_image(kmap, ml.replace_slot(beta.witness, t, z.witness[t]))[1]
        if not any(e_y):
            fails.append("companion vanishes along the line")
        elif h.contains(e_y):
            fails.append("companion falls into the subspace along the line")
        return fails


def _list(value) -> list:
    """``value`` if it is a list: a string would be read character by character."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r:.40} is not a list")
    return value


def _proportional(u: Sequence, v: Sequence) -> bool:
    return primitive(u) == primitive(v)


def _maps_to(image: tuple[int, list[int]], scale: Fraction, rep: Sequence[int]) -> bool:
    """img/s == scale·rep for image = (s, img), s > 0: img_j·den == num·s·rep_j for every j."""
    s, img = image
    num, den = scale.numerator, scale.denominator
    ns = num * s
    return len(img) == len(rep) and all(a * den == ns * r for a, r in zip(img, rep))


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def grassmann_adapter(n: int, k: int) -> KLinearAdapter:
    return KLinearAdapter(ml.grassmann_map(n, k), "grassmann")


def prodforms_adapter(n: int, k: int) -> KLinearAdapter:
    return KLinearAdapter(ml.prodforms_map(n, k), "prodforms")


def quadric_adapter(form: qd.QuadraticFormQ, witness: qd.HyperbolicWitness) -> QuadricAdapter:
    return QuadricAdapter(form, witness)


def adapter_from_descriptor(d: dict):
    """The adapter a trace's family descriptor names; any defect raises an InputError naming the field."""
    with reading("family"):
        kind = d.get("kind")
        if kind in ("grassmann", "prodforms"):
            maker = grassmann_adapter if kind == "grassmann" else prodforms_adapter
            return maker(int_from_doc(d["n"], "n"), int_from_doc(d["k"], "k"))
        if kind == "quadric":
            return QuadricAdapter(*qd.form_from_doc(d))
        if kind == "klinear":
            return KLinearAdapter(ml.map_from_doc(d), "klinear")
        raise InputError(f"unknown kind {kind!r:.40}")
