"""Family adapters: one uniform line-step interface over both engines.

The sequence builder only ever needs three things from a family: a
certified start point, exact membership, and a line step through a given
point inside a given subspace.  Each adapter also knows how to re-check
the certificates it emits, so the auditor can stay family-agnostic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import multilinear as ml
from . import quadric as qd
from .exact_geometry import (
    ProjPointQ,
    ProjSubspaceQ,
    RatVec,
    primitive,
    subspace_span,
    vec_add,
    vec_scale,
)


@dataclass(frozen=True)
class TracePoint:
    point: ProjPointQ
    witness: tuple[RatVec, ...] | None = None


@dataclass(frozen=True)
class SearchBudget:
    max_height: int = 6
    multiplier_bits: int = 4096


class QuadricAdapter:
    kind = "quadric"

    def __init__(self, form: qd.QuadraticFormQ, witness: qd.HyperbolicWitness):
        if not qd.validate_witness(form, witness):
            raise qd.InvalidWitness("witness does not certify two hyperbolic planes")
        self.form = form
        self.hyp_witness = witness
        self.ambient_dim = form.dim

    def descriptor(self) -> dict:
        w = self.hyp_witness
        return {
            "kind": "quadric",
            "dim": self.form.dim,
            "gram": [[str(a) for a in row] for row in self.form.gram],
            "witness": {
                "u1": [str(a) for a in w.u1],
                "v1": [str(a) for a in w.v1],
                "u2": [str(a) for a in w.u2],
                "v2": [str(a) for a in w.v2],
            },
        }

    def start(self) -> TracePoint:
        return TracePoint(primitive(self.hyp_witness.u1))

    def member(self, tp: TracePoint) -> bool:
        return qd.on_quadric(self.form, tp.point)

    def line_step(
        self, tp: TracePoint, h: ProjSubspaceQ, budget: SearchBudget, rng: random.Random | None
    ) -> tuple[TracePoint, dict]:
        s = qd.s_h_quadric(self.form, h, tp.point)
        if s == 0:
            raise ml.StepPreconditionError("line step needs the point inside the subspace")
        _, z = qd.line_in_quadric_through(
            self.form, self.hyp_witness, tp.point, h, s, height=budget.max_height, rng=rng
        )
        return TracePoint(z), {"kind": "quadric", "s_at_x": s}

    def check_certificate(
        self,
        x: TracePoint,
        z: TracePoint,
        b: int,
        h: ProjSubspaceQ,
        cert: dict,
        sample_range: int = 20,
    ) -> list[str]:
        """Exact re-verification of one recorded step; returns failure messages."""
        fails: list[str] = []
        form = self.form
        s = int(cert.get("s_at_x", -1))
        actual_s = qd.s_h_quadric(form, h, x.point)
        if actual_s != s:
            fails.append(f"recorded score {s} but recomputed {actual_s}")
        if s < 1:
            fails.append("step from a point with score 0")
        xr, zr = x.point.rep, z.point.rep
        qx, bxz, qz = form.q(xr), form.bilinear(xr, zr), form.q(zr)
        if qz != 0:
            fails.append("line generator not on the quadric")
        if bxz != 0:
            fails.append("line not totally isotropic (generators not orthogonal)")
        if subspace_span([xr, zr], form.dim).rank != 2:
            fails.append("degenerate line: z proportional to x")
        for lam in range(-sample_range, sample_range + 1):
            y = vec_add(vec_scale(lam, xr), zr)
            if all(a == 0 for a in y):
                fails.append(f"line point at {lam} vanishes")
                continue
            if lam * lam * qx + 2 * lam * bxz + qz != 0:  # q(y), expanded by bilinearity
                fails.append(f"line leaves the quadric at multiplier {lam}")
                continue
            sy = qd.s_h_quadric(form, h, primitive(y))
            if sy >= s:
                fails.append(f"score fails to drop at multiplier {lam}: {sy} >= {s}")
        x_next = primitive(vec_add(vec_scale(b, xr), zr))
        if qd.s_h_quadric(form, h, x_next) >= actual_s:
            fails.append("score fails to drop at the chosen multiplier")
        return fails


class KLinearAdapter:
    def __init__(self, kmap: ml.KLinearMap, kind: str, params: dict | None = None,
                 start_witness: Sequence[Sequence] | None = None):
        self.kmap = kmap
        self.kind = kind
        self.params = dict(params or {})
        self.ambient_dim = kmap.target_dim
        self._start_witness = start_witness

    def descriptor(self) -> dict:
        if self.kind in ("grassmann", "prodforms"):
            return {"kind": self.kind, "n": self.params["n"], "k": self.params["k"]}
        entries = [
            {"index": list(idx), "image": [str(Fraction(a)) for a in img]}
            for idx, img in sorted(self.kmap.basis_images.items())
        ]
        return {
            "kind": "klinear",
            "k": self.kmap.k,
            "n": self.kmap.n,
            "D": self.kmap.target_dim,
            "basis_images": entries,
        }

    def start(self) -> TracePoint:
        if self._start_witness is not None:
            wp = ml.witnessed_point(self.kmap, self._start_witness)
            return TracePoint(wp.point, wp.witness)
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
        if tp.witness is None:
            return False
        img = ml.evaluate(self.kmap, tp.witness)
        if all(a == 0 for a in img):
            return False
        return primitive(img) == tp.point

    def line_step(
        self, tp: TracePoint, h: ProjSubspaceQ, budget: SearchBudget, rng: random.Random | None
    ) -> tuple[TracePoint, dict]:
        wp = ml.WitnessedPoint(tp.point, tp.witness)
        z, cert = ml.line_step(self.kmap, wp, h, ml.OutsideSearchBudget(budget.max_height), rng)
        cert_doc = {
            "kind": "klinear",
            "slot": cert.slot,
            "m": cert.m,
            "anchor_scale": str(cert.anchor_scale),
            "z_scale": str(cert.z_scale),
            "beta_point": [str(a) for a in cert.beta.point.rep],
            "beta_witness": [[str(c) for c in v] for v in cert.beta.witness],
            "beta_prime": None if cert.beta_prime is None else [str(a) for a in cert.beta_prime],
        }
        return TracePoint(z.point, z.witness), cert_doc

    def _cert_from_doc(self, cert: dict) -> ml.LineCertificate:
        beta_witness = tuple(tuple(Fraction(c) for c in v) for v in cert["beta_witness"])
        beta = ml.WitnessedPoint(
            ProjPointQ(tuple(int(Fraction(a)) for a in cert["beta_point"])), beta_witness
        )
        beta_prime = cert.get("beta_prime")
        return ml.LineCertificate(
            slot=int(cert["slot"]),
            m=int(cert["m"]),
            anchor_scale=Fraction(cert["anchor_scale"]),
            z_scale=Fraction(cert["z_scale"]),
            beta=beta,
            beta_image=ml.evaluate(self.kmap, beta_witness),
            beta_prime=None if beta_prime is None else tuple(Fraction(a) for a in beta_prime),
        )

    def check_certificate(
        self,
        x: TracePoint,
        z: TracePoint,
        b: int,
        h: ProjSubspaceQ,
        cert_doc: dict,
        sample_range: int = 20,
    ) -> list[str]:
        """Exact re-verification of one recorded step; returns failure messages."""
        fails: list[str] = []
        kmap = self.kmap
        cert = self._cert_from_doc(cert_doc)
        beta = cert.beta
        if primitive(cert.beta_image) != beta.point:
            fails.append("beta witness does not certify beta")
        if h.contains_point(beta.point):
            fails.append("beta lies inside the subspace")
        m = ml.shared_count(x.witness, beta.witness)
        if m != cert.m:
            fails.append(f"recorded slot agreement {cert.m} but witnesses share {m}")
        if cert.beta_prime is not None:
            bp = primitive(cert.beta_prime)
            if not h.contains_point(bp):
                fails.append("companion base point escapes the subspace")
            expect = ml.evaluate(kmap, _replace(beta.witness, cert.slot, x.witness[cert.slot]))
            if not _proportional(expect, cert.beta_prime):
                fails.append("recorded companion base does not match the witnesses")
        if z.point == x.point:
            fails.append("degenerate line: z proportional to x")
        x_wp = ml.WitnessedPoint(x.point, x.witness)
        z_wp = ml.WitnessedPoint(z.point, z.witness)
        if ml.evaluate(kmap, x.witness) != tuple(
            cert.anchor_scale * a for a in x.point.rep
        ):
            fails.append("anchor scale does not match the anchor witness")
        if ml.evaluate(kmap, z.witness) != tuple(cert.z_scale * a for a in z.point.rep):
            fails.append("z scale does not match the z witness")
        samples = sorted(set(range(-sample_range, sample_range + 1)) | {b})
        for bb in samples:
            y = vec_add(vec_scale(bb, x.point.rep), z.point.rep)
            if all(a == 0 for a in y):
                fails.append(f"line point at {bb} vanishes")
                continue
            w = ml.line_witness(cert, x_wp, z_wp, bb)
            if ml.evaluate(kmap, w) != tuple(Fraction(a) for a in y):
                fails.append(f"line witness fails at multiplier {bb}")
            comp = ml.companion_vector(kmap, cert, x_wp, z_wp, bb)
            if all(a == 0 for a in comp):
                fails.append(f"companion vanishes at multiplier {bb}")
            elif h.contains_point(primitive(comp)):
                fails.append(f"companion falls into the subspace at multiplier {bb}")
        return fails


def _replace(witness, slot, vec):
    w = list(witness)
    w[slot] = vec
    return tuple(w)


def _proportional(u: Sequence, v: Sequence) -> bool:
    return primitive(u) == primitive(v)


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def grassmann_adapter(n: int, k: int) -> KLinearAdapter:
    return KLinearAdapter(ml.grassmann_map(n, k), "grassmann", {"n": n, "k": k})


def prodforms_adapter(n: int, k: int) -> KLinearAdapter:
    return KLinearAdapter(ml.prodforms_map(n, k), "prodforms", {"n": n, "k": k})


def quadric_adapter(form: qd.QuadraticFormQ, witness: qd.HyperbolicWitness) -> QuadricAdapter:
    return QuadricAdapter(form, witness)


def adapter_from_descriptor(d: dict):
    kind = d.get("kind")
    if kind == "grassmann":
        return grassmann_adapter(int(d["n"]), int(d["k"]))
    if kind == "prodforms":
        return prodforms_adapter(int(d["n"]), int(d["k"]))
    if kind == "quadric":
        gram = tuple(tuple(Fraction(a) for a in row) for row in d["gram"])
        w = d["witness"]
        wit = qd.HyperbolicWitness(
            tuple(int(a) for a in w["u1"]),
            tuple(int(a) for a in w["v1"]),
            tuple(int(a) for a in w["u2"]),
            tuple(int(a) for a in w["v2"]),
        )
        return QuadricAdapter(qd.QuadraticFormQ(gram), wit)
    if kind == "klinear":
        images = {
            tuple(int(i) for i in e["index"]): tuple(Fraction(s) for s in e["image"])
            for e in d["basis_images"]
        }
        kmap = ml.KLinearMap(k=int(d["k"]), n=int(d["n"]), target_dim=int(d["D"]), basis_images=images)
        return KLinearAdapter(kmap, "klinear")
    raise ValueError(f"unknown family kind {kind!r}")
