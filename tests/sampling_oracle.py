"""The sampled score-drop check, kept as the oracle for the exact proofs.

These are the certificate checks ``verify`` ran before the score drop was
proven for every multiplier: they test the drop at the multipliers
|b| <= sample_range and at the chosen b only.  Tests compare their
verdicts with ``QuadricAdapter.check_certificate`` and
``KLinearAdapter.check_certificate``.
"""

from __future__ import annotations

from fractions import Fraction

from maxsing import multilinear as ml
from maxsing import quadric as qd
from maxsing.exact_geometry import primitive, subspace_span, vec_add, vec_scale

from kernel_oracles import evaluate


def companion_vector(kmap, cert: ml.LineCertificate, x, z, b) -> tuple:
    """Image of beta's witness with the same slot combination as the line point b*x + z."""
    lam = Fraction(b) / cert.anchor_scale
    mu = 1 / cert.z_scale
    xs = x.witness[cert.slot]
    ys = z.witness[cert.slot]
    w = list(cert.beta.witness)
    w[cert.slot] = tuple(lam * a + mu * c for a, c in zip(xs, ys))
    return evaluate(kmap, w)


def sampled_quadric_check(adapter, x, z, b, h, cert, sample_range=20) -> list[str]:
    fails = []
    form = adapter.form
    s = int(cert.get("s_at_x", -1))
    actual_s = qd.s_h_quadric(form, h, x.point)
    if actual_s != s:
        fails.append(f"recorded score {s} but recomputed {actual_s}")
    if s < 1:
        fails.append("step from a point with score 0")
    xr, zr = x.point, z.point
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
        if lam * lam * qx + 2 * lam * bxz + qz != 0:
            fails.append(f"line leaves the quadric at multiplier {lam}")
            continue
        sy = qd.s_h_quadric(form, h, primitive(y))
        if sy >= s:
            fails.append(f"score fails to drop at multiplier {lam}: {sy} >= {s}")
    x_next = primitive(vec_add(vec_scale(b, xr), zr))
    if qd.s_h_quadric(form, h, x_next) >= actual_s:
        fails.append("score fails to drop at the chosen multiplier")
    return fails


def sampled_klinear_check(adapter, x, z, b, h, cert_doc, sample_range=20) -> list[str]:
    fails = []
    kmap = adapter.kmap
    cert = adapter._cert_from_doc(cert_doc)
    beta = cert.beta
    if primitive(evaluate(kmap, beta.witness)) != beta.point:
        fails.append("beta witness does not certify beta")
    if h.contains(beta.point):
        fails.append("beta lies inside the subspace")
    m = ml.shared_count(x.witness, beta.witness)
    if m != cert.m:
        fails.append(f"recorded slot agreement {cert.m} but witnesses share {m}")
    if cert.beta_prime is not None:
        if not h.contains(primitive(cert.beta_prime)):
            fails.append("companion base point escapes the subspace")
        w = list(beta.witness)
        w[cert.slot] = x.witness[cert.slot]
        if primitive(evaluate(kmap, w)) != primitive(cert.beta_prime):
            fails.append("recorded companion base does not match the witnesses")
    if z.point == x.point:
        fails.append("degenerate line: z proportional to x")
    if evaluate(kmap, x.witness) != tuple(cert.anchor_scale * a for a in x.point):
        fails.append("anchor scale does not match the anchor witness")
    if evaluate(kmap, z.witness) != tuple(cert.z_scale * a for a in z.point):
        fails.append("z scale does not match the z witness")
    for bb in sorted(set(range(-sample_range, sample_range + 1)) | {b}):
        y = vec_add(vec_scale(bb, x.point), z.point)
        if all(a == 0 for a in y):
            fails.append(f"line point at {bb} vanishes")
            continue
        w = ml.line_witness(x.witness, z.witness, cert.slot, cert.anchor_scale, cert.z_scale, bb)
        if evaluate(kmap, w) != tuple(Fraction(a) for a in y):
            fails.append(f"line witness fails at multiplier {bb}")
        comp = companion_vector(kmap, cert, x, z, bb)
        if all(a == 0 for a in comp):
            fails.append(f"companion vanishes at multiplier {bb}")
        elif h.contains(primitive(comp)):
            fails.append(f"companion falls into the subspace at multiplier {bb}")
    return fails


def verdict(check, *args) -> bool:
    """True iff the check passes; an exception counts as a failure, as in ``verify``."""
    try:
        return not check(*args)
    except (ValueError, RuntimeError, KeyError):
        return False
