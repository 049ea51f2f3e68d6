"""The exact score-drop proofs against the sampled oracle.

``QuadricAdapter.check_certificate`` and ``KLinearAdapter.check_certificate``
prove the drop for every multiplier.  The sampled checks in
``sampling_oracle`` test it at |b| <= 20 and at the chosen b.  On random
lines of both families, tampered generators, a degenerate form and
k-linear steps re-checked against another subspace, both must give the
same verdict.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from maxsing import multilinear as ml
from maxsing import quadric as qd
from maxsing.errors import SearchExhausted
from maxsing.exact_geometry import TracePoint, primitive, subspace_span
from maxsing.families import QuadricAdapter, SearchBudget, grassmann_adapter, prodforms_adapter

from kernel_oracles import evaluate
from sampling_oracle import sampled_klinear_check, sampled_quadric_check, verdict


def _split4_plus_zero() -> QuadricAdapter:
    """split4 ⊕ 0 on Q^5, whose radical is spanned by e4."""
    form, w = qd.split4()
    gram = tuple(row + (Fraction(0),) for row in form.gram) + ((Fraction(0),) * 5,)
    return QuadricAdapter(qd.QuadraticFormQ(gram),
                          qd.HyperbolicWitness(*(v + (0,) for v in w)))


SPLIT4 = QuadricAdapter(*qd.split4())
DEGENERATE = _split4_plus_zero()
KLINEAR = (grassmann_adapter(4, 2), prodforms_adapter(2, 3), prodforms_adapter(2, 2))


def e(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def _segre(u, v, radical, dim):
    """(u1 v1, u2 v2, u1 v2, -u2 v1), a zero of x0*x1 + x2*x3, plus radical*e4 in Q^5.

    Fixing u and varying v (or the reverse) traces one of the two rulings.
    """
    vec = (u[0] * v[0], u[1] * v[1], u[0] * v[1], -u[1] * v[0])
    return vec + ((radical,) if dim == 5 else ())


def _quadric_case(adapter, x, z, h, b=1):
    x_pt = primitive(x)
    cert = {"kind": "quadric", "s_at_x": qd.s_h_quadric(adapter.form, h, x_pt)}
    return adapter, TracePoint(x_pt), TracePoint(primitive(z)), b, h, cert


def _quadric_verdicts(case):
    adapter, x, z, b, h, cert = case
    return (verdict(adapter.check_certificate, x, z, h, cert),
            verdict(sampled_quadric_check, adapter, x, z, b, h, cert))


def _klinear_verdicts(case):
    adapter, x, z, b, h, cert = case
    return (verdict(adapter.check_certificate, x, z, h, cert),
            verdict(sampled_klinear_check, adapter, x, z, b, h, cert))


pairs = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)
small = st.integers(-3, 3)


@st.composite
def quadric_lines(draw):
    """A line of split4 or split4 ⊕ 0 through x, and a subspace H through x.

    z runs along either ruling through x, may be x itself, and on the
    degenerate form may be a radical vector.  H is x^⊥ (score 2) or the
    span of x with random vectors, sometimes with z (score 1, z ∈ H).
    """
    adapter = draw(st.sampled_from([SPLIT4, DEGENERATE]))
    dim = adapter.ambient_dim
    u, v, w = draw(pairs), draw(pairs), draw(pairs)
    x = _segre(u, v, draw(small), dim)
    kind = draw(st.sampled_from(["first", "second", "radical"] if dim == 5 else ["first", "second"]))
    if kind == "radical":
        z = (0, 0, 0, 0, draw(small.filter(bool)))
    elif kind == "first":
        z = _segre(u, w, draw(small), dim)
    else:
        z = _segre(w, v, draw(small), dim)
    assume(any(z))
    if draw(st.booleans()):
        h = qd.orth_complement(adapter.form, x)
    else:
        extra = draw(st.lists(st.tuples(*[small] * dim), max_size=dim - 2))
        if draw(st.booleans()):
            extra.append(z)
        h = subspace_span([x, *extra], dim)
        assume(h.rank < dim)
    return _quadric_case(adapter, x, z, h, draw(st.integers(1, 60)))


@st.composite
def klinear_steps(draw):
    """A k-linear line step, re-checked against its subspace H or another one.

    The step is built by the adapter, which centres its generator on x.
    Half the time the generator is shifted off centre to z + r·x, a drawn
    r != 0, with the witness ``ml.line_witness`` gives at b = r and a
    recomputed z_scale, which rewrites z's slot; and half the time z's
    witness is tampered with: random vectors in slot t, or in every slot.
    In the "tangent" case x is a square f·f of prodforms(2,2) and H its
    tangent line, which no one-slot change of x's witness leaves,
    so β differs from x in both slots and E′ need not be a multiple of x.
    Re-checking against another subspace through x, or through E_y, puts
    E′ and E_y on either side.
    """
    adapter, tangent = draw(st.sampled_from(
        [(KLINEAR[0], False), (KLINEAR[1], False), (KLINEAR[2], False), (KLINEAR[2], True)]))
    kmap = adapter.kmap
    n, k, dim = kmap.n, kmap.k, kmap.target_dim
    if tangent:
        witness = (tuple(draw(small) for _ in range(n)),) * k
    else:
        witness = tuple(tuple(draw(small) for _ in range(n)) for _ in range(k))
    assume(any(evaluate(kmap, witness)))
    x = ml.witnessed_point(kmap, witness)

    def subspace(*through, extra=True):
        vectors = draw(st.lists(st.tuples(*[small] * dim), max_size=dim - 2)) if extra else []
        h = subspace_span([x.point, *through, *vectors], dim)
        assume(h.rank < dim)
        return h

    def with_slot(w, t, vec):
        return tuple(w[:t]) + (vec,) + tuple(w[t + 1:])

    if tangent:
        h = subspace(*(evaluate(kmap, with_slot(x.witness, t, e(n, i)))
                       for t in range(k) for i in range(n)), extra=False)
    else:
        h = subspace()
    x_tp = TracePoint(x.point, x.witness)
    try:
        z_tp, cert, _, _ = adapter.line_step(x_tp, h, SearchBudget(max_height=1), None)
    except SearchExhausted:
        assume(False)
    if draw(st.booleans()):
        # an uncentred generator of the same line, like the search's winner before line_step centres it
        r = draw(st.integers(-3, 3).filter(bool))
        y = tuple(c + r * a for a, c in zip(x.point, z_tp.point))
        z_pt = primitive(y)
        z_witness = ml.line_witness(x.witness, z_tp.witness, cert["slot"], ml.rational_from_doc(cert["anchor_scale"]),
                                    ml.rational_from_doc(cert["z_scale"]), r)
        j = next(i for i, a in enumerate(z_pt) if a)
        cert = {**cert, "z_scale": ml.rational_to_doc(Fraction(y[j], z_pt[j]))}
        z_tp = TracePoint(z_pt, z_witness)
    if draw(st.booleans()):
        # tampered generator: any vector in slot t keeps the line in the image but moves E_y
        t = cert["slot"]
        ys = tuple(Fraction(draw(small)) for _ in range(n))
        z_witness = with_slot(x.witness, t, ys)
        if draw(st.booleans()):
            # other slots changed too; the proof rejects that even where
            # the line witnesses still evaluate right, the sampled check
            # only where they do not, so compare where they do not
            z_witness = tuple(tuple(Fraction(draw(small)) for _ in range(n)) if i != t else ys
                              for i in range(k))
            assume(evaluate(kmap, z_witness) != evaluate(kmap, with_slot(x.witness, t, ys)))
        img = evaluate(kmap, z_witness)
        assume(any(img))
        z_pt = primitive(img)
        assume(z_pt != x.point)
        j = next(i for i, a in enumerate(z_pt) if a)
        cert = {**cert, "z_scale": ml.rational_to_doc(img[j] / z_pt[j])}
        z_tp = TracePoint(z_pt, z_witness)
    recheck = draw(st.sampled_from(["same", "other", "through E_y"]))
    if recheck == "other":
        h = subspace()
    elif recheck == "through E_y":
        beta_witness = adapter._cert_from_doc(cert).beta.witness
        h = subspace(evaluate(kmap, with_slot(beta_witness, cert["slot"], z_tp.witness[cert["slot"]])))
    return adapter, x_tp, z_tp, draw(st.integers(1, 60)), h, cert


class TestProofMatchesSampling:
    @given(quadric_lines())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_quadric_lines(self, case):
        proof, sampled = _quadric_verdicts(case)
        assert proof == sampled

    @given(klinear_steps())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_klinear_steps(self, case):
        proof, sampled = _klinear_verdicts(case)
        assert proof == sampled

    @pytest.mark.parametrize("adapter, x, z, h_gens, passes", [
        # s = 1 with the generator tampered into H: no line point leaves H
        (SPLIT4, e(4, 0), e(4, 2), [e(4, 0), e(4, 2)], False),
        (SPLIT4, e(4, 0), e(4, 2), [e(4, 0), e(4, 3)], True),
        # s = 2 on split4 ⊕ 0, H = x^⊥: a radical z keeps A·y on span(A·x)
        (DEGENERATE, e(5, 0), e(5, 4), None, False),
        (DEGENERATE, e(5, 0), (0, 0, 1, 0, 1), None, True),
        (SPLIT4, e(4, 0), e(4, 2), None, True),
    ])
    def test_named_quadric_cases(self, adapter, x, z, h_gens, passes):
        dim = adapter.ambient_dim
        h = qd.orth_complement(adapter.form, x) if h_gens is None else subspace_span(h_gens, dim)
        assert _quadric_verdicts(_quadric_case(adapter, x, z, h)) == (passes, passes)

    def test_klinear_companion_base_outside(self):
        """E′ outside H fails both checks, with beta_prime recorded honestly.

        Every one-slot change of e0 ∧ e1 stays in H = {p23 = 0}, so β
        differs from x in both slots (m = 0) and E′ is not a multiple of x.
        """
        adapter = grassmann_adapter(4, 2)
        x = ml.witnessed_point(adapter.kmap, [e(4, 0), e(4, 1)])
        h = subspace_span([e(6, i) for i in range(5)], 6)
        x_tp = TracePoint(x.point, x.witness)
        z_tp, cert, _, _ = adapter.line_step(x_tp, h, SearchBudget(max_height=1), None)
        assert cert["m"] == 0 and cert["beta_prime"] is not None
        h_small = subspace_span([x.point], 6)
        fails = adapter.check_certificate(x_tp, z_tp, h_small, cert)
        assert "companion base point escapes the subspace" in fails
        assert _klinear_verdicts((adapter, x_tp, z_tp, 1, h_small, cert)) == (False, False)
        assert _klinear_verdicts((adapter, x_tp, z_tp, 1, h, cert)) == (True, True)
