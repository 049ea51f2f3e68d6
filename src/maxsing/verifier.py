"""Independent auditing of traces.

Nothing recorded is trusted: membership, subspaces, distances and every
inequality of the construction are re-derived from the raw points, the
line generators, the multipliers and the family certificates.  The
best-approximation function is additionally measured against the
certified limit ball by a lattice search whose result is that of
scoring every primitive point up to a norm bound, at desk scale.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from math import gcd, isqrt

from .builder import SequenceTrace, _line_gcd, _product_gt, compute_hi, limit_radius_sq
from .errors import DOCUMENT_ERRORS, GeometryError, InputError
from .exact_geometry import (
    RANK_PRIME,
    IntVec,
    TracePoint,
    dec_str,
    dot,
    dyadic_bounds,
    dyadic_str,
    ln_hi_fixed,
    ln_lo_fixed,
    norm_sq,
    sci_str,
    spans_from_residues,
    vec_add,
    vec_scale,
    wedge_sq,
)


# ---------------------------------------------------------------------------
# condition audit


class TraceGeometry(namedtuple("TraceGeometry", "norms wedges step_ok")):
    """The full-size quantities an audit needs, each computed once.

    For the trace's points x_0, x_1, ...: norms[j] = |x_j|^2 and
    wedges[j] = |x_j ^ x_{j+1}|^2, so that
    dist(x_j, x_{j+1})^2 = wedges[j] / (norms[j] norms[j+1]).  step_ok[j]
    is the verdict of the step check x_{j+1} == primitive(z_j + b_j x_j),
    False when entry j has no step record.  Each is a tuple.
    """

    __slots__ = ()


def trace_geometry(trace: SequenceTrace) -> TraceGeometry:
    """The step checks, and every norm and wedge, from each step's small operands where it can.

    Step j has x = x_j, z = z_j and b = b_j, read on the family's moving
    line (families.MovingLine): x = a ⊗ k, z = e ⊗ k and V = |k|^2.  On
    a form whose integer rows are split4's
    (families.QuadricAdapter.segre) a, e and k are 2-vectors: x's Segre
    factors are taken once, from x_1 by gcds (quadric.segre_factors),
    and then by induction from the previous step's lift; z must be e ⊗ k
    for one of them, which quadric.segre_split checks exactly (exact
    division with a remainder check, then four products).  Elsewhere, or
    when x or z does not factor, the line is plain: a = x, e = z, V = 1,
    as before.

    With y = e + b a, z + b x = y ⊗ k, whose content c is y's (Gauss's
    lemma, k primitive), taken through G = minors_gcd(a, e) (proof there;
    |det(a, e)| on 2-vectors), and c = 0 iff y = 0.  The check passes iff
    y != 0 and x_{j+1} is the line's lift of y / c: the point (y / c) ⊗ k
    with the sign that makes its first nonzero entry positive, which is
    primitive(z + b x).  Then x ^ x_{j+1} = +-(x ^ z)/c, as x ^ x = 0, and
    by the Lagrange identity and the factored inner products

        |x_{j+1}|^2 = V (|e|^2 + b (2 a.e + b |a|^2)) / c^2,
        wedges[j] = V^2 (|a|^2 |e|^2 - (a.e)^2) / c^2,

    both exact divisions by c^2.  On split4 the content's gcd runs against
    G, of the moving factor's size, with no minors_gcd; the check's
    products are the two of b with a and the four of the lift, and the
    norm's are the two with b and the one with V, of x_{j+1}'s size.  On a
    plain line |a|^2 = |x|^2 is norms[j].  When the check fails, both come
    from the stored points, and the next step's factors are taken from
    x_{j+1} afresh.
    """
    family = trace.family
    reps = trace.points()
    norms = [norm_sq(reps[0])]
    wedges, step_ok = [], []
    factors = None
    for entry, x, x_next in zip(trace.entries, reps, reps[1:]):
        n2x, ok = norms[-1], False
        if entry.step is not None:
            b = entry.step.b
            a, e, v, lift = family.moving_line(x, entry.step.z, factors)
            y = vec_add(e, vec_scale(b, a))
            c = gcd(_line_gcd(a, e), *y)
            if c:
                p, factors, _ = lift(tuple(t // c for t in y))
                ok = p == x_next
        if ok:
            n2a = n2x if v == 1 else norm_sq(a)
            n2e, ae, cc = norm_sq(e), dot(a, e), c * c
            norms.append(v * ((n2e + b * (2 * ae + b * n2a)) // cc))
            wedges.append(v * v * ((n2a * n2e - ae * ae) // cc))
        else:
            factors = None
            norms.append(norm_sq(x_next))
            wedges.append(n2x * norms[-1] - dot(x, x_next) ** 2)
        step_ok.append(ok)
    if not all(norms):
        raise GeometryError("projective distance needs nonzero vectors")
    return TraceGeometry(tuple(norms), tuple(wedges), tuple(step_ok))


def _point_residues(points: list[IntVec]) -> list[list[int]]:
    """Each point mod RANK_PRIME, reduced once per audit for the ranks of compute_hi and the spanning check."""
    return [[a % RANK_PRIME for a in p] for p in points]


def check_conditions(trace: SequenceTrace, geometry: TraceGeometry | None = None,
                     residues: list[list[int]] | None = None) -> dict:
    """Re-derive every construction inequality from the recorded points.

    Returns a report dict with one record per step index; ``all_pass``
    aggregates them.  Failures name the condition and print bit lengths,
    never a full-size decimal.  ``geometry`` is trace_geometry(trace),
    computed here when not given; it holds each step check's verdict.
    ``residues`` are the points mod RANK_PRIME (_point_residues), reduced
    here when not given.
    The family adapter and the decay target are the trace's own, built
    and checked against ambient_dim when it was read (builder.trace_from_doc).

    (a) for a later point is implied, and not evaluated, when the adapter's
    ``certificate_proves_next_member`` holds, (c) passes cleanly (no
    failure, no exception) and the step check passes.  For a quadric:
    check_certificate's s_h_quadric raises unless q(x) = 0, and it checks
    q(z) = 0 and b(x, z) = 0, so q(z + b x) = b^2 q(x) + 2b b(x, z) + q(z)
    = 0, and x_next = +-(z + b x)/c gives q(x_next) = 0.  A k-linear
    point's witness is a separate stored field, so (a) checks it.
    Otherwise (a) is evaluated, and its message comes first.
    """
    if not trace.entries:
        raise InputError("empty trace")
    if len(trace.entries) < 2 and not trace.partial:
        raise InputError("a complete trace needs at least 2 points")
    adapter, phi = trace.family, trace.phi
    points = trace.points()
    geo = geometry or trace_geometry(trace)
    n2, w = geo.norms, geo.wedges
    if residues is None:
        residues = _point_residues(points)
    records = []
    all_pass = True
    first = trace.entries[0]
    rec0 = {"index": 0, "failures": []}
    if not adapter.member(TracePoint(first.x, first.witness)):
        rec0["failures"].append("(a) start point is not a certified member")
        all_pass = False
    records.append(rec0)
    for i, entry in enumerate(trace.entries[:-1], start=1):
        step = entry.step
        rec = {"index": i, "failures": []}
        fails = rec["failures"]
        if step is None:
            fails.append("missing step record")
            records.append(rec)
            all_pass = False
            break
        x = points[i - 1]
        h = compute_hi(points[:i], adapter.ambient_dim, residues[:i])
        # (c) certified score decrease along the line, for every step; corrupt
        # inputs make the exact re-derivations raise, which is itself a failure
        try:
            cert_fails = adapter.check_certificate(
                TracePoint(x, entry.witness), TracePoint(step.z, step.z_witness), h, step.certificate
            )
        except (*DOCUMENT_ERRORS, RuntimeError) as exc:
            cert_fails = [f"certificate does not re-verify: {exc}"]
        # (a) membership with witness, unless (c) and the step check prove it
        proven = adapter.certificate_proves_next_member and geo.step_ok[i - 1] and not cert_fails
        nxt_entry = trace.entries[i]
        if not proven and not adapter.member(TracePoint(nxt_entry.x, nxt_entry.witness)):
            fails.append("(a) next point is not a certified member")
        # step consistency: x_next == primitive(z + b*x), checked in trace_geometry
        if not geo.step_ok[i - 1]:
            fails.append("next point is not primitive(z + b*x)")
        # (b) strict norm growth
        if not n2[i] > n2[i - 1]:
            fails.append(f"(b) norm fails to grow: |x_next|^2 <= |x|^2 "
                         f"({n2[i].bit_length()} and {n2[i - 1].bit_length()} bits)")
        fails.extend(f"(c) {m}" for m in cert_fails)
        # (d) for i >= 2, plus the distance-decay consequence
        if i >= 2:
            # 9 w[i-1] / (n2[i-1] n2[i]) > w[i-2] / (n2[i-2] n2[i-1]), times n2[i-2] n2[i-1] n2[i]
            if _product_gt(((9 * w[i - 1], 1), (n2[i - 2], 1)), ((w[i - 2], 1), (n2[i], 1))):
                fails.append("(d) telescoping fails: 9 dist(x, x_next)^2 > dist(x_prev, x)^2")
            # t = (9/4) dsq |x|^2 as an unreduced pair u/v; |x|^2 cancels
            if phi.variant == "pow":
                # exact at either end: (9 w)^q n2^p <= (4 n2)^q, divided by n2^p as in gen's probe
                p, q = phi.exponent.numerator, phi.exponent.denominator
                lo_ok = hi_ok = not _product_gt(((9 * w[i - 1], q),), ((4 ** q, 1), (n2[i], q - p)))
            else:
                lo_ok = phi.le_phi_sq(9 * w[i - 1], 4 * n2[i], n2[i])
                hi_ok = lo_ok or phi.le_phi_sq(9 * w[i - 1], 4 * n2[i], n2[i], upper=True)  # phi_lo <= phi_hi
            if not lo_ok:
                fails.append("(d) decay target fails at the certified norm bound")
            if not hi_ok:
                fails.append("(eq2) norm-weighted distance exceeds the decay upper bound")
        if fails:
            all_pass = False
        records.append(rec)
    return {"all_pass": all_pass, "conditions": records}


# ---------------------------------------------------------------------------
# certified approximation measurements


def _primitive_points_in_ball(
    rep: IntVec, x_lo: int, x_hi: int, bn: int, shift: int
) -> Iterator[tuple[IntVec, int]]:
    """Primitive sign-canonical x with x_lo < |x| <= x_hi and D(x) <= B, with |x|^2.

    D(x) = |x ^ rep| / |rep| is the distance from x to the line R*rep, and
    B = bn / 4^shift.  The points are found slab by slab along the
    coordinate k of largest |rep_k|: writing x = t*rep + e with e
    orthogonal to rep, so |e| = D(x), gives
    x_j rep_k - x_k rep_j = e_j rep_k - e_k rep_j, and Cauchy-Schwarz
    bounds its square by D(x)^2 (rep_j^2 + rep_k^2).  Once x_k is fixed,
    each x_j therefore ranges over an integer interval.
    """
    dim = len(rep)
    k = max(range(dim), key=lambda i: abs(rep[i]))
    xi = tuple(rep) if rep[k] > 0 else tuple(-a for a in rep)
    xi_k = xi[k]
    q4 = 1 << (2 * shift)
    cylinder = bn * bn * norm_sq(xi)  # D(x) <= B  <=>  16^shift |x ^ xi|^2 <= cylinder
    others = [j for j in range(dim) if j != k]
    # |x_j xi_k - x_k xi_j| <= B sqrt(xi_j^2 + xi_k^2), floored to an integer
    slack = [isqrt(bn * bn * (xi[j] * xi[j] + xi_k * xi_k)) // q4 for j in others]
    lo_sq, hi_sq = x_lo * x_lo, x_hi * x_hi
    vec = [0] * dim

    def rec(i: int, budget: int):
        if i == len(others):
            n2 = hi_sq - budget
            if n2 <= lo_sq or next(a for a in vec if a) < 0:
                return
            if wedge_sq(vec, xi) * q4 * q4 > cylinder:
                return
            g = 0
            for a in vec:
                g = gcd(g, a)
            if g == 1:
                yield tuple(vec), n2
            return
        j, m = others[i], slack[i]
        c = vec[k] * xi[j]
        r = isqrt(budget)
        for a in range(max(-r, -((m - c) // xi_k)), min(r, (c + m) // xi_k) + 1):
            vec[j] = a
            yield from rec(i + 1, budget - a * a)
        vec[j] = 0

    for a in range(-x_hi, x_hi + 1):
        vec[k] = a
        yield from rec(0, hi_sq - a * a)


# the largest whole-ball bound (2*xmax+1)^n that brute_force_curve accepts
BRUTE_FORCE_COST_GUARD = 10 ** 8


def brute_force_curve(
    center: IntVec,
    radius_sq: Fraction,
    x_max: int,
    precision_bits: int = 64,
) -> list[dict]:
    """Exhaustive best-approximation intervals at every integer scale <= x_max.

    For each X the returned row bounds min D over the primitive points of
    norm <= X: lo = min of candidate lower bounds, hi = min of candidate
    upper bounds, and argmin the candidate attaining hi, ties going to the
    smaller bucket ceil(|x|), then to the lexicographically smaller
    sign-canonical tuple.  The limit ball has center ``center``, the
    trace's last point, and squared radius ``radius_sq``
    (builder.limit_radius_sq).  The rows are those of scoring every point of
    the ball, but only the points that can change a row are scored.

    With S = 2^(precision_bits + 8), r_s = ceil(S r) for the ball radius
    r and the scores lo_s <= hi_s below (the row values times S^2), every
    x with |x| <= X_b satisfies

        lo_s >= S^2 D(x) - S (X_b (1 + r_s) + 1).

    Proof: put A = S|x| and V = S D(x)/|x| <= S, so that
    n_lo_s = floor(A) >= A - 1 >= 0 and d_lo_s = floor(V) > V - 1.  If
    d_lo_s <= r_s, then lo_s = 0 and S^2 D(x) = A V < A (1 + r_s).
    Otherwise lo_s >= (A - 1)(V - 1 - r_s) >= A V - A (1 + r_s) - V.
    Either way A <= S X_b and V <= S give the bound.

    Buckets are processed in dyadic bands (X_a, X_b] = (0, 1], (1, 2],
    (2, 4], ... up to x_max.  Let run_hi be the least hi_s over the
    buckets before a band.  A point of the band with
    D(x) > B = (run_hi + S (X_b (1 + r_s) + 1)) / S^2 has
    lo_s >= run_hi >= run_lo (every lo_s <= its hi_s), and
    hi_s >= lo_s >= run_hi, which a smaller bucket attains: it changes no
    row.  So each band scores only the cylinder D(x) <= min(X_b, B) around
    the line through the limit center.  The first band, with no run_hi,
    takes B = X_b, which D(x) <= |x| makes exhaustive.
    """
    dim = len(center)
    if x_max < 1:
        raise InputError("x_max must be at least 1")
    est = (2 * x_max + 1) ** dim
    if est > BRUTE_FORCE_COST_GUARD:
        raise InputError(
            f"xmax {x_max} refused: the whole-ball bound (2*xmax+1)^{dim} = "
            f"{2 * x_max + 1}^{dim} = {est} exceeds the cost guard {BRUTE_FORCE_COST_GUARD}"
        )
    r2 = norm_sq(center)
    shift = precision_bits + 8
    scale = 1 << shift
    rnum, rden = radius_sq.numerator, radius_sq.denominator
    # r_hi scaled: ceil(sqrt(radius_sq) * 2^shift)
    r_hi_s = isqrt((rnum * scale * scale) // rden) + 1
    rows = []
    run_lo, run_hi, run_arg = None, None, None
    x_lo = 0
    while x_lo < x_max:
        x_hi = min(max(2 * x_lo, 1), x_max)
        bn = x_hi * scale * scale
        if run_hi is not None:
            bn = min(bn, run_hi + scale * (x_hi * (1 + r_hi_s) + 1))
        best: dict[int, list] = {}
        for vec, n2 in _primitive_points_in_ball(center, x_lo, x_hi, bn, shift):
            dv = dot(vec, center)
            wnum = n2 * r2 - dv * dv  # dist^2 = wnum / (n2 * r2)
            dden = n2 * r2
            d_lo_s = isqrt((wnum * scale * scale) // dden)
            d_hi_s = d_lo_s + 1
            n_lo_s = isqrt(n2 * scale * scale)
            n_hi_s = n_lo_s + 1
            lo_s = n_lo_s * max(0, d_lo_s - r_hi_s)
            hi_s = n_hi_s * (d_hi_s + r_hi_s)
            x_bucket = isqrt(n2 - 1) + 1  # smallest integer X with norm <= X
            cur = best.get(x_bucket)
            if cur is None:
                best[x_bucket] = [lo_s, hi_s, vec]
            else:
                cur[0] = min(cur[0], lo_s)
                if (hi_s, vec) < (cur[1], cur[2]):
                    cur[1], cur[2] = hi_s, vec
        for x in range(x_lo + 1, x_hi + 1):
            if x in best:
                lo_s, hi_s, vec = best[x]
                if run_hi is None or hi_s < run_hi:
                    run_hi, run_arg = hi_s, vec
                if run_lo is None or lo_s < run_lo:
                    run_lo = lo_s
            if run_hi is None:
                continue
            rows.append(
                {
                    "X": x,
                    "lo": Fraction(run_lo, scale * scale),
                    "hi": Fraction(run_hi, scale * scale),
                    "argmin": run_arg,
                }
            )
        x_lo = x_hi
    return rows


def bruteforce_row_doc(row: dict) -> dict:
    """A brute_force_curve row as JSON: X, the exact bounds, hi to 12 digits, and the argmin."""
    return {"X": row["X"], "lo": str(row["lo"]), "hi": str(row["hi"]),
            "hi_dec": dec_str(row["hi"], 12), "argmin": [str(a) for a in row["argmin"]]}


# ---------------------------------------------------------------------------
# exponent estimates


class ExponentRow(namedtuple("ExponentRow", "index x_scale d_hi lambda_lb")):
    # x_scale: the scale X_i, a dyadic with |x_i| <= X_i
    # d_hi: dyadic upper bound on D(x_i)
    # lambda_lb: certified lower bound, Dmin(X_i) <= X_i^(-lambda_lb)
    __slots__ = ()

    def to_doc(self) -> dict:
        """X and D_hi exact as dyadics and as 12 significant digits; lambda_lb as a decimal."""
        return {
            "index": self.index,
            "X": dyadic_str(self.x_scale),
            "X_dec": sci_str(self.x_scale, 12),
            "D_hi": dyadic_str(self.d_hi),
            "D_hi_dec": sci_str(self.d_hi, 12),
            "lambda_lb": str(self.lambda_lb),
            "lambda_lb_dec": dec_str(self.lambda_lb, 12),
        }


def exponent_row(index: int, n2x: int, n2n: int, w: int, precision_bits: int = 64) -> ExponentRow | None:
    """The row of step x_i -> x_{i+1}, from n2x = |x_i|^2, n2n = |x_{i+1}|^2 and w = |x_i ^ x_{i+1}|^2.

    The telescoping gives D(x_i) <= (3/2) |x_i| dist(x_i, x_{i+1}) for
    every valid continuation, and that bound is sqrt(9 w / (4 n2n)), as
    |x_i|^2 cancels.  D_hi is its upper dyadic bound and X_i the lower
    dyadic bound of |x_{i+1}| = sqrt(n2n), both of relative width at most
    2^-(precision_bits + 3) (exact_geometry.dyadic_bounds).  When
    X_i^2 < n2x, X_i is the upper bound of |x_i| instead.  Either way
    |x_i| <= X_i, so x_i is feasible at the scale X_i and
    Dmin(X_i) <= D(x_i) <= D_hi.  With the directed rounding of
    ln_lo_fixed and ln_hi_fixed, lambda_lb <= -ln(D_hi) / ln(X_i), so
    Dmin(X_i) <= X_i^(-lambda_lb).
    None when X_i <= 1 or D_hi = 0, where no exponent is certified.
    """
    prec = precision_bits + 3
    d_hi = dyadic_bounds(9 * w, 4 * n2n, prec, 2)[1]
    x_scale = dyadic_bounds(n2n, 1, prec, 2)[0]
    if _product_gt(((n2x, 1), (x_scale.denominator, 2)), ((x_scale.numerator, 2),)):
        x_scale = dyadic_bounds(n2x, 1, prec, 2)[1]
    if x_scale <= 1 or d_hi == 0:
        return None
    # lambda_lb = -ln_hi(D_hi) / ln(X_i), over the upper end of ln(X_i) when D_hi < 1
    a, s = ln_hi_fixed(d_hi.numerator, d_hi.denominator, precision_bits)
    c, t = (ln_hi_fixed if d_hi < 1 else ln_lo_fixed)(x_scale.numerator, x_scale.denominator, precision_bits)
    lam = Fraction(-a << t, c << s)
    return ExponentRow(index=index, x_scale=x_scale, d_hi=d_hi, lambda_lb=lam)


def exponent_report(
    trace: SequenceTrace, precision_bits: int = 64, geometry: TraceGeometry | None = None
) -> list[ExponentRow]:
    """Certified per-scale exponent lower bounds, one row per step i >= 2 (exponent_row).

    ``geometry`` is trace_geometry(trace), computed here when not given.
    """
    if len(trace.entries) < 3:
        raise InputError("exponent estimates need at least 3 points")
    geo = geometry or trace_geometry(trace)
    rows = []
    for i in range(2, len(trace.entries)):
        if trace.entries[i - 1].step is None:
            break
        row = exponent_row(i, geo.norms[i - 1], geo.norms[i], geo.wedges[i - 1], precision_bits)
        if row is not None:
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# the full audit


def audit_report(
    trace: SequenceTrace,
    precision_bits: int = 64,
    bruteforce_xmax: int | None = None,
) -> dict:
    """Full audit: conditions, exponents, spanning, optional brute force."""
    geo = trace_geometry(trace)
    reps = trace.points()
    residues = _point_residues(reps)
    report = {"version": 3, **check_conditions(trace, geo, residues)}
    n = len(trace.entries)
    # whether the points from i0 on span the ambient space, for every i0
    spanning = {str(i0): spans_from_residues(reps[i0 - 1:], residues[i0 - 1:]) for i0 in range(2, n + 1)}
    report["spanning"] = spanning
    span_required = range(2, n - trace.family.ambient_dim + 1)
    span_ok = all(spanning[str(i0)] for i0 in span_required)
    if not span_ok:
        report["all_pass"] = False
    report["spanning_required_ok"] = span_ok
    if n >= 3:
        # the ball around the trace's last point, which the report does not
        # repeat: radius^2 = 9 w / (4 |x_prev|^2 |x_last|^2) (limit_radius_sq)
        r2_hi = dyadic_bounds(9 * geo.wedges[-1], 4 * geo.norms[-2] * geo.norms[-1], precision_bits + 3)[1]
        report["limit"] = {"radius_sq_hi": dyadic_str(r2_hi), "radius_sq_hi_dec": sci_str(r2_hi, 12)}
        report["exponents"] = [r.to_doc() for r in exponent_report(trace, precision_bits, geo)]
    else:
        report["limit"] = None
        report["exponents"] = []
    if bruteforce_xmax is not None and n >= 3:
        radius_sq = limit_radius_sq(trace)
        rows = brute_force_curve(trace.entries[-1].x, radius_sq, bruteforce_xmax, precision_bits)
        out_rows = []
        for row in rows:
            # domination is judged only at scales X with X^2 >= |x_2|^2
            phi_hi = trace.phi.phi_hi(row["X"]) if row["X"] ** 2 >= geo.norms[1] else None
            out_rows.append({
                **bruteforce_row_doc(row),
                "phi_hi": None if phi_hi is None else str(phi_hi),
                "dominated": None if phi_hi is None else row["hi"] <= phi_hi,
            })
        all_dominated = all(r["dominated"] is not False for r in out_rows)
        report["bruteforce"] = {
            "xmax": bruteforce_xmax,
            "rows": out_rows,
            "all_dominated": all_dominated,
        }
        if not all_dominated:
            report["all_pass"] = False
    else:
        report["bruteforce"] = None
    report["partial"] = trace.partial
    return report
