"""Exact-arithmetic construction and audit of very well approximable points.

Builds integer projective sequences on quadrics, Grassmannians and
k-linear-map images whose limits are approximated by rationals at a
prescribed decay rate, then re-verifies every inequality of the
construction exactly and measures the best-approximation function
against the certified limit ball.
"""

import sys as _sys

# traces and the audit report write big integers in hex, and failure
# messages print bit lengths, but version 1 traces store them as decimal
# strings, which routinely exceed the default 4300-digit guard on
# int <-> decimal-string conversion
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(0)

from .builder import (
    ApproxFn,
    BudgetExceeded,
    CertifiedLimit,
    SequenceTrace,
    limit_point,
    load_trace,
    run,
    save_trace,
)
from .exact_geometry import (
    ProjPointQ,
    ProjSubspaceQ,
    dist_sq,
    in_span,
    ln_bounds,
    primitive,
    rank,
    sqrt_bounds,
    subspace_span,
    wedge_k,
)
from .families import (
    SearchBudget,
    TracePoint,
    adapter_from_descriptor,
    grassmann_adapter,
    prodforms_adapter,
    quadric_adapter,
)
from .multilinear import (
    KLinearMap,
    OutsideSearchBudget,
    WitnessedPoint,
    evaluate,
    grassmann_map,
    line_step,
    prodforms_map,
    shared_count,
)
from .quadric import (
    HyperbolicWitness,
    QuadraticFormQ,
    isotropic_in_subspace_outside,
    line_in_quadric_through,
    on_quadric,
    orth_complement,
    s_h_quadric,
    split4,
    validate_witness,
)
from .verifier import (
    DXiInterval,
    audit_report,
    brute_force_curve,
    brute_force_dmin,
    check_conditions,
    d_xi,
    exponent_report,
    spanning_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
