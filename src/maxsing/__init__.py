"""Exact-arithmetic construction and audit of very well approximable points.

Builds integer projective sequences on quadrics, Grassmannians and
k-linear-map images whose limits are approximated by rationals at a
prescribed decay rate, then re-verifies every inequality of the
construction exactly and measures the best-approximation function
against the certified limit ball.

The package root exports the family constructors and ``primitive``; every
other name is imported from its module (``maxsing.builder``,
``maxsing.verifier``, ``maxsing.cli``, ...).
"""

import sys as _sys

# points are written in hex, but version 1 traces store integers in decimal,
# and k-linear traces still write witnesses, line scales and the full-size
# beta_point in decimal: both routinely exceed the default 4300-digit guard
# on int <-> decimal-string conversion
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(0)

from .exact_geometry import primitive
from .families import grassmann_adapter, prodforms_adapter, quadric_adapter
from .quadric import split4

__all__ = ["grassmann_adapter", "prodforms_adapter", "primitive", "quadric_adapter", "split4"]
