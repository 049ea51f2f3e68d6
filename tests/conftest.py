import pytest
from fractions import Fraction

from maxsing.builder import ApproxFn, run
from maxsing.errors import SearchExhausted
from maxsing.families import (
    SearchBudget,
    grassmann_adapter,
    prodforms_adapter,
    quadric_adapter,
)
from maxsing.quadric import split4


def _partial(adapter, phi, steps, **kw):
    budget = SearchBudget(max_height=kw.pop("max_height", 6), multiplier_bits=4096)
    try:
        return run(adapter, phi, steps, budget=budget, **kw)
    except SearchExhausted as exc:
        return exc.partial


@pytest.fixture(scope="session")
def split4_form():
    return split4()


@pytest.fixture(scope="session")
def split4_log3x_trace(split4_form):
    """The longest split4 run the logarithmic target admits (4 points)."""
    form, wit = split4_form
    return _partial(quadric_adapter(form, wit), ApproxFn("log3x"), 12)


@pytest.fixture(scope="session")
def split4_pow_trace(split4_form):
    form, wit = split4_form
    return run(quadric_adapter(form, wit), ApproxFn("pow", Fraction(1, 2)), 10)


@pytest.fixture(scope="session")
def grassmann_pow_trace():
    return run(grassmann_adapter(4, 2), ApproxFn("pow", Fraction(1, 2)), 8,
               budget=SearchBudget(max_height=4))


@pytest.fixture(scope="session")
def prodforms_pow_trace():
    return run(prodforms_adapter(2, 3), ApproxFn("pow", Fraction(1, 2)), 8,
               budget=SearchBudget(max_height=4))


@pytest.fixture(scope="session")
def grassmann_log3x_trace():
    return _partial(grassmann_adapter(4, 2), ApproxFn("log3x"), 8, max_height=4)


@pytest.fixture(scope="session")
def prodforms_log3x_trace():
    return _partial(prodforms_adapter(2, 3), ApproxFn("log3x"), 8, max_height=4)
