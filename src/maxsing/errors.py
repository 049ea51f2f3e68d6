"""Every exception the package raises on purpose, and the exit code each maps to.

| raised                   | meaning                                         | CLI exit |
|--------------------------|-------------------------------------------------|----------|
| ``InputError``           | malformed, oversized or out-of-range input      | 1        |
| ``OSError`` (built-in)   | a file that cannot be read or written           | 1        |
| ``SearchExhausted``      | a bounded search found nothing; ``gen`` writes  | 2        |
|                          | the partial trace it carries                    |          |
| (no exception)           | the audit found a failing condition             | 3        |
| ``GeometryError``        | a kernel precondition failed                    | none     |

Only ``cli.main`` turns these into exit codes.  A ``GeometryError`` raised
while a document is read becomes an ``InputError`` there (``reading``), so
one that reaches ``main`` is a bug and gives a traceback, like any other
exception.
"""

from __future__ import annotations

from contextlib import contextmanager

# what building an object from a malformed document raises: a missing key,
# a short list, a value of the wrong type or form, a zero denominator
DOCUMENT_ERRORS = (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError)


class InputError(ValueError):
    """Malformed, oversized or out-of-range input; the message names the field."""


class GeometryError(ValueError):
    """An exact-geometry precondition failed: a zero vector, a dimension mismatch, a negative root."""


class SearchExhausted(RuntimeError):
    """A bounded search found nothing.

    ``builder.run`` sets ``partial`` to the trace built so far.  When the
    log3x forced-stop certificate decided a multiplier search, needed_bits
    is a certified lower bound on log2 of the norm the decay condition
    needs on the chosen line and cap_bits is the bit length of the largest
    norm the cap allows; otherwise both are None.
    """

    def __init__(self, message: str, needed_bits: int | None = None, cap_bits: int | None = None):
        super().__init__(message)
        self.needed_bits = needed_bits
        self.cap_bits = cap_bits
        self.partial = None


@contextmanager
def reading(where: str):
    """Raise any DOCUMENT_ERRORS failure inside the block as an InputError naming ``where``.

    Nested blocks name the path from the outside in: "family: gram: ...".
    """
    try:
        yield
    except KeyError as exc:
        raise InputError(f"{where}: missing {exc}") from exc
    except ZeroDivisionError as exc:
        raise InputError(f"{where}: zero denominator in {exc}") from exc
    except DOCUMENT_ERRORS as exc:
        raise InputError(f"{where}: {exc}") from exc
