"""Outside-in span tracing of maxsing's layers.

The program is not edited: each listed function is rebound, from outside,
to a wrapper that records a span.  A function is rebound in every
``maxsing`` module namespace that holds the same function object, and the
family adapter methods are rebound on their classes, so every call path
goes through the wrapper.  Spans stay in memory as
``[name, parent, start, end, ok]`` lists, where ``parent`` is the index
of the enclosing span (-1 at top level), and are aggregated at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# module-level functions recorded as spans, in report order
FUNCTIONS = (
    ("exact_geometry", "rank"),
    ("exact_geometry", "primitive"),
    ("exact_geometry", "sqrt_bounds"),
    ("exact_geometry", "in_span"),
    ("exact_geometry", "ln_bounds"),
    ("exact_geometry", "subspace_span"),
    ("exact_geometry", "nth_root_bounds"),
    ("exact_geometry", "dist_sq"),
    ("quadric", "line_in_quadric_through"),
    ("quadric", "s_h_quadric"),
    ("multilinear", "line_step"),
    ("multilinear", "evaluate"),
    ("multilinear", "line_witness"),
    ("builder", "next_point"),
    ("builder", "compute_hi"),
    ("builder", "_select_multiplier"),
    ("verifier", "check_conditions"),
    ("verifier", "spanning_check"),
    ("verifier", "exponent_report"),
    ("verifier", "brute_force_curve"),
    ("cli", "main"),
)

# adapter methods, recorded under one name per method across the classes
METHODS = (
    ("families", "line_step", ("QuadricAdapter", "KLinearAdapter")),
    ("families", "check_certificate", ("QuadricAdapter", "KLinearAdapter")),
)

# serialization: the doc-building child span splits each call into
# doc time (the child) and json time (the rest: json and file I/O)
SERIALIZERS = (
    ("builder", "save_trace", "trace_to_doc"),
    ("builder", "load_trace", "trace_from_doc"),
)

# generators whose yields are counted instead of timed
COUNTED = (("verifier", "_primitive_points_in_ball", "verifier.bruteforce.points_visited"),)

COMMAND = "cli.main"
MULTIPLIER = "builder._select_multiplier"
PRIMITIVE = "exact_geometry.primitive"


class Recorder:
    """In-memory spans and counters of one traced stretch of work."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], clock(), 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                rec[4] = True
                return out
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def counting(self, name: str, gen_fn):
        counters = self.counters

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            n = 0
            try:
                for item in gen_fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counters[name] = counters.get(name, 0) + n

        return counted

    def clear(self) -> None:
        self.spans.clear()
        self.counters.clear()


def _maxsing_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "maxsing" or name.startswith("maxsing."))]


@contextmanager
def tracing(recorder: Recorder, warn=None):
    """Rebind the listed functions to span-recording wrappers, then restore them.

    ``warn`` receives a message for each listed function that no longer
    exists, so a renamed layer shows up instead of silently reading 0.
    """
    modules = _maxsing_modules()
    undo: list[tuple] = []

    def rebind(original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def lookup(modname: str, attr: str):
        obj = getattr(sys.modules.get(f"maxsing.{modname}"), attr, None)
        if obj is None and warn is not None:
            warn(f"maxsing.{modname}.{attr} not found; its layer metrics read 0")
        return obj

    try:
        pairs = list(FUNCTIONS) + [(m, f) for m, f, _ in SERIALIZERS]
        pairs += [(m, child) for m, _, child in SERIALIZERS]
        for modname, fname in pairs:
            original = lookup(modname, fname)
            if original is not None:
                rebind(original, recorder.span(f"{modname}.{fname}", original))
        for modname, fname, classes in METHODS:
            for cls_name in classes:
                cls = lookup(modname, cls_name)
                original = None if cls is None else cls.__dict__.get(fname)
                if original is not None:
                    undo.append((cls, fname, original))
                    setattr(cls, fname, recorder.span(f"{modname}.{fname}", original))
        for modname, fname, counter in COUNTED:
            original = lookup(modname, fname)
            if original is not None:
                rebind(original, recorder.counting(counter, original))
        yield recorder
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# aggregation


def child_time(spans: list[list]) -> list[float]:
    """Per span, the time its direct child spans cover.

    Spans come from one thread, so children of one span never overlap and
    their durations add up to the covered part of the parent.
    """
    covered = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return covered


def layer_stats(spans: list[list]) -> dict[str, dict]:
    """calls, total_s and self_s per span name.

    Self time is a span's duration minus the time its children cover.
    """
    covered = child_time(spans)
    stats: dict[str, dict] = {}
    for i, (name, _, start, end, _) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - covered[i]
    return stats


def coverage(spans: list[list], commands: list[str]) -> dict[str, float]:
    """Per CLI command, the share of its wall time that its top-level spans cover.

    ``commands`` names the command of each top-level cli.main span, in
    order; the calls of one command are added up before dividing.
    """
    covered = child_time(spans)
    mains = [i for i, (name, parent, *_) in enumerate(spans) if name == COMMAND and parent == -1]
    wall: dict[str, float] = {}
    inside: dict[str, float] = {}
    for command, i in zip(commands, mains):
        wall[command] = wall.get(command, 0.0) + spans[i][3] - spans[i][2]
        inside[command] = inside.get(command, 0.0) + covered[i]
    return {c: inside[c] / wall[c] for c in wall if wall[c] > 0}


def layer_metrics(spans: list[list], counters: dict[str, int], commands: list[str] = ()) -> dict[str, float]:
    """The per-layer metrics of one traced stretch of work, by name.

    ``commands`` names the CLI command of each top-level cli.main span.
    """
    stats = layer_stats(spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for name in [f"{m}.{f}" for m, f in FUNCTIONS] + [f"{m}.{f}" for m, f, _ in METHODS]:
        s = stats.get(name, zero)
        for stat in ("calls", "total_s", "self_s"):
            out[f"{name}.{stat}"] = s[stat]
    for modname, fname, child in SERIALIZERS:
        s = stats.get(f"{modname}.{fname}", zero)
        doc_s = sum(end - start for cname, parent, start, end, _ in spans
                    if cname == f"{modname}.{child}" and parent >= 0
                    and spans[parent][0] == f"{modname}.{fname}")
        out[f"{modname}.{fname}.calls"] = s["calls"]
        out[f"{modname}.{fname}.total_s"] = s["total_s"]
        out[f"{modname}.{fname}.doc_s"] = doc_s
        out[f"{modname}.{fname}.json_s"] = s["total_s"] - doc_s
    attempts = sum(1 for name, parent, *_ in spans
                   if name == PRIMITIVE and parent >= 0 and spans[parent][0] == MULTIPLIER)
    accepted = sum(1 for name, _, _, _, ok in spans if name == MULTIPLIER and ok)
    out["builder.multiplier.attempts"] = attempts
    out["builder.multiplier.accept_ratio"] = accepted / attempts if attempts else 0.0
    for _, _, counter in COUNTED:
        out[counter] = counters.get(counter, 0)
    cov = coverage(spans, commands)
    out["trace.coverage_min"] = min(cov.values()) if cov else 0.0
    return out


def spans_doc(spans: list[list]) -> dict:
    """Compact JSON form of the spans: a name table and one row per span."""
    names: dict[str, int] = {}
    rows = []
    for name, parent, start, end, ok in spans:
        idx = names.setdefault(name, len(names))
        rows.append([idx, parent, round(start, 9), round(end, 9), ok])
    return {"columns": ["name", "parent", "start", "end", "ok"], "names": list(names), "spans": rows}
