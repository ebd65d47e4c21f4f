"""Spans around orbitsieve's public calls, recorded from outside the package.

install() rebinds each traced function under the name its callers look up
(a module global or a class attribute) to a wrapper that records a span;
uninstall() puts the original objects back. Per-step functions
(evaluate_mod, ResiduePoint.make) are left alone: a span per modular step
would cost more than the step, and their cost shows in orbit.steps_per_s.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from contextlib import contextmanager

# (module, attribute, span name). One function can be bound in several
# modules, one binding per caller.
TRACED = (
    ("orbitsieve.localglobal", "decide", "localglobal.decide"),
    ("orbitsieve.localglobal", "verify_certificate", "localglobal.verify"),
    ("orbitsieve.localglobal", "intersect_hit_sets", "localglobal.intersect"),
    ("orbitsieve.localglobal", "orbit_mod", "orbit.orbit_mod"),
    ("orbitsieve.localglobal", "hit_set", "orbit.hit_set"),
    ("orbitsieve.localglobal", "orbit_rational", "orbit.orbit_rational"),
    ("orbitsieve.localglobal", "iterate_point", "ratmap.iterate_point"),
    ("orbitsieve.zsigmondy", "primitive_divisors", "zsigmondy.primitive_divisors"),
    ("orbitsieve.zsigmondy", "orbit_rational", "orbit.orbit_rational"),
    ("orbitsieve.zsigmondy", "iterate_point", "ratmap.iterate_point"),
    ("orbitsieve.zsigmondy", "factorize", "numtheory.factorize"),
    ("orbitsieve.ratmap", "parse_map", "ratmap.parse_map"),
    ("orbitsieve.ratmap", "iterate_point", "ratmap.iterate_point"),
    ("orbitsieve.ratmap", "normalize", "projective.normalize"),
    ("orbitsieve.ratmap.RationalMap", "evaluate", "ratmap.evaluate"),
    ("orbitsieve.orbit", "reduce_mod", "projective.reduce_mod"),
)


def resolve(path: str):
    """The module or class that holds a traced attribute."""
    if path.endswith(".RationalMap"):
        return getattr(importlib.import_module(path.rsplit(".", 1)[0]), "RationalMap")
    return importlib.import_module(path)


class Recorder:
    """Spans of one traced pass, kept in memory until write().

    A span is [name, start, end, parent, op]: parent is the index of the
    enclosing span or -1, op the index of the benchmark operation.
    Counters add up quantities read from arguments and results.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, fn, name: str):
        observe = _OBSERVERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        # The span context manager inlined: the bookkeeping falls outside
        # [start, end], so it lands in the caller's self time, not here.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                stack.pop()
                if observe:
                    observe(self, args, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            if observe:
                observe(self, args, out, None)
            return out

        return wrapper

    def install(self) -> None:
        for path, attr, name in TRACED:
            owner = resolve(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _bits(n: int) -> int:
    return abs(n).bit_length()


def _observe_evaluate(rec, args, out, exc):
    if out is not None:
        bits = _bits(out.x1) + _bits(out.x2)
        rec.add("ratmap.bits_out", bits)
        key = "ratmap.max_bits"
        rec.counters[key] = max(rec.counters.get(key, 0), _bits(out.x1), _bits(out.x2))


def _observe_orbit_mod(rec, args, out, exc):
    if out is not None:
        rec.add("orbit.orbit_mod_steps", len(out.sequence))


def _observe_factorize(rec, args, out, exc):
    rec.add("numtheory.factorize_bits", args[0].bit_length())
    if exc is not None and type(exc).__name__ == "FactorizationBudgetError":
        rec.add("numtheory.factorize_budget_errors", 1)


_OBSERVERS = {
    "ratmap.evaluate": _observe_evaluate,
    "orbit.orbit_mod": _observe_orbit_mod,
    "numtheory.factorize": _observe_factorize,
}


def originals() -> list[tuple[str, str, object]]:
    """The currently bound object of every traced name."""
    return [(path, attr, resolve(path).__dict__[attr]) for path, attr, _ in TRACED]


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds.

    A span's self time is its duration minus its direct children's.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
    return out


def count_under(spans: list[list], name: str, ancestor: str) -> int:
    """Spans called `name` with a span called `ancestor` above them."""
    n = 0
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        n += p >= 0
    return n
