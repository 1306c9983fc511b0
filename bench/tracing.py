"""Span tracing of mahlerkit's layers from outside the package.

``Tracer.install()`` replaces the public functions and methods named in
TARGETS with wrappers that record one span per call.  Module-level
functions are replaced in every ``mahlerkit.*`` namespace that binds them,
because ``cli``, ``becker``, ``regular`` and ``corpus`` import names
directly; methods are replaced on their class.  ``uninstall()`` restores
every original binding, so an untraced run executes the package as is.

Spans hold (name, start, end, parent, job) in flat arrays, stay in memory
while the run lasts and are written once by ``write()``.  A span's self time
is its duration minus the durations of its direct children; calls nest
strictly in one thread, so the children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (span name, module, attribute); "Class.method" names a method.  Several
# attributes may share one span name, which then aggregates them.
TARGETS = [
    ("series.mul_poly", "series", "LaurentSeries.mul_poly"),
    ("series.mul", "series", "LaurentSeries.__mul__"),
    ("series.invert", "series", "LaurentSeries.invert"),
    ("series.compose_power", "series", "LaurentSeries.compose_power"),
    ("mahler.verify", "mahler", "verify"),
    ("mahler.relation_search", "mahler", "pinned_relation_search"),
    ("mahler.guess", "mahler", "guess"),
    ("mahler.cartier_coordinates", "mahler", "cartier_coordinates"),
    ("becker.normalize", "becker", "normalize"),
    ("becker.witness", "becker", "witness_equation"),
    ("becker.certify_irregular", "becker", "certify_irregular"),
    ("becker.certify_regular", "becker", "certify_regular"),
    ("linalg.echelon", "linalg", "Echelon.__init__"),
    ("linalg.add_row", "linalg", "Echelon.add_row"),
    ("regular.rep_to_equation", "regular", "rep_to_equation"),
    ("regular.closure_rep", "regular", "closure_rep"),
    ("regular.series_of_rep", "regular", "series_of_rep"),
    ("algebra.poly_mul", "algebra", "Poly.__mul__"),
    ("algebra.poly_mul", "algebra", "Poly.__rmul__"),
    ("algebra.divrem", "algebra", "Poly.divrem"),
    ("algebra.poly_gcd", "algebra", "poly_gcd"),
    ("algebra.norm_over_kth_roots", "algebra", "norm_over_kth_roots"),
    ("algebra.cyclotomic_profile", "algebra", "cyclotomic_profile"),
] + [
    ("algebra.rf", "algebra", "RationalFunction." + m)
    for m in ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "substitute_power")
]
# every public function of these modules, under one span name per module
WHOLE_MODULES = ("cli", "jsonio")

JOB_SPAN = "job"


def _compose_terms(args, result):
    return result.order - result.valuation


def _verify_window_terms(args, result):
    eq, f = args[0], args[1]
    return sum(eq.k**i * (f.order - f.valuation) for i, a in enumerate(eq.coeffs) if not a.is_zero())


def _closure_dim(args, result):
    return result.dim if result is not None else 0


# span name -> (counter name, function of (args, result) giving the amount)
COUNTERS = {
    "series.compose_power": ("series.compose_power.terms", _compose_terms),
    "mahler.verify": ("mahler.verify.window_terms", _verify_window_terms),
    "mahler.guess": ("mahler.guess.found", lambda a, r: int(r is not None)),
    "mahler.relation_search": ("mahler.relation_search.found", lambda a, r: int(r is not None)),
    "regular.closure_rep": ("regular.closure_rep.dim_sum", _closure_dim),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.counters: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        # a budget interrupt may unwind several frames at once
        while self._stack and self._stack.pop() != idx:
            pass

    def repair(self) -> None:
        """Make the arrays consistent after a budget interrupt, which can
        land between the appends of one span."""
        n = min(map(len, (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_job)))
        for arr in (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_job):
            del arr[n:]
        now = time.perf_counter()
        for i in range(n):
            if self.span_end[i] == 0.0:
                self.span_end[i] = now
        self._stack.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span that is not one of the wrapped layers."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        layer = name.split(".")[0]
        counter = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] = tracer.errors.get(layer, 0) + 1
                raise
            finally:
                tracer._close(idx)
            if counter is not None:
                key, amount = counter
                tracer.counters[key] = tracer.counters.get(key, 0) + amount(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target; uninstall() must run before the next install()."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {n: m for n, m in sys.modules.items() if n == "mahlerkit" or n.startswith("mahlerkit.")}
        functions = []
        for name, mod, attr in TARGETS:
            module = modules["mahlerkit." + mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._wrap(name, cls.__dict__[meth]))
            else:
                functions.append((name, getattr(module, attr)))
        for mod in WHOLE_MODULES:
            module = modules["mahlerkit." + mod]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    functions.append((mod, value))
        for name, fn in functions:
            wrapper = self._wrap(name, fn)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    # -- analysis --------------------------------------------------------------

    def summary(self, stage_layers) -> dict:
        """Self time and calls per span name, self time per (span name,
        nearest enclosing span whose layer is in stage_layers), and the
        total duration of the job spans."""
        n = len(self.span_name)
        names = [self.names[i] for i in self.span_name]
        is_stage = [name.split(".")[0] in stage_layers for name in self.names]
        child = [0.0] * n
        stage = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
            # parents are opened, hence recorded, before their children
            stage[i] = i if is_stage[self.span_name[i]] or p < 0 else stage[p]
        selfs: dict[str, float] = {}
        calls: dict[str, int] = {}
        by_stage: dict[str, float] = {}
        job_s = 0.0
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            own = dur - child[i]
            selfs[names[i]] = selfs.get(names[i], 0.0) + own
            calls[names[i]] = calls.get(names[i], 0) + 1
            key = names[i] + "|" + names[stage[i]]
            by_stage[key] = by_stage.get(key, 0.0) + own
            if names[i] == JOB_SPAN:
                job_s += dur
        return {"self_s": selfs, "calls": calls, "self_by_stage": by_stage, "job_span_s": job_s}

    def write(self, path: Path) -> None:
        """All spans as one JSON document of parallel arrays."""
        doc = {
            "names": self.names,
            "name": list(self.span_name),
            "start": list(self.span_start),
            "end": list(self.span_end),
            "parent": list(self.span_parent),
            "job": list(self.span_job),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump(doc, out, separators=(",", ":"))
