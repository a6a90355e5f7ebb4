"""Layer spans recorded from outside the engine.

A `Tracer` replaces the callables listed in `HOOKS` on the engine's modules
and classes with wrappers. Each wrapper records one span (layer, start, end,
enclosing span) and adds exact counts taken from the call's arguments and
result. Spans are kept in flat arrays for the whole traced section and
reduced to per-layer metrics when the run ends. A layer's self time is its
spans' duration minus the duration of their direct child spans.

Counting costs time of its own; it is recorded as a child span of layer
``trace`` so that it is charged to no engine layer.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager


def _nnz(rows) -> int:
    return sum(len(r) for r in rows)


def _max_bits(rows) -> int:
    top = 0
    for row in rows:
        for _, v in row:
            b = abs(v).bit_length()
            if b > top:
                top = b
    return top


def _count_rref(counts, args, kwargs, result, pre):
    rows_in, nnz_in, bits_in = pre
    counts["linalg.rref.rows_in"] += rows_in
    counts["linalg.rref.nnz_in"] += nnz_in
    counts["linalg.rref.rank"] += len(result)
    counts["linalg.rref.nnz_out"] += _nnz(result)
    counts["linalg.rref.max_rows"] = max(counts["linalg.rref.max_rows"], rows_in)
    counts["linalg.rref.max_coeff_bits"] = max(
        counts["linalg.rref.max_coeff_bits"], bits_in, _max_bits(result)
    )


def _before_rref(args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    return len(rows), _nnz(rows), _max_bits(rows)


def _count_relation_rows(counts, args, kwargs, result, pre):
    counts["algebra.relation_rows.rows"] += len(result)
    counts["algebra.relation_rows.terms"] += _nnz(result)


def _count_monomials(counts, args, kwargs, result, pre):
    counts["algebra.monomials.count"] += len(result)


def _count_table(counts, args, kwargs, result, pre):
    counts["algebra.table.degrees"] += 1
    if not result.basis:
        counts["algebra.table.zero_degrees"] += 1


def _count_normal_form(counts, args, kwargs, result, pre):
    element = args[1] if len(args) > 1 else kwargs["element"]
    counts["algebra.normal_form.terms_in"] += len(element.terms)
    counts["algebra.normal_form.terms_out"] += len(result.terms)


# (module, class or None, attribute, layer, pre-call counter, post-call counter)
# The table layer is `QuotientRing._compute_table`, which makes one degree; a
# degree whose table is never built (for instance because it is known to be
# zero) does not count in `algebra.table.degrees`.
HOOKS = (
    ("linalg", None, "rref", "linalg.rref", _before_rref, _count_rref),
    ("linalg", None, "integer_row", "linalg.integer_row", None, None),
    ("algebra", None, "relation_rows", "algebra.relation_rows", None, _count_relation_rows),
    ("algebra", "Generators", "monomials_of_degree", "algebra.monomials", None, _count_monomials),
    ("algebra", "QuotientRing", "_compute_table", "algebra.table", None, _count_table),
    ("algebra", "QuotientRing", "dimension", "algebra.ring", None, None),
    ("algebra", "QuotientRing", "degree_basis", "algebra.ring", None, None),
    ("algebra", "QuotientRing", "multiply", "algebra.ring", None, None),
    ("algebra", "QuotientRing", "normal_form", "algebra.normal_form", None, _count_normal_form),
    ("algebra", "GradedElement", "__mul__", "algebra.mul", None, None),
    ("catalog", None, "build_space", "catalog.build_space", None, None),
    ("series", None, "series_from_ring", "series", None, None),
    ("series", "ClosedFormSeries", "truncate", "series", None, None),
    ("series", "ClosedFormSeries", "symbolic_equal", "series", None, None),
    ("verify", None, "run_suites", "verify", None, None),
    ("cli", None, "main", "cli", None, None),
)

# Layers whose number of spans is reported as `<layer>.calls`.
CALL_COUNTED = (
    "linalg.rref",
    "linalg.integer_row",
    "algebra.relation_rows",
    "algebra.monomials",
    "algebra.normal_form",
    "algebra.mul",
    "catalog.build_space",
)

# Layers whose self time is reported as `<layer>.self_s`.
SELF_TIMED = CALL_COUNTED + ("algebra.table", "series", "verify", "cli")

COUNTS = (
    "linalg.rref.rows_in",
    "linalg.rref.rank",
    "linalg.rref.nnz_in",
    "linalg.rref.nnz_out",
    "linalg.rref.max_rows",
    "linalg.rref.max_coeff_bits",
    "algebra.relation_rows.rows",
    "algebra.relation_rows.terms",
    "algebra.monomials.count",
    "algebra.table.degrees",
    "algebra.table.zero_degrees",
    "algebra.normal_form.terms_in",
    "algebra.normal_form.terms_out",
)


class Tracer:
    """Span store plus the hooks that fill it; one per traced run."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing: list[str] = []
        self._trace_id = self._layer_id("trace")

    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def _open(self, layer_id: int, clock) -> int:
        i = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(clock())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int, clock) -> None:
        self.end[i] = clock()
        self._stack.pop()

    def _wrap(self, fn, layer: str, before, after):
        layer_id = self._layer_id(layer)
        trace_id = self._trace_id
        clock = time.perf_counter
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            pre = None
            if before is not None:
                j = tracer._open(trace_id, clock)
                pre = before(args, kwargs)
                tracer._close(j, clock)
            i = tracer._open(layer_id, clock)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i, clock)
            if after is not None:
                j = tracer._open(trace_id, clock)
                after(counts, args, kwargs, result, pre)
                tracer._close(j, clock)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextmanager
    def active(self):
        """Install every hook for the duration of the block, then restore."""
        undo = []
        self.missing = []
        engine = {
            name[len("flagcohom."):]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("flagcohom.") and mod is not None
        }
        try:
            for mod_name, cls_name, attr, layer, before, after in HOOKS:
                mod = engine.get(mod_name)
                owner = getattr(mod, cls_name, None) if cls_name else mod
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
                    continue
                wrapper = self._wrap(original, layer, before, after)
                if cls_name:
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                # a function imported by name into other modules is replaced there too
                for other in engine.values():
                    if other.__dict__.get(attr) is original:
                        undo.append((other, attr, original))
                        setattr(other, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = dict.fromkeys(self.layers, 0.0)
        for i in range(n):
            out[self.layers[self.layer[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(self.layers, 0)
        for i in self.layer:
            out[self.layers[i]] += 1
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: exact counts, call counts and self times."""
        calls = self.calls()
        selfs = self.self_times()
        out: dict[str, float] = {}
        for layer in CALL_COUNTED:
            out[f"{layer}.calls"] = calls.get(layer, 0)
        for layer in SELF_TIMED:
            out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        out.update(self.counts)
        rows_in = self.counts["linalg.rref.rows_in"]
        out["linalg.rref.useful_row_frac"] = self.counts["linalg.rref.rank"] / rows_in if rows_in else 0.0
        return out

    def summary_lines(self) -> list[str]:
        """One line per layer: spans, total and self seconds."""
        calls = self.calls()
        selfs = self.self_times()
        total = dict.fromkeys(self.layers, 0.0)
        for i in range(len(self.start)):
            total[self.layers[self.layer[i]]] += self.end[i] - self.start[i]
        lines = [f"{'layer':24} {'spans':>9} {'total_s':>10} {'self_s':>10}"]
        for name in sorted(self.layers, key=lambda k: -selfs[k]):
            lines.append(f"{name:24} {calls[name]:>9} {total[name]:>10.4f} {selfs[name]:>10.4f}")
        return lines
