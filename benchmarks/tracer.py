"""Span recorder that wraps the public functions of every liejacobi module.

The library has no instrumentation of its own, so the benchmark patches it
from outside: each public module-level function, each public method of a
class defined in a layer module, each ``__post_init__`` (validated
construction) and the element arithmetic operators are replaced by a wrapper
that records one span per call while an op is active.  Modules bind names
with ``from liejacobi.linalg import solve`` when they are imported, so the
wrapper is installed under every name that refers to the original in every
loaded ``liejacobi`` module, not only in the defining one.

Spans stay in memory as ``[name, start, end, parent, op]`` records, parent
being the index of the enclosing span, and are written out by the caller
when the run ends.  ``summarize`` turns them into per-layer call counts and
self times (a span's duration minus the durations of its direct children).
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

LAYERS = ("linalg", "exterior", "liealg", "schouten", "jacobi",
          "bialgebra", "documents", "catalog", "cli")

# element arithmetic is the exterior layer's work even though it is spelled
# with operators
_OPERATORS = ("__add__", "__sub__", "__neg__", "__rmul__", "__post_init__")

# algebra invariants: pure functions of one LieAlgebra, the candidates for a
# once-per-algebra cache
INVARIANTS = ("liealg.LieAlgebra.validate", "liealg.killing_form", "liealg.is_compact",
              "liealg.center", "liealg.derived_algebra", "liealg.one_cocycles",
              "liealg.derivations", "liealg.invariant_scalar_product")

ROOT = "op"


def algebra_key(g) -> tuple:
    """Structure constants of a LieAlgebra as a hashable value."""
    return (g.dim, tuple(sorted((k, tuple(sorted(v.terms.items())))
                                for k, v in g.structure.items())))


def bialgebra_key(b) -> tuple:
    return (algebra_key(b.g), algebra_key(b.g_star),
            tuple(sorted(b.phi0.terms.items())), tuple(sorted(b.x0.terms.items())))


class Tracer:
    """``install`` puts the wrappers in place and ``uninstall`` restores the
    originals; spans are recorded only between ``begin_op`` and ``end_op``."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.notes: list = []           # (op, span name, payload) from argument observers
        self.originals: dict[str, object] = {}   # span name -> unwrapped function
        self._patches: list = []        # (owner, attribute, original attribute value)

    # -- recording -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.stack = [len(self.spans)]
        self.spans.append([ROOT, perf_counter(), None, -1, op_id])

    def end_op(self) -> None:
        self.spans[self.stack[0]][2] = perf_counter()
        self.stack = []
        self.op = None

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if observe is not None:
                tracer.notes.append((tracer.op, name, observe(args)))
            stack = tracer.stack
            span = [name, 0.0, None, stack[-1], tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        replace: dict[int, tuple] = {}    # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"liejacobi.{layer}"]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = value
                replace[id(value)] = (value, self._wrap(name, value))
            for cls in list(vars(mod).values()):
                if isinstance(cls, type) and cls.__module__ == mod.__name__:
                    self._patch_class(layer, cls)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "liejacobi" or modname.startswith("liejacobi.")):
                continue
            for attr, value in list(vars(mod).items()):
                entry = replace.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, entry[1])

    def _patch_class(self, layer: str, cls: type) -> None:
        label = cls.__name__.lstrip("_")
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn, rewrap = raw.__func__, type(raw)
            elif callable(raw) and not isinstance(raw, type):
                fn, rewrap = raw, None
            else:
                continue    # properties and constants
            name = f"{layer}.{label}.{attr}"
            self.originals[name] = fn
            wrapper = self._wrap(name, fn)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, rewrap(wrapper) if rewrap else wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []


def _rref_cells(args):
    a = args[0]
    return len(a) * (len(a[0]) if a else 0)


def _first(args):
    return args[0]


_OBSERVERS = {name: _first for name in INVARIANTS}
_OBSERVERS.update({
    "linalg.rref": _rref_cells,
    "bialgebra.check_glb": _first,
    "documents.parse": lambda args: len(args[0].encode("utf-8")),
})


def summarize(tracer: Tracer, n_ops: int) -> dict:
    """Per-op layer figures from the recorded spans and notes."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    by_name: dict[str, int] = {}
    op_wall = bench_self = 0.0
    for k, (name, start, end, parent, _) in enumerate(spans):
        own = (end - start) - child[k]
        if name == ROOT:
            op_wall += end - start
            bench_self += own
            continue
        layer = name.split(".", 1)[0]
        self_s[layer] += own
        calls[layer] += 1
        by_name[name] = by_name.get(name, 0) + 1

    # invariant calls: useful when first for its (algebra, invariant) in the
    # op; reused across ops when the algebra was seen in an earlier op
    inv_calls = inv_useful = by_object = by_structure = 0
    glb_calls = glb_useful = 0
    cells = bytes_in = 0
    seen_in_op: set = set()
    objects_before: dict[int, int] = {}
    structures_before: dict[tuple, int] = {}
    held = []    # keeps observed objects alive so that id() stays unique
    for op, name, payload in tracer.notes:
        if name == "linalg.rref":
            cells += payload
        elif name == "documents.parse":
            bytes_in += payload
        elif name == "bialgebra.check_glb":
            key = (op, "glb", bialgebra_key(payload))
            glb_calls += 1
            glb_useful += key not in seen_in_op
            seen_in_op.add(key)
        else:
            held.append(payload)
            skey = algebra_key(payload)
            key = (op, name, skey)
            inv_calls += 1
            inv_useful += key not in seen_in_op
            seen_in_op.add(key)
            by_object += objects_before.setdefault(id(payload), op) < op
            by_structure += structures_before.setdefault(skey, op) < op

    per_op = lambda v: v / n_ops
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = 100.0 * self_s[layer] / op_wall
        out[f"{layer}.calls"] = per_op(calls[layer])
    out["bench.self_pct"] = 100.0 * bench_self / op_wall
    out["trace.op_ms"] = 1e3 * op_wall / n_ops
    out["layer_self_ms"] = {layer: 1e3 * per_op(self_s[layer]) for layer in LAYERS}
    out["by_name"] = {name: per_op(c) for name, c in sorted(by_name.items())}
    out["linalg.rref.cells"] = per_op(cells)
    out["documents.bytes_in"] = per_op(bytes_in)
    out["liealg.invariant_useful_ratio"] = inv_useful / inv_calls if inv_calls else 1.0
    out["bialgebra.check_glb.useful_ratio"] = glb_useful / glb_calls if glb_calls else 1.0
    out["reuse.object_share"] = by_object / inv_calls if inv_calls else 0.0
    out["reuse.structure_share"] = by_structure / inv_calls if inv_calls else 0.0
    return out
