"""Span tracing around calls into the lagrel modules, from outside the package.

`Tracer.install()` replaces the public functions and methods of the six
lagrel modules with wrappers that record one span per call.  A module-level
function is replaced in every lagrel module whose namespace binds it, so the
span sits wherever the calling module looks the name up; a method is
replaced on its class.  Spans stay in memory until `write()`.

A span's self time is its duration minus the part of its interval that its
child spans cover.  `layer_metrics()` turns the spans into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict


MODULES = ("exact_linalg", "linear_relations", "relation_monoid", "wgrs", "invariants", "cli")

# (module, attribute path) -> span name, for the entry points that have a
# metric of their own.  Everything else public keeps "<module>.<qualname>".
NAMED = {
    ("exact_linalg", "_echelon"): "exact_linalg.echelon",
    ("exact_linalg", "_nullspace"): "exact_linalg.nullspace",
    ("exact_linalg", "Matrix.__matmul__"): "exact_linalg.matmul",
    ("exact_linalg", "Matrix.inverse"): "exact_linalg.solve",
    ("exact_linalg", "solve_right"): "exact_linalg.solve",
    ("exact_linalg", "quotient"): "exact_linalg.quotient",
    ("linear_relations", "compose"): "linear_relations.compose",
    ("linear_relations", "Isometry.__init__"): "linear_relations.isometry_check",
    ("linear_relations", "random_lagrangian"): "linear_relations.random_lagrangian",
    ("linear_relations", "canonical_data"): "linear_relations.canonical_data",
    ("relation_monoid", "closure"): "relation_monoid.closure",
    ("relation_monoid", "LagrangianEquivalenceRelation.weyl_group"): "relation_monoid.weyl_group",
    ("relation_monoid", "LagrangianEquivalenceRelation.reduce"): "relation_monoid.reduce",
    ("relation_monoid", "LagrangianEquivalenceRelation.is_semiregular"): "relation_monoid.is_semiregular",
    ("wgrs", "RootSystem.weyl_group"): "wgrs.weyl_group",
    ("wgrs", "RootSystem.described_components"): "wgrs.described_components",
    ("wgrs", "RootSystem.class_membership"): "wgrs.class_membership",
    ("invariants", "invariant_space"): "invariants.invariant_space",
    ("invariants", "separate"): "invariants.separate",
    ("cli", "main"): "cli.main",
}

# Conversions and accessors called hundreds of thousands of times per job.
# A span each would cost more than their work and hold millions of spans in
# memory, so their time stays with the calling span.
LEAVES = {
    ("exact_linalg", "rational"), ("exact_linalg", "format_rational"),
    ("exact_linalg", "as_vector"), ("exact_linalg", "vector_to_payload"),
    ("exact_linalg", "BilinearForm.pairing"), ("exact_linalg", "BilinearForm.int_pairing"),
    ("exact_linalg", "Matrix.apply"), ("exact_linalg", "Matrix.row"),
    ("exact_linalg", "Matrix.column"), ("exact_linalg", "Matrix.transpose"),
    ("exact_linalg", "Subspace.contains_vector"),
    ("linear_relations", "random_rational"), ("invariants", "monomials"),
}

# Span names whose call count and self time are per-layer metrics.
CALLS_AND_SELF = (
    "exact_linalg.echelon", "exact_linalg.nullspace", "exact_linalg.matmul",
    "exact_linalg.solve", "exact_linalg.quotient",
    "linear_relations.compose", "linear_relations.isometry_check",
    "linear_relations.random_lagrangian", "linear_relations.canonical_data",
    "relation_monoid.closure", "relation_monoid.reduce", "relation_monoid.is_semiregular",
    "wgrs.weyl_group", "wgrs.class_membership",
    "invariants.invariant_space", "invariants.separate",
)
SELF_ONLY = ("relation_monoid.weyl_group", "wgrs.described_components")
SLICE_DEGREES = range(1, 9)


def _degree_of(args, kwargs):
    return kwargs.get("degree", args[1] if len(args) > 1 else None)


class Tracer:
    """Records spans (name, start, end, parent, run id) and counters in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, detail]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        detail_of = _degree_of if name == "invariants.invariant_space" else None
        count_result = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            detail = detail_of(args, kwargs) if detail_of else None
            spans.append([name, clock(), 0.0, parent, detail])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count_result is not None:
                count_result(counters, result)
            return result

        return traced

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public entry point of the six modules."""
        mods = {m: importlib.import_module(f"lagrel.{m}") for m in MODULES}
        namespaces = [importlib.import_module("lagrel"), *mods.values()]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if (attr.startswith("_") and (short, attr) not in NAMED) or (short, attr) in LEAVES:
                        continue
                    wrapped = self.wrap(NAMED.get((short, attr), f"{short}.{attr}"), obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._set(ns, key, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(short, obj)

    def _install_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            private = attr.startswith("_") and (short, qual) not in NAMED
            if private or attr == "sort_key" or (short, qual) in LEAVES:
                continue
            name = NAMED.get((short, qual), f"{short}.{qual}")
            if isinstance(raw, functools.cached_property):
                new = functools.cached_property(self.wrap(name, raw.func))
                new.__set_name__(cls, attr)
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self.wrap(name, raw)
            else:
                continue
            self._set(cls, attr, new)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ---------------------------------------------------------------------

    def write(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["run_id"] = self.run_id
        payload["fields"] = ["name", "start", "end", "parent", "detail"]
        payload["spans"] = self.spans
        payload["counters"] = dict(self.counters)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _count_closure(counters, rel):
    counters["closure.components"] += len(rel)
    # the pool starts with the diagonal and the (inverse-closed) generators
    counters["closure.new"] += len(rel) - 1 - len(rel.generators)


def _count_weyl(counters, group):
    counters["weyl.elements"] += len(group)


_RESULT_COUNTS = {
    "relation_monoid.closure": _count_closure,
    "wgrs.weyl_group": _count_weyl,
}


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics: self seconds and call counts at each span name."""
    selfs = self_times(spans)
    by_name_self: dict[str, float] = defaultdict(float)
    by_name_calls: dict[str, int] = defaultdict(int)
    by_module_self: dict[str, float] = defaultdict(float)
    slice_self: dict[int, float] = defaultdict(float)
    compose_under_closure = 0
    for (name, start, end, parent, detail), s in zip(spans, selfs):
        by_name_self[name] += s
        by_name_calls[name] += 1
        by_module_self[name.split(".", 1)[0]] += s
        if name == "invariants.invariant_space" and detail is not None:
            slice_self[detail] += s
        if name == "linear_relations.compose" and parent >= 0 and spans[parent][0] == "relation_monoid.closure":
            compose_under_closure += 1
    out: dict[str, float] = {}
    for module in MODULES:
        out[f"{module}.self_s"] = by_module_self[module]
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = by_name_calls[name]
        out[f"{name}.self_s"] = by_name_self[name]
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = by_name_self[name]
    out["relation_monoid.closure.components"] = counters.get("closure.components", 0)
    out["relation_monoid.closure.useful_ratio"] = (
        counters.get("closure.new", 0) / compose_under_closure if compose_under_closure else 0.0
    )
    out["wgrs.weyl_group.elements"] = counters.get("weyl.elements", 0)
    for d in SLICE_DEGREES:
        out[f"invariants.invariant_space.d{d}.self_s"] = slice_self[d]
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Wall time under each span name, counting nested calls of one name once."""
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] += end - start
    return out
