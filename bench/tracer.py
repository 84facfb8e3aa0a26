"""Spans and counters recorded from outside proofport.

The tracer replaces module and class attributes of the running program
with timing or counting wrappers; it never edits the program's source.
A name imported by value (`from .kernel import check_theory`) is a
separate binding in every importing module, so each wrapper is bound
into every `proofport` module that holds the original function.

`encodings.logic_library` runs while `proofport` is being imported, so
it is wrapped by an import hook as soon as `proofport.encodings` has
executed, before any other module takes it by value.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import sys
import time
from functools import wraps

# (span name, module, attribute); one span name may cover several functions
SPANS = (
    ("cli", "proofport.cli", "main"),
    ("encodings.logic_library", "proofport.encodings", "logic_library"),
    ("importers.parse", "proofport.importers", "parse_toyhol"),
    ("importers.parse", "proofport.importers", "parse_toyset"),
    ("importers.import", "proofport.importers", "import_toyhol"),
    ("importers.import", "proofport.importers", "import_toyset"),
    ("importers.infer_church_annotations", "proofport.importers", "infer_church_annotations"),
    ("elaboration.elaborate_pattern", "proofport.elaboration", "elaborate_pattern"),
    ("kernel.check_theory", "proofport.kernel", "check_theory"),
    ("omdoc.parse", "proofport.omdoc", "parse"),
    ("omdoc.serialize", "proofport.omdoc", "serialize"),
    ("ontology.extract_triples", "proofport.ontology", "extract_triples"),
    ("ontology.write_ntriples", "proofport.ontology", "write_ntriples"),
    ("morphisms.check_morphism", "proofport.morphisms", "check_morphism"),
    ("morphisms.translate", "proofport.morphisms", "translate"),
)

# (counter name, module, attribute, class or None); counts every call,
# recursive ones included
COUNTERS = (
    ("kernel.find_decl", "proofport.kernel", "find_decl", "Library"),
    ("kernel.find_theory", "proofport.kernel", "find_theory", "Library"),
    ("kernel.whnf", "proofport.kernel", "whnf", None),
    ("kernel.substitute", "proofport.kernel", "substitute", None),
)

# spans that `importers.import_self_s` subtracts from the import span
_FOREIGN_TO_IMPORT = ("kernel", "elaboration")


class Tracer:
    """Per-process span and counter totals.

    For each span name: `calls`, `total_s` (outermost calls only, so a
    recursive span is not counted twice), `self_s` (duration minus the
    direct child spans) and `excl_s` (duration minus every outermost
    kernel or elaboration span beneath it).
    """

    def __init__(self) -> None:
        self.spans: dict[str, dict] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [child_s, foreign_s] per open span
        self._open: dict[str, int] = {}

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn):
        stats = self.spans.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "excl_s": 0.0}
        )
        foreign = name.split(".")[0] in _FOREIGN_TO_IMPORT
        stack, open_ = self._stack, self._open
        on_result = self._decls_checked if name == "kernel.check_theory" else None

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            depth = open_.get(name, 0)
            open_[name] = depth + 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                open_[name] = depth
                stats["calls"] += 1
                stats["self_s"] += dt - frame[0]
                if depth == 0:
                    stats["total_s"] += dt
                    stats["excl_s"] += dt - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    parent[1] += dt if foreign else frame[1]
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def counter(self, name: str, fn):
        counts, open_ = self.counts, self._open
        counts.setdefault(name, 0)
        # the dangling-reference check in serialize is a find_decl loop
        in_serialize = "omdoc.serialize.find_decl_calls" if name == "kernel.find_decl" else None
        if in_serialize:
            counts[in_serialize] = 0

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if in_serialize and open_.get("omdoc.serialize"):
                counts[in_serialize] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _decls_checked(self, report) -> None:
        self.counts["kernel.decls_checked"] = (
            self.counts.get("kernel.decls_checked", 0) + len(report.results)
        )

    # -- installation -----------------------------------------------------

    def install_import_hook(self) -> None:
        """Wrap `encodings.logic_library` the moment its module exists."""
        sys.meta_path.insert(0, _EncodingsHook(self))

    def install(self) -> None:
        """Bind every wrapper into every loaded proofport module.

        A function the program no longer has is skipped: its span or
        counter then reads 0.
        """
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "proofport" or n.startswith("proofport."))]
        for name, mod, attr in SPANS:
            original = getattr(sys.modules.get(mod), attr, None)
            if original is not None:
                self._rebind(modules, original, lambda f, n=name: self.span(n, f))
        for name, mod, attr, cls in COUNTERS:
            owner = getattr(sys.modules.get(mod), cls, None) if cls else sys.modules.get(mod)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            if cls:
                setattr(owner, attr, self.counter(name, original))
            else:
                self._rebind(modules, original, lambda f, n=name: self.counter(n, f))

    @staticmethod
    def _rebind(modules, original, make) -> None:
        if getattr(original, "__wrapped_by_tracer__", False):
            return
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def report(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


class _EncodingsHook(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != "proofport.encodings":
            return None
        sys.meta_path.remove(self)
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def traced_exec(module):
            exec_module(module)
            module.logic_library = tracer.span("encodings.logic_library", module.logic_library)

        spec.loader.exec_module = traced_exec
        return spec
