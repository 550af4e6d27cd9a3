"""Layer spans for the traced benchmark run.

The layers are covband's modules.  :meth:`Tracer.install` wraps, from
outside the package, every function that one covband module imports from
another -- module-level ``from .x import f`` in the importer's namespace,
call-time imports in the source module's namespace -- plus ``cli.main``.
Each wrapped call records a :class:`Span` named after the import and keyed
by the module that defines the callee, so a layer keeps its metric names
when its private helpers are renamed or deleted.

Spans stay in memory; the caller writes them out when the run ends.
Importing this module loads no numpy.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "covband"
LAYERS = ("cli", "bench", "selection", "estimators", "forecast", "matcore", "simgen")
# Modules on no workload path: wrapped like the others, but never reported.
UNMEASURED = ("spectral", "errors")


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    module: str
    start: float
    end: float = 0.0
    error: bool = False


class Tracer:
    """Collects spans of wrapped calls; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        module = fn.__module__.rpartition(".")[2]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent, self.op, name, module, self.clock())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every cross-module import of the package, and ``cli.main``."""
        for owner, attr, label in cross_module_imports():
            self._patch(owner, attr, label)
        self._patch(importlib.import_module(f"{PACKAGE}.cli"), "main", "cli.main")

    def uninstall(self) -> None:
        """Put back every original function, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, label: str) -> None:
        original = getattr(owner, attr)
        if inspect.isfunction(original):
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, label))


def cross_module_imports() -> list[tuple[object, str, str]]:
    """(namespace, attribute, label) for each function imported across modules.

    Read from the package sources, so a module that adds or drops an import
    is traced without editing this list.
    """
    package = importlib.import_module(PACKAGE)
    pkg_dir = os.path.dirname(package.__file__)
    found: dict[tuple[int, str], tuple[object, str, str]] = {}
    for fname in sorted(os.listdir(pkg_dir)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        importer = fname[:-3]
        with open(os.path.join(pkg_dir, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1 or not node.module:
                continue
            source = node.module
            for alias in node.names:
                bound = alias.asname or alias.name
                if id(node) in top_level:
                    owner = importlib.import_module(f"{PACKAGE}.{importer}")
                    attr = bound
                else:  # a call-time import reads the source module's attribute
                    owner = importlib.import_module(f"{PACKAGE}.{source}")
                    attr = alias.name
                found[(id(owner), attr)] = (owner, attr, f"{importer}.{bound}")
    return list(found.values())


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-module self time: each span's duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.module] += (s.end - s.start) - _covered(children[s.id], s.start, s.end)
    return dict(out)


def layer_summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, self_s and errors per measured layer (zeros for untouched ones)."""
    selfs = self_times(spans)
    out = {layer: {"calls": 0, "self_s": selfs.get(layer, 0.0), "errors": 0} for layer in LAYERS}
    for s in spans:
        if s.module in out:
            out[s.module]["calls"] += 1
            out[s.module]["errors"] += int(s.error)
    return out
