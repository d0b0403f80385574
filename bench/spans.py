"""Span tracing by patching module attributes at run time.

``Tracer.patch`` swaps every public module-level function of the given
modules, including names a module imported from another layer (such as
``doodlekit.derived.equivalent_closures``), for a wrapper that records one
span per call: name, call site, parent span, start and end.  ``restore``
puts the originals back.  Nothing under ``src/`` is edited; spans stay in
memory until ``write`` stores them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from pathlib import Path

# span fields
NAME, SITE, PARENT, START, END = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock  # nanoseconds
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, site: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, site, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def patch_attr(self, module, attr: str, name: str, site: str) -> None:
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        setattr(module, attr, self.wrap(name, site, fn))

    def patch(self, modules: dict) -> None:
        """Wrap the public functions of each {layer: module} entry.

        A span is named after the layer that defines the function; its
        site is the module whose attribute the caller went through.
        """
        layers = {mod.__name__: layer for layer, mod in modules.items()}
        for site, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = layers.get(obj.__module__)
                if layer is not None:
                    self.patch_attr(mod, attr, f"{layer}.{attr}", site)

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def self_times(self) -> list[int]:
        """Per span: its duration minus the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0
        with gzip.open(path, "wt") as out:
            for s in self.spans:
                out.write(json.dumps([s[NAME], s[SITE], s[PARENT], s[START] - t0, s[END] - t0]))
                out.write("\n")
