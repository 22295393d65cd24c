"""Spans around the package's public functions, recorded from outside it.

install() replaces every public function defined in a layer module with a
wrapper, under every name any tdc module binds it to (so calls through
imported names such as tdc.lvcot.assemble_tdc and through module lookups
such as qformer's kernels.gelu are both seen), and uninstall() puts the
originals back.  Spans stay in memory until write().
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("timeline", "segmenter", "compressor", "qformer", "kernels", "lvcot")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "facts")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.facts = None


class Tracer:
    """Records (name, start, end, parent, op id) for every wrapped call.

    `observers` maps a span name to a function of (args, kwargs, result)
    that returns counts taken where the work happens; they are stored as
    the span's facts, or left out if the call no longer has that shape.
    """

    def __init__(self, observers=None):
        self.spans: list[Span] = []
        self.op = -1
        self.observers = dict(observers or {})
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self._stack, self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    span.facts = observe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        return traced

    def install(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"tdc.{layer}")
            except ImportError:
                continue  # a layer that no longer exists records nothing
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tdc" and not mod_name.startswith("tdc."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))
        return self

    def patch(self, owner, attr: str, name: str) -> None:
        """Wrap one more callable, such as a method of the benchmark's own answerer."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original))
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path, **meta) -> None:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump(
                {
                    **meta,
                    "fields": ["name", "start", "end", "parent", "op"],
                    "names": names,
                    "spans": [[index[s.name], s.start, s.end, s.parent, s.op] for s in self.spans],
                },
                f,
                separators=(",", ":"),
            )
