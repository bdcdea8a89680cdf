"""Spans around calls into tegkit's layers, recorded from outside the package.

A span is (id, name, start_ns, end_ns, parent_id, task). Its name is
`<layer>.<function>`; the layer is the tegkit module, with materials,
presets and constants counted under config, which calls them. Spans are
kept in memory and written when the run ends.
"""

import functools
import importlib
import time
import types
from collections import defaultdict

LAYERS = ("cli", "config", "device", "optimize", "ecd", "output")
_LAYER_OF = {
    "tegkit.cli": "cli",
    "tegkit.config": "config",
    "tegkit.materials": "config",
    "tegkit.presets": "config",
    "tegkit.constants": "config",
    "tegkit.device": "device",
    "tegkit.optimize": "optimize",
    "tegkit.ecd": "ecd",
    "tegkit.output": "output",
}


def span_name(fn) -> str:
    return f"{_LAYER_OF[fn.__module__]}.{fn.__name__}"


class Tracer:
    def __init__(self, id_prefix: str = "", root_parent=None):
        self.spans = []
        self.task = None
        self._stack = [root_parent]
        self._prefix = id_prefix
        self._next = 0

    def _new_id(self):
        self._next += 1
        return f"{self._prefix}{self._next}"

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._new_id()
            parent = self._stack[-1]
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.task))

        return traced

    def current(self):
        """Id of the innermost open span."""
        return self._stack[-1]

    def open(self, name: str):
        """Start a span by hand; returns the function that ends it."""
        sid = self._new_id()
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter_ns()

        def close():
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.task))

        return close


def install(tracer: Tracer):
    """Wrap every name one tegkit layer imports from another.

    Calls inside a layer stay unwrapped: `tegkit.optimize.evaluate` is
    wrapped, `tegkit.device.evaluate` is not. Returns an undo function.
    """
    undo = []
    for module_name, layer in _LAYER_OF.items():
        module = importlib.import_module(module_name)
        for attr, value in list(vars(module).items()):
            if (
                isinstance(value, types.FunctionType)
                and _LAYER_OF.get(value.__module__, layer) != layer
            ):
                undo.append((module, attr, value))
                setattr(module, attr, tracer.wrap(span_name(value), value))

    def restore():
        for module, attr, value in undo:
            setattr(module, attr, value)

    return restore


def self_times(spans) -> dict:
    """Per-layer self time, ns: a span's duration minus its children's."""
    child_ns = defaultdict(int)
    for _, _, start, end, parent, _ in spans:
        child_ns[parent] += end - start
    out = defaultdict(int)
    for sid, name, start, end, _, _ in spans:
        out[name.split(".")[0]] += end - start - child_ns[sid]
    return dict(out)


def descendants_named(spans, ancestor_name: str, name: str) -> int:
    """Number of `name` spans that have an `ancestor_name` span above them."""
    parent_of = {s[0]: s[4] for s in spans}
    name_of = {s[0]: s[1] for s in spans}
    count = 0
    for sid, span, *_ in spans:
        if span != name:
            continue
        p = parent_of[sid]
        while p in parent_of:
            if name_of[p] == ancestor_name:
                count += 1
                break
            p = parent_of[p]
    return count
