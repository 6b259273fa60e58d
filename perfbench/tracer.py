"""In-memory span tracer for the panelbreak layer modules.

``install`` wraps every public function and public method of the layer
modules and then rebinds every module attribute that held one of them.
The rebinding matters: ``wald`` and ``dgp`` call ``cce_fit`` through their
own ``from .estimator import cce_fit`` binding, and ``cli`` calls
``sup_wald`` through its own, so wrapping only the defining module would
miss those calls.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the operation id.  Spans
stay in memory and are written once, when the traced child ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "io", "panel", "linalg", "estimator", "wald", "limits", "dgp")

# Sizes of results, counted at the boundary where the work happens.
RESULT_COUNTS = {"io.read_panel_rows": "io.rows"}


class Tracer:
    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []

    def wrap(self, name: str, func):
        spans, stack, op_id = self.spans, self._stack, self.op_id
        count_key = RESULT_COUNTS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count_key is not None:
                self.counts[count_key] = self.counts.get(count_key, 0) + len(result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the layers' public callables and rebind every module reference."""
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        module = importlib.import_module(f"panelbreak.{layer}")
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                wrapped[id(value)] = (value, tracer.wrap(f"{layer}.{attr}", value))
            elif inspect.isclass(value):
                # Methods are reached through the class object, which every
                # importing module shares, so patching the class suffices.
                for name, member in list(vars(value).items()):
                    label = f"{layer}.{attr}.{name}"
                    if name.startswith("_"):
                        continue
                    if inspect.isfunction(member):
                        setattr(value, name, tracer.wrap(label, member))
                    elif isinstance(member, classmethod):
                        setattr(value, name, classmethod(tracer.wrap(label, member.__func__)))
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "panelbreak" or name.startswith("panelbreak.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def summarize(spans) -> dict:
    """Per name: calls, inclusive seconds (outermost spans only) and self seconds.

    Self time is a span's duration minus the time its child spans cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return out
