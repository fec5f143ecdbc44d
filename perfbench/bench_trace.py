"""Outside-in spans around the public callables of each flaglets layer.

`install` wraps every function named in a layer module's ``__all__`` on
every loaded ``flaglets`` module that holds a reference to it, so callers
that imported the name with ``from .x import f`` are traced too.  Classes
keep their identity (``isinstance`` checks in the library still work): their
own ``__init__`` is wrapped in place, which times construction.  A name that
is missing from the library simply never records a call.

Spans are kept in memory while a phase is open and reduced at the end: a
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

LAYERS = (
    "quadrature",
    "sphere_harmonics",
    "radial_laguerre",
    "flag_transform",
    "kernel_tiling",
    "flaglet_transform",
    "sphere_wavelets",
    "io_container",
)

# Layer entry points that are methods rather than module-level names.
METHODS = {"flaglet_transform": (("FlagletDecomposition", "scale_energies"),)}

_PHASE, _NAME, _START, _END, _PARENT = range(5)


class Tracer:
    """Records one span per wrapped call made while `phase` is not None."""

    def __init__(self):
        self.phase = None
        self.spans: list[list] = []  # [phase, name, start, end, parent index or -1]
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            span = [self.phase, name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[_START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = perf_counter()
                self._open.pop()

        return traced

    def totals(self, in_phase) -> dict[str, list]:
        """Per span name, [calls, self seconds] over spans whose phase passes `in_phase`."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        out: dict[str, list] = {}
        for index, span in enumerate(self.spans):
            if in_phase(span[_PHASE]):
                entry = out.setdefault(span[_NAME], [0, 0.0])
                entry[0] += 1
                entry[1] += span[_END] - span[_START] - child[index]
        return out


def install(tracer: Tracer):
    """Wrap the public callables of every layer, naming each span `<layer>.<name>`."""
    replacements = {}  # id(function) -> (function, wrapper)
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"flaglets.{layer}")
        except ImportError:
            continue
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr, None)
            name = f"{layer}.{attr}"
            if isinstance(obj, type):
                if "__init__" in vars(obj):
                    obj.__init__ = tracer.wrap(name, vars(obj)["__init__"])
            elif callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                replacements[id(obj)] = (obj, tracer.wrap(name, obj))
        for cls_name, method in METHODS.get(layer, ()):
            cls = getattr(module, cls_name, None)
            if cls is not None and method in vars(cls):
                name = f"{layer}.{cls_name}.{method}"
                setattr(cls, method, tracer.wrap(name, vars(cls)[method]))

    for module_name, module in list(sys.modules.items()):
        if module_name != "flaglets" and not module_name.startswith("flaglets."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
