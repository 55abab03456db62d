"""Spans and counts around the package's public functions, from outside it.

``Tracer.install`` wraps every public function of each layer module and
rebinds every ``from .x import y`` name that refers to it, so calls made
inside the package are seen too (``boussinesq.cli.single_run``,
``boussinesq.sweeps.run`` ...).  The stepper classes get their
``__init__``, ``step`` and ``step_arrays`` wrapped.  The numpy FFT entry
points and ``numpy.mean`` are counted, not spanned.  Spans are kept in
memory as (name, start, end, parent) and written out by ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = (
    "spectral",
    "waves",
    "stepping",
    "diagnostics",
    "sweeps",
    "reporting",
    "verification",
    "cli",
)
STEPPERS = ("ProposedStepper", "FrutosStepper")
STEPPER_METHODS = ("__init__", "step", "step_arrays")
NUMPY_COUNTED = ("fft.fft", "fft.ifft", "fft.rfft", "fft.irfft", "mean")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, numpy_only: bool = False) -> "Tracer":
        """Patch the package (unless ``numpy_only``) and the numpy entry points."""
        import numpy

        for dotted in NUMPY_COUNTED:
            owner_path, _, attr = dotted.rpartition(".")
            owner = numpy.fft if owner_path == "fft" else numpy
            self._set(owner, attr, self._counted(f"numpy.{dotted}", getattr(owner, attr)))
        if numpy_only:
            return self
        # a layer, function or method the package no longer has is skipped:
        # its metrics then read zero instead of stopping the traced run
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules.get(f"boussinesq.{layer}")
            for public in getattr(module, "__all__", ()):
                fn = getattr(module, public)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = self._spanned(f"{layer}.{public}", fn)
        stepping = sys.modules.get("boussinesq.stepping")
        for cls_name in STEPPERS:
            cls = getattr(stepping, cls_name, None)
            for method in STEPPER_METHODS:
                fn = getattr(cls, "__dict__", {}).get(method)
                if fn is not None:
                    self._set(cls, method, self._spanned(f"stepping.{cls_name}.{method}", fn))
        for name, module in list(sys.modules.items()):
            if name == "boussinesq" or name.startswith("boussinesq."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped:
                        self._set(module, attr, wrapped[id(value)])
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def mark(self) -> int:
        """Position in the span list, to read the spans of one pass later."""
        return len(self.spans)

    def summary(self, since: int = 0) -> dict[str, Counter]:
        """Totals over the spans recorded after ``since``.

        Keys: ``calls``, ``self_s`` and ``inclusive_s`` per span name, and
        ``layer_self_s`` and ``layer_inclusive_s`` per layer.  A span's self
        time is its duration minus its direct children's; time in numpy
        counts as the caller's.  A layer's inclusive time counts only spans
        whose parent is in another layer, so nested calls count once.
        """
        spans = self.spans[since:]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= since:
                child[parent - since] += end - start
        keys = ("calls", "self_s", "inclusive_s", "layer_self_s", "layer_inclusive_s")
        out = {key: Counter() for key in keys}
        for i, (name, start, end, parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            out["calls"][name] += 1
            out["self_s"][name] += end - start - child[i]
            out["inclusive_s"][name] += end - start
            out["layer_self_s"][layer] += end - start - child[i]
            if parent < since or not spans[parent - since][0].startswith(layer + "."):
                out["layer_inclusive_s"][layer] += end - start
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end (s), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
