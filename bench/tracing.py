"""Span recording around aigopt's public functions, installed from outside.

The tracer wraps a function in a recorder and rebinds the wrapper under
every name an ``aigopt`` module holds for it, so calls made inside the
package (``opt_size`` calling ``exists_circuit``, the CLI calling
``brute_oracle``) are seen as well as the benchmark's own calls.  Nothing
under ``src/`` changes; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Per-name span counts, total and self time, plus free-form counters.

    A span's self time is its duration minus the spans it encloses; the
    stack of open spans gives each span its parent.
    """

    def __init__(self):
        self.self_time: Counter = Counter()
        self.total_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[list] = []  # [start, seconds spent in child spans]
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        frame = [time.perf_counter(), 0.0]
        self._open.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[0]
            self._open.pop()
            self.calls[name] += 1
            self.total_time[name] += duration
            self.self_time[name] += duration - frame[1]
            if self._open:
                self._open[-1][1] += duration

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, package_name: str, targets) -> None:
        """Rebind ``(span name, function, hook)`` targets in every module."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == package_name or name.startswith(package_name + ".")
        ]
        for span_name, fn, hook in targets:
            traced = self.wrap(span_name, fn, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)
