"""Span tracing of fvstream from the outside.

The tracer replaces chosen module-level functions and methods of the
installed package with wrappers that record one span per call: name, start,
end, the span that caused it and the unit of work it belongs to.  Spans stay
in memory; self time (a span's duration minus its direct children) is
accumulated as spans close, and the full list is written out once when the
run ends.  Observers attached to a wrapper see each call's arguments and
return value, which is where the waste ratios are counted, so no counter
reads the program's private state.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable

Observer = Callable[[tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []        # [name, start, end, parent, unit]
        self.unit = -1
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[list] = []       # [span index, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, observer: Observer | None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append([name, time.perf_counter(), 0.0, parent, self.unit])
            stack.append([idx, 0.0])
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = stack.pop()
                span = spans[idx]
                span[2] = end
                dur = end - span[1]
                if stack:
                    stack[-1][1] += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
            if observer is not None:
                observer(args, kwargs, out)
            return out

        return wrapper

    def install(self, module, attr: str, name: str,
                observer: Observer | None = None) -> None:
        """Wrap `module.attr` everywhere the package has bound it.

        A function imported with `from .x import f` is a separate global in
        every importing module, so each fvstream module (and the package
        namespace) holding the same object gets the same wrapper.  For a
        method, `module` is the class.
        """
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, observer)
        if isinstance(module, type):
            holders = [module]
        else:
            holders = [m for key, m in sorted(sys.modules.items())
                       if (key == "fvstream" or key.startswith("fvstream."))
                       and getattr(m, attr, None) is original]
        for holder in holders:
            self._patched.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- reading -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "unit"],
                       "spans": self.spans}, fh)
