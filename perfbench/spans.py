"""Span recorder for the traced benchmark run.

``SpanRecorder.install`` wraps every public function of each ``kdl`` module,
plus the constructor, matrix product and the public methods of each
class the module defines, and rebinds each wrapped function at every
``kdl.*`` name bound to it (``from .lattice import rank_of`` makes a second
binding that must be patched too).  Each wrapped call records a span (name,
start, end, parent, request id) and folds its self time, duration minus the
time its child spans cover, into a per-name total.  ``uninstall`` restores
every original binding.

The first ``SPAN_CAP`` spans are kept in typed arrays and written out by
``write``; the per-name totals cover every call, also beyond the cap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from enum import Enum
from pathlib import Path

# Class attributes that are wrapped besides public methods, and the layer
# name each one is reported under.
DUNDER_NAMES = {"__init__": "new", "__matmul__": "matmul"}
SPAN_CAP = 200_000


def kdl_modules() -> dict:
    """Every imported ``kdl`` module, by full name."""
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "kdl" or name.startswith("kdl."))
    }


class SpanRecorder:
    """Records nested spans of calls into the ``kdl`` modules.

    Only one thread may call into a traced ``kdl`` while the recorder is
    installed: the span stack is not shared safely between threads.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_of = array("i")
        self.parent_of = array("i")
        self.request_of = array("q")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.request = -1
        # Each frame is [span id, start, time covered by children, name].
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _enter(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        start = time.perf_counter()
        sid = len(self.starts)
        if sid < SPAN_CAP:
            self.starts.append(start)
            self.ends.append(start)
            self.name_of.append(nid)
            self.parent_of.append(self._stack[-1][0] if self._stack else -1)
            self.request_of.append(self.request)
        else:
            sid = -1
        frame = [sid, start, 0.0, name]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, start, children, name = frame
        duration = end - start
        if sid >= 0:
            self.ends[sid] = end
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str):
        """Context manager recording one span around benchmark code."""
        return _Span(self, name)

    def _wrap(self, fn, name: str):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and methods of every imported kdl module."""
        modules = kdl_modules()
        wrapped: dict[int, object] = {}
        for modname, mod in modules.items():
            short = modname.split(".", 1)[1] if "." in modname else modname
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                    self._wrap_methods(obj, f"{short}.{attr}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                replacement = wrapped.get(id(obj))
                if replacement is not None and getattr(replacement, "__wrapped__", None) is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replacement)

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            label = DUNDER_NAMES.get(attr, None if attr.startswith("_") else attr)
            if label is None:
                continue
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, f"{prefix}.{label}"))

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        """Self time summed over every wrapped name of each module."""
        totals: dict[str, float] = {}
        for name, seconds in self.self_s.items():
            module = name.split(".", 1)[0]
            totals[module] = totals.get(module, 0.0) + seconds
        return totals

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines: a header, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            header = {"fields": ["id", "name", "start", "end", "parent", "request"], "names": self.names}
            out.write(json.dumps(header) + "\n")
            for sid in range(len(self.starts)):
                out.write(
                    f"[{sid},{self.name_of[sid]},{self.starts[sid]!r},{self.ends[sid]!r},"
                    f"{self.parent_of[sid]},{self.request_of[sid]}]\n"
                )


class _Span:
    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder, self.name = recorder, name

    def __enter__(self):
        self.frame = self.recorder._enter(self.name)
        return self

    def __exit__(self, *exc):
        self.recorder._exit(self.frame)
        return False
