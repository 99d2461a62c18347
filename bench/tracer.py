"""Call tracing for the benchmark, installed from outside the package.

The tracer wraps public gibbsgrain functions and methods at their module and
class attributes, so the package itself carries no instrumentation. Every
wrapped call pushes a frame on one stack; when it returns, its duration is
added to its name's inclusive total and to the parent frame's child time,
which gives each name a self time (duration minus the time its traced
children cover). Cheap entry points also record a span (pass id, span id,
parent span id, name, start, end); hot calls such as ``pair_term`` (about a
hundred per hardcore step) only count calls and sum their time.

Functions are bound into consumer modules by ``from .x import f``, so a
function is replaced in every loaded ``gibbsgrain`` module that holds it,
not only in the module that defines it.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """One wrapped callable.

    ``target`` is ``"module:function"``, ``"module:Class.method"`` or
    ``"module:*.method"`` (the method on every class of the module that
    defines it). ``span`` records a span per call; ``durations`` keeps every
    call's duration for percentiles; ``parent`` restricts counting to calls
    made directly from a frame of that name (others run untraced and fold
    into their caller's self time); ``generator`` times each ``next`` of the
    returned generator instead of the call that creates it; ``on_result`` is
    called as ``on_result(stat, args, result)`` after each counted call.
    """

    target: str
    name: str
    span: bool = False
    durations: bool = False
    parent: str | None = None
    generator: bool = False
    on_result: Callable | None = None


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class Tracer:
    """Frame stack, per-name statistics and spans of one benchmark process.

    Call ``begin_pass`` before ``install``: statistics are reset per pass and
    the wrappers bind to the statistics of the pass they were installed for.
    """

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.missing: list[str] = []  # probe targets absent from this source
        self._stack: list[list] = []  # frames: [name, start, child seconds, span id]
        self._patches: list[tuple[object, str, object]] = []
        self._next_span = 0
        self.pass_id = -1

    def _stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _new_span_id(self) -> int:
        self._next_span += 1
        return self._next_span

    def begin_pass(self, pass_id: int) -> None:
        """Reset statistics and open the root frame of one pass."""
        self.stats = {}
        self.pass_id = pass_id
        self._stack[:] = [["pass", time.perf_counter(), 0.0, self._new_span_id()]]

    def end_pass(self) -> None:
        name, t0, _child, span_id = self._stack.pop()
        self.spans.append((self.pass_id, span_id, None, name, t0, time.perf_counter()))

    def call(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside a recorded span named ``name``."""
        return self._make_wrapper(fn, Probe("", name, span=True))(*args)

    # -- wrapping ----------------------------------------------------------

    def _make_wrapper(self, fn: Callable, probe: Probe) -> Callable:
        if probe.generator:
            timed_next = self._make_wrapper(next, Probe(
                probe.target, probe.name, probe.span, probe.durations, probe.parent,
                on_result=probe.on_result))

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = timed_next(it)
                    except StopIteration:
                        return
                    yield item

            return gen_wrapper

        tracer, stack, spans, clock = self, self._stack, self.spans, time.perf_counter
        name, parent, span, on_result = probe.name, probe.parent, probe.span, probe.on_result
        st = self._stat(name)
        keep = st.durations.append if probe.durations else None

        def wrapper(*args, **kwargs):
            top = stack[-1][0] if stack else name
            # a subclass method calling super() stays one logical call
            if top == name or (parent is not None and top != parent):
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0, tracer._new_span_id() if span else None]
            stack.append(frame)
            result = None
            frame[1] = t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stack[-1][2] += dur
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[2]
                if keep is not None:
                    keep(dur)
                if span:
                    parent_id = next(f[3] for f in reversed(stack) if f[3] is not None)
                    spans.append((tracer.pass_id, frame[3], parent_id, name, t0, t1))
                if on_result is not None:
                    on_result(st, args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, probes: list[Probe]) -> None:
        """Replace every probed callable; ``uninstall`` puts them back."""
        for probe in probes:
            mod_name, _, attr_path = probe.target.partition(":")
            module = importlib.import_module(mod_name)
            found = False
            if "." in attr_path:
                cls_name, meth = attr_path.split(".")
                for cls in _classes(module, cls_name):
                    if meth in cls.__dict__:
                        self._patch(cls, meth, self._make_wrapper(cls.__dict__[meth], probe))
                        found = True
            elif hasattr(module, attr_path):
                original = getattr(module, attr_path)
                wrapper = self._make_wrapper(original, probe)
                for loaded in _package_modules(module.__name__.split(".")[0]):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, key, wrapper)
                found = True
            if not found and probe.target not in self.missing:
                self.missing.append(probe.target)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_seconds(self, names) -> float:
        return sum(self.stats[n].self_s for n in names if n in self.stats)

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    def dump_spans(self, path) -> int:
        """Write the spans as JSON lines; returns the number written."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for pass_id, span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"pass": pass_id, "id": span_id, "parent": parent,
                                     "name": name, "start": t0, "end": t1}))
                fh.write("\n")
        return len(self.spans)


def _classes(module, name: str) -> list[type]:
    """The named class, or for ``*`` every class the module defines."""
    if name != "*":
        cls = getattr(module, name, None)
        return [cls] if isinstance(cls, type) else []
    return [v for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == module.__name__]


def _package_modules(package: str):
    prefix = package + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]
