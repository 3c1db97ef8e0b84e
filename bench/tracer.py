"""In-memory call tracing for the benchmark's traced rounds.

`Tracer.install(package)` replaces every public function of the
package's modules, at every module attribute that refers to it, with
one timing wrapper. Functions imported by name (`monitor.rk4_step`,
`falsify.abstract_state_of`, `plants.mlp_forward`, ...) are therefore
wrapped where they are called, and each function has exactly one
wrapper, so no call is counted twice. A few private `cli` helpers (the
trace writers and the atomic file write) are wrapped as well, so that
a command's own time can be told apart from its output formatting.

Every wrapped call pushes a frame; on return the frame's duration is
added to its parent's child time, and its self time (duration minus
child time) is added to the function's totals. Calls of functions that
run once per simulation step, trace row or model state (`LEAVES`) only
update those totals; every other call is also kept as a span (name,
parent span, start, end). Spans stay in memory and are handed back by
`spans()`.

A probe (`probes`: name -> factory) wraps a function inside its timing
wrapper to count something about each call, such as bytes written or
verdict-cache misses; its small cost is part of that function's own
time. `uninstall()` puts the original functions back. Nothing under
`src/` knows about the tracer.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field

# called once per simulation step, trace row or model state
LEAVES = frozenset({
    "plants.rk4_step", "plants.derivative", "plants.project_state", "plants.channel_row",
    "plants.observe", "plants.pid_error", "plants.controller_action", "plants.conc_ref",
    "controllers.mlp_forward", "controllers.pid_act", "signals.sample",
    "abstraction.abstract_action", "abstraction.parse_state_id", "abstraction.state_id_str",
})

# private helpers of `cli` that are wrapped as children of a command
CLI_HELPERS = ("_trace_text", "_monitored_text", "_atomic_write")


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: dict = field(default_factory=dict)  # exception class name -> count
    durations: list | None = None  # per-call durations, kept for `timed_calls`


class Tracer:
    def __init__(self, timed_calls=(), probes=None):
        """timed_calls: names whose every duration is kept (for percentiles).
        probes: name -> factory(original function, counters) returning
        the callable to time in its place."""
        self.stats: dict[str, FunctionStats] = {}
        self.counters: dict[str, float] = {}
        self._spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[list] = []  # [child seconds, innermost span index or -1]
        self._timed = frozenset(timed_calls)
        self._probes = dict(probes or {})
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        prefix = package.__name__ + "."
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__ or name.startswith(prefix))]
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__[len(prefix):]
            if not short:
                continue
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and not (short == "cli" and attr in CLI_HELPERS):
                    continue
                name = f"{short}.{attr.lstrip('_')}"
                wrappers[id(fn)] = self._wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, FunctionStats())
        if name in self._timed:
            stats.durations = []
        leaf = name in LEAVES
        original = fn
        if name in self._probes:
            fn = self._probes[name](fn, self.counters)
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        def wrapped(*args, **kwargs):
            enclosing = stack[-1][1] if stack else -1
            if leaf:
                index = -1
                frame = [0.0, enclosing]
            else:
                index = len(spans)
                spans.append([name, enclosing, 0.0, 0.0])
                frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                stats.errors[kind] = stats.errors.get(kind, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if stats.durations is not None:
                    stats.durations.append(duration)
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    spans[index][2] = start
                    spans[index][3] = end

        wrapped.__wrapped__ = original
        wrapped.__name__ = original.__name__
        wrapped.__doc__ = original.__doc__
        return wrapped

    # -- results --------------------------------------------------------

    def spans(self) -> list[dict]:
        """Recorded spans in call order; `root` is the index of the
        outermost span (one command), shared by all spans it caused."""
        out = []
        for i, (name, parent, start, end) in enumerate(self._spans):
            root = i if parent < 0 else out[parent]["root"]
            out.append({"id": i, "name": name, "parent": parent, "root": root, "start": start, "end": end})
        return out

    def snapshot(self) -> dict[str, float]:
        """Self seconds per function so far."""
        return {name: stats.self_s for name, stats in self.stats.items()}

    def delta(self, before: dict[str, float]) -> dict[str, float]:
        """Self seconds per function since `before` (a `snapshot()`)."""
        out = {}
        for name, stats in self.stats.items():
            secs = stats.self_s - before.get(name, 0.0)
            if secs:
                out[name] = secs
        return out
