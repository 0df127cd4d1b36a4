"""Per-layer spans for ergokit, recorded from outside the package.

`Tracer.installed(package)` replaces every public function of each layer
module with a timing wrapper, at every module's binding of it: `passivity`
imports `state_eigenvalues` by name, so `passivity.state_eigenvalues` is
wrapped as well as `core.state_eigenvalues`, and both report under the
defining module's name.  Nested calls therefore become child spans, and a
span's self time is its duration minus the durations of its children.
`DensityMatrix` construction is timed once, on the class every module
shares.  Spans are kept in memory as per-name totals; nothing is written
out until the caller reads `stats`.

Spans are recorded only inside `Tracer.recording()`, so a benchmark can
run its oracles between cells without charging them to any layer.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYER_MODULES = ("core", "passivity", "families", "protocols", "analysis",
                 "figures", "verify", "cli", "reporting")


@dataclass
class SpanStats:
    """Totals for one traced function over everything recorded so far."""

    calls: int = 0
    self_s: float = 0.0
    counters: dict = field(default_factory=lambda: defaultdict(float))


def _count_bytes(tracer, stats, elapsed, args, kwargs):
    # computed, not measured: one dense complex dim x dim copy per construction
    dim = args[0].dim
    stats.counters["bytes"] += 16 * dim * dim


def _count_repeat_solves(tracer, stats, elapsed, args, kwargs):
    rho = args[0] if args else kwargs["rho"]
    if rho in tracer.solved:
        stats.counters["repeat_calls"] += 1
        stats.counters["repeat_s"] += elapsed
    else:
        tracer.solved.add(rho)


def _count_rotations(tracer, stats, elapsed, args, kwargs):
    unitary = args[1] if len(args) > 1 else kwargs["unitary"]
    rotations = getattr(unitary, "rotations", None)
    if rotations is not None:
        stats.counters["rotations"] += len(rotations)


_HOOKS = {
    "core.DensityMatrix": _count_bytes,
    "core.state_eigenvalues": _count_repeat_solves,
    "core.apply_unitary": _count_rotations,
}


class Tracer:
    """Collects calls, self time and counters per function."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        # (parent span, child span) -> number of direct child calls
        self.child_calls: dict[tuple[str, str], int] = defaultdict(int)
        # states already passed to state_eigenvalues, for repeat_calls
        self.solved = weakref.WeakSet()
        self.top_level_s = 0.0
        self._stack: list[list] = []
        self._recording = False

    @contextmanager
    def recording(self):
        self._recording = True
        try:
            yield self
        finally:
            self._recording = False

    @contextmanager
    def installed(self, package):
        """Wrap the layer functions of `package` for the duration of the block."""
        prefix = package.__name__ + "."
        modules = [importlib.import_module(prefix + m) for m in LAYER_MODULES]
        wrappers = {}
        undo = []
        for module in modules + [package]:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                origin = getattr(obj, "__module__", None) or ""
                if not origin.startswith(prefix):
                    continue
                if obj not in wrappers:
                    name = f"{origin[len(prefix):]}.{obj.__qualname__}"
                    wrappers[obj] = self._wrap(obj, name)
                undo.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        density = package.core.DensityMatrix
        undo.append((density, "__init__", density.__init__))
        density.__init__ = self._wrap(density.__init__, "core.DensityMatrix")
        try:
            yield self
        finally:
            for target, attr, obj in reversed(undo):
                setattr(target, attr, obj)

    def _wrap(self, fn, name):
        stats = self.stats[name]
        hook = _HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if parent is None:
                    self.top_level_s += elapsed
                else:
                    parent[1] += elapsed
                    self.child_calls[(parent[0], name)] += 1
            if hook is not None:
                hook(self, stats, elapsed, args, kwargs)
            return result

        return span
