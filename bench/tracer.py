"""Layer-boundary tracer, installed from the benchmark's own files.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` walks the
``repro`` package (so a module renamed or added inside a layer cannot
silently drop out), wraps every sync public callable — module functions
and methods of public classes; no leading underscore, no properties, no
dunders, no coroutine functions — and rebinds ``from x import f`` aliases
in the other ``repro`` modules to the wrapper.

A wrapper counts the call and, when the call crosses in from a
*different* layer, records a span: function, start, end, parent span.  A
layer's self time is its spans' duration minus the part its child spans
cover.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from types import FunctionType, ModuleType
from typing import Dict, List, Optional, Tuple

#: Layers are this repo's module paths.  A module belongs to the layer
#: with the longest matching dotted prefix; a ``repro`` module matching
#: none is reported in ``trace.unresolved``.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("facility", ("repro.facility", "repro.core.allocation", "repro.core.recent_blocks")),
    ("crypto", ("repro.crypto", "repro.core.account")),
    (
        "core.blockchain",
        ("repro.core.blockchain", "repro.core.block", "repro.core.validation", "repro.core.sync"),
    ),
    # The rest of repro.core (admission, messages, metadata, storage,
    # migration, config, errors, adversary, audit) rides with the node.
    ("core.node", ("repro.core",)),
    ("core.pos", ("repro.core.pos", "repro.core.pow")),
    ("core.serialization", ("repro.core.serialization",)),
    ("simnet.engine", ("repro.simnet.engine",)),
    ("simnet.topology", ("repro.simnet.topology", "repro.simnet.mobility")),
    # transport, gossip, channel, trace, faults
    ("simnet.transport", ("repro.simnet",)),
    ("persist", ("repro.persist",)),
    ("lifecycle", ("repro.lifecycle",)),
    ("net", ("repro.net",)),
    ("sim", ("repro.sim", "repro.workloads")),
    ("obs", ("repro.obs", "repro.metrics")),
    (
        "other",
        (
            "repro.raft",
            "repro.membership",
            "repro.federation",
            "repro.chaos",
            "repro.energy",
            "repro.cli",
            "repro.version",
        ),
    ),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)

#: Compaction is the lifecycle subsystem's operation although it lives on
#: the chain store; counting it under ``persist`` would hide the layer
#: that does most of the storage plane's write work.
FUNCTION_LAYER = {"repro.persist.chainstore.ChainStore.compact": "lifecycle"}

#: The benchmark's own code: the root of every trace.
ROOT = -1

PHASES = ("setup", "timed")


def layer_of(module_name: str) -> Optional[str]:
    """The layer owning ``module_name`` (longest dotted-prefix match)."""
    best: Optional[str] = None
    best_length = -1
    for layer, prefixes in LAYERS:
        for prefix in prefixes:
            if module_name == prefix or module_name.startswith(prefix + "."):
                if len(prefix) > best_length:
                    best, best_length = layer, len(prefix)
    if best is None and module_name == "repro":
        return "other"
    return best


def _is_sync_function(obj: object) -> bool:
    return (
        isinstance(obj, FunctionType)
        and not inspect.iscoroutinefunction(obj)
        and not inspect.isasyncgenfunction(obj)
    )


class Tracer:
    """Span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        #: Current-layer stack; a wrapper opens a span only when the top
        #: differs from its own layer.
        self._stack: List[int] = [ROOT]
        #: Per open span: time covered by its children so far.
        self._child: List[float] = [0.0]
        #: Per open span: its id (the parent of spans opened below it).
        self._open: List[int] = [-1]
        self._next_id = 0
        #: Finished spans: (id, function id, parent id, start, end).
        self.spans: List[Tuple[int, int, int, float, float]] = []
        self.names: List[str] = []
        self.layer_of_function: List[int] = []
        self._calls: Dict[str, List[int]] = {phase: [] for phase in PHASES}
        self._inclusive: Dict[str, List[float]] = {phase: [] for phase in PHASES}
        self._self: Dict[str, List[float]] = {
            phase: [0.0] * len(LAYER_NAMES) for phase in PHASES
        }
        self._crossings: Dict[str, List[int]] = {
            phase: [0] * len(LAYER_NAMES) for phase in PHASES
        }
        #: Per phase: the root spans' self time (the benchmark's own code).
        self._root_self: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self._phase_start = 0.0
        self.unresolved: List[str] = []
        self._wrapped: Dict[int, FunctionType] = {}
        # Bound per phase so the wrappers' hot path indexes plain lists.
        self._cur_calls: List[int] = []
        self._cur_inclusive: List[float] = []
        self._cur_self: List[float] = []
        self._cur_crossings: List[int] = []

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        """Import every ``repro`` module and wrap its public callables."""
        import repro

        modules: List[ModuleType] = [repro]
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.rsplit(".", 1)[-1] == "__main__":
                continue  # importing it would run the CLI
            try:
                modules.append(importlib.import_module(info.name))
            except Exception as error:  # noqa: BLE001 — report, keep tracing the rest
                self.unresolved.append(f"{info.name}: import failed: {error!r}")
        for module in modules:
            layer = layer_of(module.__name__)
            if layer is None:
                self.unresolved.append(f"{module.__name__}: no layer")
                continue
            self._wrap_module(module, layer)
        # ``from x import f`` bound the original function in the importing
        # module's globals before it was wrapped: rebind those names.
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = self._wrapped.get(id(obj))
                if wrapper is not None and isinstance(obj, FunctionType):
                    setattr(module, name, wrapper)

    def _wrap_module(self, module: ModuleType, layer: str) -> None:
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if _is_sync_function(obj):
                setattr(module, name, self._wrap(obj, f"{module.__name__}.{name}", layer))
            elif isinstance(obj, type) and not issubclass(obj, enum.Enum):
                self._wrap_class(obj, f"{module.__name__}.{obj.__qualname__}", layer)

    def _wrap_class(self, cls: type, qualified: str, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{qualified}.{name}"
            if _is_sync_function(attr):
                setattr(cls, name, self._wrap(attr, label, layer))
            elif isinstance(attr, (staticmethod, classmethod)) and _is_sync_function(
                attr.__func__
            ):
                setattr(cls, name, type(attr)(self._wrap(attr.__func__, label, layer)))

    def _wrap(self, func: FunctionType, label: str, layer: str) -> FunctionType:
        layer_id = LAYER_NAMES.index(FUNCTION_LAYER.get(label, layer))
        function_id = len(self.names)
        self.names.append(label)
        self.layer_of_function.append(layer_id)
        for phase in PHASES:
            self._calls[phase].append(0)
            self._inclusive[phase].append(0.0)
        tracer = self
        stack = self._stack

        if inspect.isgeneratorfunction(func):
            # The body of a generator runs while its *consumer* iterates:
            # each resumption is a span of the generator's own layer.
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if tracer.phase is None:
                    return func(*args, **kwargs)
                tracer._cur_calls[function_id] += 1
                return tracer._drive(func(*args, **kwargs), function_id, layer_id)

        else:

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if tracer.phase is None:
                    return func(*args, **kwargs)
                tracer._cur_calls[function_id] += 1
                if stack[-1] == layer_id:
                    return func(*args, **kwargs)
                return tracer._span(func, function_id, layer_id, args, kwargs)

        self._wrapped[id(func)] = wrapper
        return wrapper

    # -- recording ------------------------------------------------------------------

    def _span(self, func, function_id: int, layer_id: int, args, kwargs):
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = self._open[-1]
        self._stack.append(layer_id)
        self._open.append(span_id)
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            duration = end - start
            self._stack.pop()
            self._open.pop()
            covered = self._child.pop()
            self._child[-1] += duration
            self._cur_self[layer_id] += duration - covered
            self._cur_crossings[layer_id] += 1
            self._cur_inclusive[function_id] += duration
            self.spans.append((span_id, function_id, parent, start, end))

    def _drive(self, generator, function_id: int, layer_id: int):
        while True:
            try:
                if self.phase is None or self._stack[-1] == layer_id:
                    value = next(generator)
                else:
                    value = self._span(next, function_id, layer_id, (generator,), {})
            except StopIteration:
                return
            yield value

    def begin(self, phase: str) -> None:
        """Open a root span of ``phase`` ("setup" or "timed"); phases may repeat."""
        if self.phase is not None:
            raise RuntimeError("a trace phase is already open")
        self._cur_calls = self._calls[phase]
        self._cur_inclusive = self._inclusive[phase]
        self._cur_self = self._self[phase]
        self._cur_crossings = self._crossings[phase]
        self._child[0] = 0.0
        self._open[0] = self._next_id
        self._next_id += 1
        self.phase = phase
        self._phase_start = time.perf_counter()

    def end(self) -> float:
        """Close the root span; returns the phase's wall seconds."""
        end = time.perf_counter()
        phase, self.phase = self.phase, None
        if phase is None:
            raise RuntimeError("no trace phase is open")
        duration = end - self._phase_start
        self._root_self[phase] += duration - self._child[0]
        self.spans.append((self._open[0], ROOT, -1, self._phase_start, end))
        self._open[0] = -1
        return duration

    # -- results --------------------------------------------------------------------

    def calls(self, label: str, phase: str = "timed") -> Optional[int]:
        """Calls of one wrapped function in ``phase``; None if it is gone."""
        try:
            return self._calls[phase][self.names.index(label)]
        except ValueError:
            return None

    def inclusive_s(self, label: str, phase: str = "timed") -> float:
        """Seconds inside ``label`` when entered from another layer."""
        try:
            return self._inclusive[phase][self.names.index(label)]
        except ValueError:
            return 0.0

    def self_s(self, layer: str, phase: str = "timed") -> float:
        return self._self[phase][LAYER_NAMES.index(layer)]

    def crossings(self, layer: str, phase: str = "timed") -> int:
        return self._crossings[phase][LAYER_NAMES.index(layer)]

    def unattributed_s(self, phase: str = "timed") -> float:
        """The root span's self time: the benchmark's own code."""
        return self._root_self[phase]

    def write(self, path, workload: str, run_id: str) -> None:
        """Write every span (name, start, end, parent, run id) as JSON."""
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "schema": "repro.bench.trace/v1",
                    "workload": workload,
                    "run_id": run_id,
                    "layers": list(LAYER_NAMES),
                    "functions": names,
                    "function_layer": self.layer_of_function,
                    "span_fields": ["id", "function", "parent", "start", "end"],
                    # function -1 is the benchmark's root span of a phase
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


def install_tracer() -> Tracer:
    """Build and install the process's tracer (before any repro object exists)."""
    if any(name == "repro" or name.startswith("repro.") for name in sys.modules):
        raise RuntimeError("install the tracer before importing repro")
    tracer = Tracer()
    tracer.install()
    return tracer
