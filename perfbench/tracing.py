"""Span recording around the program's public functions, from outside.

The benchmark does not instrument the program: :class:`Tracer` replaces
each listed public function by a wrapper in every loaded ``repro`` module
that holds a reference to it (and on the class, for methods), records one
span per call — name, start, end, parent span, op id — in memory, and
restores the originals on :meth:`Tracer.uninstall`.  Self time is a
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: metric prefix -> (module, attribute path) of each wrapped public function
TARGETS: dict[str, tuple[str, str]] = {
    "dataflow.execute": ("repro.dataflow.simulation", "execute"),
    "dataflow.steady_state_throughput":
        ("repro.dataflow.statespace", "steady_state_throughput"),
    "core.verify_system": ("repro.core.verification", "verify_system"),
    "core.stream_buffer_cost": ("repro.core.blocksize_bnb", "stream_buffer_cost"),
    "core.compute_block_sizes":
        ("repro.core.blocksize_ilp", "compute_block_sizes"),
    "core.resolve_block_sizes":
        ("repro.core.blocksize_ilp", "resolve_block_sizes"),
    "core.attributed_conformance":
        ("repro.api", "RunResult.attributed_conformance"),
    "ilp.solve": ("repro.ilp", "solve"),
    "arch.simulate_system": ("repro.arch.harness", "simulate_system"),
    "app.build_scenario": ("repro.app.scenarios", "build_scenario"),
    "exp.run_sweep": ("repro.exp.engine", "run_sweep"),
}


class Tracer:
    """In-memory span recorder; spans are ``[id, name, start_ns, end_ns,
    parent_id, op_id]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.op_id: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []
        #: observers called with (name, result) after a wrapped call returns
        self.observers: dict[str, Callable[[Any], None]] = {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = [next(tracer._ids), name, time.perf_counter_ns(), 0,
                    stack[-1] if stack else None, tracer.op_id]
            tracer.spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(result)
            return result

        return wrapper

    def install(self) -> None:
        for name, (module_name, attr) in TARGETS.items():
            owner: Any = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner: Any, key: str, wrapper: Callable) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per wrapped name: calls, total ms and self ms.

        A call nested inside a call of the same name counts once, so
        recursion does not double the total.
        """
        by_id = {s[0]: s for s in self.spans}
        child_ns: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s[4] is not None:
                child_ns[s[4]] += s[3] - s[2]
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for s in self.spans:
            entry = totals[s[1]]
            entry["calls"] += 1
            entry["self_ms"] += (s[3] - s[2] - child_ns[s[0]]) / 1e6
            parent = by_id.get(s[4])
            while parent is not None and parent[1] != s[1]:
                parent = by_id.get(parent[4])
            if parent is None:
                entry["ms"] += (s[3] - s[2]) / 1e6
        return dict(totals)

    def dump(self, path: Path, env: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "env": env,
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
        }))
