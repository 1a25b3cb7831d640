"""In-memory span tracer that wraps the package's public functions from outside.

The package binds names with ``from .x import y``, so a function has to be
replaced in every module namespace that holds it (``fracpop.solver.rhs_eval``,
``fracpop.cli.solve``, ...), not only where it is defined.  ``install`` does
that for every public function of the layer modules and ``uninstall`` puts the
originals back.  Nothing under ``src/`` is changed.

A span is ``[id, name, start, end, parent_id, pass_id, child_s, leaves, info,
kids]``.  A call with no traced children and no annotator is folded into its
parent as a ``leaves[name] = [count, total_s]`` entry: the right-hand side
runs twice per grid step, and one record per call would hold millions of
spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

# Span record fields.
ID, NAME, START, END, PARENT, PASS, CHILD_S, LEAVES, INFO, KIDS = range(10)
FIELDS = ["id", "name", "start", "end", "parent", "pass", "child_s", "leaves", "info", "kids"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.active = False
        self.pass_id = 0
        self._stack: list[list[Any]] = []
        self._annotators: dict[str, Callable[..., dict]] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._next_id = 0

    # -- installation -------------------------------------------------------

    def install(self, package: str, layers: tuple[str, ...]) -> None:
        """Wrap every public function of ``package.<layer>`` wherever it is bound."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for layer in layers:
            module = sys.modules[f"{package}.{layer}"]
            for fname in module.__all__:
                fn = getattr(module, fname)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    def annotate(self, name: str, annotator: Callable[..., dict]) -> None:
        """Attach ``annotator(args, kwargs, exc) -> dict`` to every ``name`` span."""
        self._annotators[name] = annotator

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, args, kwargs, exc)
                raise
            tracer._close(frame, args, kwargs, None)
            return result

        return traced

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> list[Any]:
        parent = self._stack[-1][ID] if self._stack else None
        self._next_id += 1
        frame = [self._next_id, name, 0.0, 0.0, parent, self.pass_id, 0.0, None, None, 0]
        self._stack.append(frame)
        frame[START] = time.perf_counter()
        return frame

    def _close(self, frame: list[Any], args, kwargs, exc) -> None:
        end = time.perf_counter()
        frame[END] = end
        self._stack.pop()
        name = frame[NAME]
        duration = end - frame[START]
        annotator = self._annotators.get(name)
        if annotator is not None:
            frame[INFO] = annotator(args, kwargs, exc)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[CHILD_S] += duration
            parent[KIDS] += 1
            if frame[KIDS] == 0 and annotator is None:
                leaves = parent[LEAVES]
                if leaves is None:
                    leaves = parent[LEAVES] = {}
                entry = leaves.get(name)
                if entry is None:
                    leaves[name] = [1, duration]
                else:
                    entry[0] += 1
                    entry[1] += duration
                return
        self.spans.append(frame)

    # -- results ------------------------------------------------------------

    def pass_spans(self, pass_id: int) -> list[list[Any]]:
        return [s for s in self.spans if s[PASS] == pass_id]

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta, "fields": FIELDS}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list[Any]]) -> dict[str, Any]:
    """Per-name call counts and totals, and per-layer self time, of one pass.

    A span's self time is its duration minus the time its traced children
    cover; folded leaves are children without children of their own, so their
    whole time is self time.  ``root_s`` is the time covered by spans the
    harness opened itself, so ``wall - root_s`` is the harness's own time.
    """
    calls: dict[str, int] = {}
    total_s: dict[str, float] = {}
    self_s: dict[str, float] = {}
    leaf_calls_under: dict[tuple[str, str], int] = {}
    root_s = 0.0
    for s in spans:
        duration = s[END] - s[START]
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        total_s[name] = total_s.get(name, 0.0) + duration
        layer = layer_of(name)
        self_s[layer] = self_s.get(layer, 0.0) + duration - s[CHILD_S]
        if s[PARENT] is None:
            root_s += duration
        for leaf, (count, leaf_total) in (s[LEAVES] or {}).items():
            calls[leaf] = calls.get(leaf, 0) + count
            total_s[leaf] = total_s.get(leaf, 0.0) + leaf_total
            leaf_layer = layer_of(leaf)
            self_s[leaf_layer] = self_s.get(leaf_layer, 0.0) + leaf_total
            key = (leaf, layer)
            leaf_calls_under[key] = leaf_calls_under.get(key, 0) + count
    return {
        "calls": calls,
        "total_s": total_s,
        "self_s": self_s,
        "root_s": root_s,
        "leaf_calls_under": leaf_calls_under,
    }
