"""Spans and counts around the library's layers, installed from outside.

``Tracer.install`` replaces each traced public function by a wrapper at every
module attribute the library or the benchmark looks it up through (a name
bound by ``from .x import f`` is a separate lookup site from ``x.f``).  No
file of the library changes.  Spans are kept in memory as
``[name, start, end, parent, task, info]`` and written out when the run ends.
``info`` stays None when the wrapped call raised; the counts skip such spans.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

# layer name -> (module, attribute) lookup sites of one public function
LAYERS: dict[str, list[tuple[str, str]]] = {
    "poly.parse": [("poly", "parse"), ("classify", "parse"), ("cli", "parse")],
    "classify.classify": [("classify", "classify"), ("cli", "classify")],
    "classify.replay": [("classify", "replay_certificate")],
    "witness.lift": [("witness", "build_witness"), ("cli", "build_witness")],
    "witness.brute": [("witness", "brute_force_solutions"), ("search", "brute_force_solutions")],
    "search.enumerate": [("search", "enumerate_constraints")],
    "search.scan": [("search", "rado_number"), ("cli", "rado_number")],
    "search.kernel": [("search", "find_bad_coloring"), ("cli", "find_bad_coloring")],
    "search.verify": [("search", "monochromatic_solution")],
    "cli.main": [("cli", "main")],
}


def _info(layer: str, result: Any) -> Any:
    """The count a layer's result carries, kept with its span."""
    if layer in ("witness.brute", "search.enumerate"):
        return len(result)
    if layer == "search.kernel":
        return [result.kind, result.stats.nodes, result.stats.constraints]
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.labels: list[str] = []  # task id -> instance label
        self.task = -1
        self._open: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, self.task, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = _info(layer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_task(self, label: str) -> None:
        self.labels.append(label)
        self.task = len(self.labels) - 1

    def install(self, lib) -> None:
        for layer, sites in LAYERS.items():
            module, attr = sites[0]
            wrapper = self._wrap(layer, getattr(getattr(lib, module), attr))
            for module, attr in sites:
                target = getattr(lib, module)
                if getattr(target, attr).__name__ != wrapper.__wrapped__.__name__:
                    raise RuntimeError(f"{module}.{attr} is not the traced function")
                self._restore.append((target, attr, getattr(target, attr)))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_layer(self, passes: int, speed: float) -> dict[str, float]:
        """Per-layer metrics, per pass over the workload's task set; times
        are divided by the run's speed factor."""
        own = self.self_times()
        out: dict[str, float] = {}
        for layer in LAYERS:
            mine = [i for i, s in enumerate(self.spans) if s[0] == layer]
            out[f"{layer}.calls"] = len(mine) / passes
            out[f"{layer}.self_ms"] = sum(own[i] for i in mine) * 1000 / passes / speed
        replays = [s[2] - s[1] for s in self.spans if s[0] == "classify.replay"]
        out["classify.replay.max_ms"] = max(replays, default=0.0) * 1000 / speed
        for layer, key in (("witness.brute", "solutions"), ("search.enumerate", "constraints")):
            out[f"{layer}.{key}"] = sum(
                s[5] for s in self.spans if s[0] == layer and s[5] is not None
            ) / passes

        kernels = [s for s in self.spans if s[0] == "search.kernel" and s[5] is not None]
        nodes = sum(s[5][1] for s in kernels)
        out["search.kernel.nodes"] = nodes / passes
        kernel_s = out["search.kernel.self_ms"] * passes / 1000
        out["search.kernel.nodes_per_s"] = nodes / kernel_s if kernel_s else 0.0
        for kind in ("forced", "bad_coloring", "inconclusive"):
            out[f"search.kernel.{kind}"] = sum(s[5][0] == kind for s in kernels) / passes

        scans = {i for i, s in enumerate(self.spans) if s[0] == "search.scan"}
        steps = [s for s in kernels if s[3] in scans]
        out["search.scan.steps"] = len(steps) / passes
        kept = {s[3]: s[5][2] for s in steps}  # the last step of each scan wins
        enumerated = sum(
            s[5] for s in self.spans
            if s[0] == "search.enumerate" and s[3] in scans and s[5] is not None
        )
        out["search.scan.useful_ratio"] = sum(kept.values()) / enumerated if enumerated else 0.0
        return out

    def task_layers(self, passes: int, speed: float) -> dict[str, dict[str, float]]:
        """Self milliseconds per pass of each layer, by task instance."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            layers = out.setdefault(self.labels[span[4]], {})
            layers[span[0]] = layers.get(span[0], 0.0) + own * 1000 / passes / speed
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, task, info in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "task": task, "info": info}) + "\n")
