"""In-process span tracing of the multisource layers.

`Tracer.install` wraps every function named in a layer module's `__all__`
at each place another `multisource` module holds a reference to it (calls
inside the defining module stay unwrapped), plus `multisource.cli.main` as
the root span. Only calls made inside `cli.main` are recorded, so the
benchmark's own calls into the program (its output checks) leave no spans.
Each span records name, start, end, parent and run id; spans stay in memory
until the caller writes them out. The wrappers follow
`__all__`, so a public function added or renamed later is traced without
editing this file.

The aggregation helpers below are pure functions of the span list.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

LAYERS = ("cli", "harness", "discrepancy", "weights", "models", "baselines", "data",
          "corruption", "federated")


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int | None
    name: str  # "<layer>.<function>"
    start: float
    end: float
    run: int
    payload: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls while installed.

    `captures` maps a span name to a function of (args, kwargs, result)
    whose return value is stored as that span's payload; it lets the
    benchmark count rows or keep inputs for an oracle without a second
    call into the program.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.captures: dict[str, Callable] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, root: bool = False) -> Callable:
        capture = self.captures.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not (stack or root):  # not called from the CLI
                return fn(*args, **kwargs)
            span = Span(len(spans), stack[-1] if stack else None, name, 0.0, 0.0, self.run)
            spans.append(span)
            stack.append(span.span_id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if capture is not None:
                span.payload = capture(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and name.split(".")[0] == "multisource"}
        for layer in LAYERS:
            owner = modules.get(f"multisource.{layer}")
            if owner is None:
                continue
            public = getattr(owner, "__all__", ())
            for fname in public:
                fn = getattr(owner, fname, None)
                if not inspect.isfunction(fn) or fn.__module__ != owner.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod_name, mod in modules.items():
                    if mod is owner:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        cli = modules.get("multisource.cli")
        if cli is not None:
            self._patches.append((cli, "main", cli.main))
            cli.main = self._wrap("cli.main", cli.main, root=True)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def export_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.span_id, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end, "run": s.run}) + "\n")


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span duration minus the durations of its child spans. The program is
    single-threaded, so children run one after another inside their parent."""
    spans = list(spans)
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.duration
    return {s.span_id: s.duration - child_s[s.span_id] for s in spans}


def layer_totals(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per layer: `calls` and `busy_s` over entries into the layer (spans
    with no ancestor in the same layer), and `self_s` summed over all spans."""
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    selfs = self_times(spans)
    out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for s in spans:
        entry = out.setdefault(s.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["self_s"] += selfs[s.span_id]
        parent = by_id.get(s.parent)
        while parent is not None and parent.layer != s.layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            entry["calls"] += 1
            entry["busy_s"] += s.duration
    return out
