"""Per-layer spans recorded from outside the program.

``install`` wraps every public function of every ``coarsepd`` module (the
modules are the layers) and rebinds each module attribute that holds one of
them, so calls through ``from .metrics import bottleneck`` are seen too.
Spans (name, start, end, parent, operation id) stay in memory until
``write`` puts them in a file.  A direct recursive call merges into its
caller's span.  The point helpers of ``diagram`` run once per cost-matrix
entry and cost less than a span, so they are left unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import types
from collections import defaultdict
from time import perf_counter

LEAF_HELPERS = {"diagram.is_delta", "diagram.delta", "diagram.persistence",
                "diagram.as_plane_point"}
# Library functions the program calls by a module-level name.
EXTERNAL = ("linear_sum_assignment",)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Work counted per call: layer -> (counter, function of (args, kwargs)).
WORK = {
    "metrics.cost_matrix": ("bytes", lambda a, kw: 8 * len(_arg(a, kw, 0, "left"))
                            * len(_arg(a, kw, 1, "right"))),
    "embeddings.validate_metric": ("triangle_checks",
                                   lambda a, kw: len(_arg(a, kw, 0, "matrix")) ** 3),
    "io.load_metric": ("bytes", lambda a, kw: os.path.getsize(_arg(a, kw, 0, "path"))),
    "io.load_diagram": ("bytes", lambda a, kw: os.path.getsize(_arg(a, kw, 0, "path"))),
    "io.save_metric": ("bytes", lambda a, kw: os.path.getsize(_arg(a, kw, 1, "path"))),
    "io.save_diagram": ("bytes", lambda a, kw: os.path.getsize(_arg(a, kw, 1, "path"))),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.work: dict[str, int] = defaultdict(int)
        self.op = -1

    def wrap(self, name: str, fn):
        spans, stack, work = self.spans, self.stack, self.work
        counter = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if counter is not None:
                    try:
                        work[f"{name}.{counter[0]}"] += counter[1](args, kwargs)
                    except (IndexError, KeyError, TypeError, OSError):
                        pass

        return traced

    def install(self) -> list[str]:
        """Wrap and rebind; returns the layer names wrapped."""
        import coarsepd

        modules = [importlib.import_module(f"coarsepd.{info.name}")
                   for info in pkgutil.iter_modules(coarsepd.__path__)]
        wrappers: dict[int, object] = {}
        names: list[str] = []
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                own = (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                       and not attr.startswith("_") and name not in LEAF_HELPERS)
                if (own or attr in EXTERNAL) and id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(name, obj)
                    names.append(name)
        for mod in modules + [coarsepd]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
        return sorted(names)

    def summary(self) -> dict:
        """Calls, self time and work per layer, and calls per (layer, caller) pair."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        by_caller: dict[str, int] = defaultdict(int)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
            caller = self.spans[parent][0] if parent >= 0 else "-"
            by_caller[f"{name}<{caller}"] += 1
        return {"calls": dict(calls), "self_s": dict(self_s), "work": dict(self.work),
                "by_caller": dict(by_caller), "spans": len(self.spans)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
