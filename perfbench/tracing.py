"""Layer spans for the traced run, recorded from the benchmark's side only.

Each planeparts module is one layer.  install() replaces every public
function of every module, in every planeparts namespace that binds it
(the package, the defining module and the modules that import it), by a
wrapper that records a span: layer, start, end and the index of the span
that was open when it started.  The program's source is never touched.
Spans stay in memory; summary() turns them into per-layer self time and
call counts when the batch ends.
"""

import importlib
import pkgutil
import time
import types

LAYERS = ("series", "asymptotics", "profiles", "partitions", "counting", "schur", "cli")
ROOT = "bench"


class Tracer:
    def __init__(self):
        self.spans = []  # (layer, start, end, parent index or -1)
        self._stack = []
        self.caches = {layer: [] for layer in LAYERS}

    def _wrap(self, layer, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (layer, start, clock(), parent)
                stack.pop()

        return traced

    def span(self, fn):
        """Run fn() as a root span of the benchmark; returns its result."""
        return self._wrap(ROOT, fn)()

    def install(self, package):
        modules = {package.__name__: package}
        for info in pkgutil.iter_modules(package.__path__):
            name = package.__name__ + "." + info.name
            modules[name] = importlib.import_module(name)
        wrappers = {}
        for name, module in modules.items():
            layer = name.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, value in vars(module).items():
                if getattr(value, "__module__", None) != name or isinstance(value, type):
                    continue
                if hasattr(value, "cache_info"):
                    self.caches[layer].append(value)
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) or hasattr(value, "cache_info"):
                    wrappers[id(value)] = (value, self._wrap(layer, value))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def summary(self):
        """Per-layer self time and calls, and per-layer lru_cache totals."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS + (ROOT,), 0.0)
        calls = dict.fromkeys(LAYERS + (ROOT,), 0)
        for idx, (layer, start, end, _) in enumerate(self.spans):
            self_s[layer] += end - start - child[idx]
            calls[layer] += 1
        caches = {}
        for layer, fns in self.caches.items():
            infos = [fn.cache_info() for fn in fns]
            looked_up = sum(i.hits + i.misses for i in infos)
            caches[layer] = {
                "entries": sum(i.currsize for i in infos),
                "hit_ratio": sum(i.hits for i in infos) / looked_up if looked_up else 0.0,
            }
        return {"self_s": self_s, "calls": calls, "caches": caches}
