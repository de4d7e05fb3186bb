"""Spans and counters recorded around calls into crosswatch, from outside the package.

``Tracer.install`` wraps every function a layer exports in ``__all__``
(plus the divided differences the transforms layer keeps out of it) at
every place a crosswatch module binds it, so a call made through
``from .model import mark_pgf`` is caught as well as ``model.mark_pgf``.
Leaf functions called tens of thousands of times per job only bump a
counter; everything else records a span (name, start, end, parent, job).
Spans stay in memory; ``dump`` writes them out, gzipped, when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("model", "transforms", "series", "fluctuation", "closedform", "laplace", "montecarlo", "validation")

EXTRA = {"transforms": ("lst_divided_diff", "resolvent_divided_diff")}

# Called about 1e4 times or more in one job: a span each would cost more than the call.
LEAVES = {
    "model.mark_pgf", "model.delay_lst", "model.obs_lst", "model.mark_sample", "model.delay_sample",
    "transforms.phi", "transforms.gamma", "transforms.gamma_is_contractive",
    "transforms.lst_divided_diff", "transforms.resolvent_divided_diff",
    "closedform.r_coeff", "closedform.f_of", "closedform.reg_gamma_p",
}

# What a span keeps of its call's arguments or result, for rates per path or per check.
FROM_ARGUMENTS = {
    "montecarlo.estimate_functional": lambda a: {"n_paths": a["n_paths"], "y": complex(a["args"].y).real},
    "montecarlo.estimate_f1_star": lambda a: {"n_samples": a["n_samples"]},
    "montecarlo.estimate_f2_star": lambda a: {"n_samples": a["n_samples"]},
}
FROM_RESULT = {
    "validation.run_battery": lambda r: {"checks": len(r["checks"]), "failed": len(r["failed_checks"])},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "info")

    def __init__(self, name, start, parent, job):
        self.name, self.start, self.end, self.parent, self.job = name, start, None, parent, job
        self.info = None

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "info": self.info}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        from_arguments, from_result = FROM_ARGUMENTS.get(name), FROM_RESULT.get(name)
        signature = inspect.signature(fn) if from_arguments else None

        def wrapper(*args, **kwargs):
            index = self.open(name)
            if from_arguments:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index].info = from_arguments(bound.arguments)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if from_result:
                self.spans[index].info = from_result(result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[(self.job, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every exported layer function to its wrapper, everywhere in crosswatch."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"crosswatch.{layer}")
            for attr in tuple(module.__all__) + EXTRA.get(layer, ()):
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{attr}"
                make = self._count_wrapper if name in LEAVES else self._span_wrapper
                wrappers[id(fn)] = (fn, make(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "crosswatch" and not mod_name.startswith("crosswatch."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [span.as_dict() for span in self.spans],
            "counters": [{"job": job, "name": name, "count": n} for (job, name), n in self.counters.items()],
        }
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle)
