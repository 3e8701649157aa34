"""Spans around the calls the CLI layer makes into each library module.

The tracer wraps, from outside the program, every function of a library
module that a CLI-layer module of the package (``torgrad.pipeline`` and any
other module that is not a library layer) imported, plus three inner
boundaries: the dense rank that ``torgrad.lognorm`` calls,
``MarkedMorphism.apply`` and ``FiniteQuotient.from_json``.  Each call
records a span (name, start, end, parent, run id) in memory; self time, busy
time and counts are derived from the spans after the pass, and the spans are
written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

from workloads import LIBRARY

# (module, class or None, attribute): inner boundaries wrapped on top of
# the CLI layer's imports.
EXTRA_TARGETS = (("torgrad.lognorm", None, "matrix_rank"),
                 ("torgrad.crossring", "MarkedMorphism", "apply"),
                 ("torgrad.groups", "FiniteQuotient", "from_json"))


def layer_of(fn) -> str:
    return getattr(fn, "__module__", "").rpartition(".")[2]


def _cli_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name.startswith("torgrad.")
            and name.rpartition(".")[2] not in LIBRARY]


class Tracer:
    """Installs the wrappers for one pass at a time and keeps every span."""

    def __init__(self):
        self.spans = []     # (name, start, end, parent index, run id)
        self.results = []   # (name, result) of observed calls, this pass
        self.run_id = 0
        self._stack = []
        self._saved = []    # (owner, attribute, original raw value)
        self.names = {self._span_name(fn) for _, _, fn in self._targets()}

    # -- installation -----------------------------------------------------

    @staticmethod
    def _span_name(fn) -> str:
        return f"{layer_of(fn)}.{fn.__name__}"

    @staticmethod
    def _targets():
        """(owner, attribute, function) for every binding to wrap."""
        for mod in _cli_modules():
            for attr, value in sorted(vars(mod).items()):
                if inspect.isfunction(value) and layer_of(value) in LIBRARY:
                    yield mod, attr, value
        for modname, clsname, attr in EXTRA_TARGETS:
            owner = sys.modules.get(modname)
            if clsname is not None:
                owner = getattr(owner, clsname, None)
            raw = vars(owner).get(attr) if owner is not None else None
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if inspect.isfunction(fn):
                yield owner, attr, fn

    def install(self, run_id: int) -> None:
        self.run_id = run_id
        self.results = []
        for owner, attr, fn in list(self._targets()):
            raw = vars(owner)[attr]
            wrapped = self._wrap(self._span_name(fn), fn)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter
        run_id = self.run_id
        observed = name in ("discretize.coinvariants_complex",
                            "groups.from_json")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id)
            if observed:
                results.append((name, result))
            return result

        return traced

    # -- analysis ---------------------------------------------------------

    def summarize(self, first: int, wall: float) -> dict:
        """Metrics of the spans from index ``first`` on, one pass of
        ``wall`` seconds."""
        spans = self.spans
        busy = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        top = 0.0
        for idx in range(first, len(spans)):
            name, start, end, parent, _ = spans[idx]
            dur = end - start
            calls[name] += 1
            if parent < 0:
                top += dur
            else:
                child[parent] += dur
            # busy time counts a name once where calls to it nest
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                busy[name] += dur
        for idx in range(first, len(spans)):
            name, start, end, _, _ = spans[idx]
            self_s[name] += (end - start) - child[idx]

        out = {"trace.wall_s": wall, "trace.spans": len(spans) - first,
               "pipeline.self_s": wall - top,
               "pipeline.share": (wall - top) / wall}
        for name in self.names:
            out[f"{name}.s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        layers = defaultdict(float)
        for name, value in self_s.items():
            layers[name.partition(".")[0]] += value
        for layer in LIBRARY:
            out[f"layer.{layer}.self_s"] = layers[layer]
            out[f"layer.{layer}.share"] = layers[layer] / wall
        out["layers_reached"] = sorted(k for k, v in layers.items() if v > 0)
        out.update(self._counters())
        return out

    def _counters(self) -> dict:
        """Exact counts from the observed results of this pass."""
        per_level = []
        order_max = 0
        for name, result in self.results:
            if name == "groups.from_json":
                order_max = max(order_max, result.order)
                continue
            _, mats = result
            cells = sum(len(m) * len(m[0]) for m in mats if m)
            nnz = sum(1 for m in mats for row in m for v in row if v)
            bits = max((abs(v).bit_length() for m in mats for row in m
                        for v in row), default=0)
            per_level.append((cells, nnz, bits))
        cells = sum(c for c, _, _ in per_level)
        nnz = sum(n for _, n, _ in per_level)
        return {"groups.order_max": order_max,
                "discretize.boundary_cells": cells,
                "discretize.boundary_nnz": nnz,
                "discretize.nnz_ratio": nnz / cells if cells else 0.0,
                "discretize.max_coeff_bits": max(
                    (b for _, _, b in per_level), default=0),
                "discretize.per_level": per_level}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
