"""In-memory span tracer for the traced benchmark run.

Public functions of the package are wrapped from outside, from this file:
a wrapper records a span (name, start, end, parent) around each call. A
function is patched under every module name that refers to it, so a call
through an import (``golden_max`` in both ``spaces`` and ``operators``) is
traced too. A target that no longer exists is reported as absent.

Spans are kept in flat arrays and written out when the run ends. The self
time of a span is its duration minus the durations of its child spans;
the per-layer metrics are self times, call counts and counters kept at
the same boundaries.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter

#: (module, attribute or Class.method, span name); a span named None only
#: counts its calls
TARGETS = (
    ("series", "TruncatedSeries.__call__", "series.eval"),
    ("spaces", "grid_supremum", "spaces.supremum"),
    ("spaces", "golden_max", "spaces.refine"),
    ("operators", "symbol_from_config", "operators.symbol_build"),
    ("operators", "SelfMapSymbol.grid_values", "operators.grid_table"),
    ("operators", "SymbolWeight.on_grid", "operators.weight_table"),
    ("criteria", "check_boundedness", "criteria.check"),
    ("criteria", "sequence_quantity", "criteria.sequence_scan"),
    ("criteria", "pointwise_quantity", "criteria.pointwise"),
    ("essnorm", "essential_norm", "essnorm.essnorm"),
    ("essnorm", "boundary_limsup", "essnorm.boundary"),
    ("testfns", "verify_family_claims", "testfns.verify"),
    ("testfns", "family_zygmund_norm", "testfns.family_norm"),
    ("testfns", "TestFamily.eval", None),
    ("cli", "write_json", "cli.write"),
    ("cli", "write_csv", "cli.write"),
    ("cli", "main", "cli.main"),
)

#: table caches whose growth tells a build from a cache hit
_CACHES = {"operators.grid_table": "_grid_cache", "operators.weight_table": "_memo"}

#: per-layer metric -> (span name, "self" time or "calls")
SPAN_METRICS = {
    "series.eval_scalar_s": ("series.eval_scalar", "self"),
    "series.eval_scalar_calls": ("series.eval_scalar", "calls"),
    "series.eval_array_s": ("series.eval_array", "self"),
    "spaces.supremum_s": ("spaces.supremum", "self"),
    "spaces.supremum_calls": ("spaces.supremum", "calls"),
    "spaces.refine_s": ("spaces.refine", "self"),
    "spaces.golden_calls": ("spaces.refine", "calls"),
    "operators.symbol_build_s": ("operators.symbol_build", "self"),
    "operators.symbol_build_calls": ("operators.symbol_build", "calls"),
    "operators.grid_table_s": ("operators.grid_table", "self"),
    "operators.grid_table_builds": ("operators.grid_table", "calls"),
    "operators.weight_table_s": ("operators.weight_table", "self"),
    "criteria.check_s": ("criteria.check", "self"),
    "criteria.check_calls": ("criteria.check", "calls"),
    "criteria.sequence_scan_s": ("criteria.sequence_scan", "self"),
    "criteria.sequence_scan_calls": ("criteria.sequence_scan", "calls"),
    "criteria.pointwise_s": ("criteria.pointwise", "self"),
    "criteria.pointwise_calls": ("criteria.pointwise", "calls"),
    "essnorm.essnorm_s": ("essnorm.essnorm", "self"),
    "essnorm.essnorm_calls": ("essnorm.essnorm", "calls"),
    "essnorm.boundary_s": ("essnorm.boundary", "self"),
    "essnorm.boundary_calls": ("essnorm.boundary", "calls"),
    "testfns.verify_s": ("testfns.verify", "self"),
    "testfns.family_norm_s": ("testfns.family_norm", "self"),
    "testfns.family_norm_calls": ("testfns.family_norm", "calls"),
    "cli.write_s": ("cli.write", "self"),
    "cli.write_calls": ("cli.write", "calls"),
}
#: per-layer metric -> counter kept by the wrappers
COUNTER_METRICS = {
    "series.eval_array_points": "series.eval_array_points",
    "criteria.sequence_terms": "criteria.sequence_terms",
    "testfns.family_eval_calls": "TestFamily.eval",
    "cli.write_bytes": "cli.write_bytes",
}


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Tracer:
    """Spans and counters of one traced pass; ``install`` patches the package
    and ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack = [-1]
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span: str | None):
        """The traced form of ``fn``: a span plus the counters of that span."""
        counts = self.counts
        if span is None:
            key = fn.__qualname__

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        if span == "series.eval":
            scalar_id = self.name_id("series.eval_scalar")
            array_id = self.name_id("series.eval_array")

            def series_eval(series, z):
                scalar = isinstance(z, (int, float, complex))
                if not scalar:
                    counts["series.eval_array_points"] += getattr(z, "size", 1)
                idx = self._open(scalar_id if scalar else array_id)
                try:
                    return fn(series, z)
                finally:
                    self._close(idx)
            return series_eval

        nid = self.name_id(span)
        if span in _CACHES:
            hit_id = self.name_id(span + "_hit")
            cache_attr = _CACHES[span]

            def cached(obj, *args, **kwargs):
                cache = getattr(obj, cache_attr, None)
                size = len(cache) if cache is not None else -1
                idx = self._open(nid)
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    self._close(idx)
                    if cache is not None and len(cache) == size:
                        self.name[idx] = hit_id
            return cached

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            # results are read with getattr so that a changed result type
            # leaves a counter at 0 instead of failing the run
            if span == "spaces.supremum" and getattr(result, "refined", False):
                counts["spaces.refined"] += 1
                coarse = getattr(result, "shell_max", None)
                if coarse is not None and result.value > coarse.max():
                    counts["spaces.refine_useful"] += 1
            elif span == "criteria.sequence_scan":
                counts["criteria.sequence_terms"] += len(getattr(result, "raw", ()))
            elif span == "cli.write":
                counts["cli.write_bytes"] += os.path.getsize(args[0])
            return result
        return traced

    # -- patching ---------------------------------------------------------

    def install(self, package: str = "diskvolterra") -> None:
        """Wrap every target under every module name that refers to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for mod_name, target, span in TARGETS:
            module = sys.modules.get(f"{package}.{mod_name}")
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{mod_name}.{target}")
                continue
            wrapped = self._wrap(original, span)
            self._set(owner, attr, original, wrapped)
            if owner is module:
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, name, original, wrapped)

    def _set(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def save(self, path) -> None:
        """Write the spans as arrays: name (index into names), parent
        (-1 for a root), start and end (perf_counter seconds)."""
        import numpy as np
        np.savez_compressed(path, names=np.array(self.names), name=np.array(self.name),
                            parent=np.array(self.parent), start=np.array(self.start),
                            end=np.array(self.end))

    def layer_metrics(self, traced_s: float, untraced_s: float) -> dict:
        """Every per-layer metric; a layer that did no work reports 0."""
        import numpy as np
        name = np.array(self.name, dtype=np.intp)
        parent = np.array(self.parent, dtype=np.intp)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        n_names = len(self.names)
        self_by_name = np.bincount(name, weights=self_time, minlength=n_names)
        calls_by_name = np.bincount(name, minlength=n_names)

        def by_name(span, which):
            if span not in self._ids:
                return 0.0 if which == "self" else 0
            i = self._ids[span]
            return float(self_by_name[i]) if which == "self" else int(calls_by_name[i])

        out = {m: by_name(span, which) for m, (span, which) in SPAN_METRICS.items()}
        out.update({m: self.counts[key] for m, key in COUNTER_METRICS.items()})

        refined = self.counts["spaces.refined"]
        out["spaces.refine_useful_frac"] = (self.counts["spaces.refine_useful"] / refined
                                            if refined else 0.0)
        rescans = self._nested_under("criteria.sequence_scan", "essnorm.essnorm")
        out["essnorm.rescan_s"] = float(self_time[rescans].sum())
        out["essnorm.rescan_calls"] = int(len(rescans))
        out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        return out

    def _nested_under(self, span: str, ancestor: str) -> list:
        """Indices of ``span`` spans that have an ``ancestor`` span above them."""
        if span not in self._ids or ancestor not in self._ids:
            return []
        sid, aid = self._ids[span], self._ids[ancestor]
        out = []
        for idx, nid in enumerate(self.name):
            if nid != sid:
                continue
            up = self.parent[idx]
            while up >= 0 and self.name[up] != aid:
                up = self.parent[up]
            if up >= 0:
                out.append(idx)
        return out
