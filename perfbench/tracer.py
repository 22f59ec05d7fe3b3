"""Span tracer that times trusskit's layers from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``trusskit`` module namespace that binds it (``from .trusses import
truss_law_report`` copies the name, so each copy gets the wrapper) and on the
class for the traced methods; ``uninstall`` puts the originals back.  Spans
are kept in memory as ``[name, start, end, parent, attrs]`` and written out
at the end of a run.  A layer's ``_ms`` metric is self time: the span's
duration minus the time of its direct child spans, summed over its spans.

Which end-to-end metric each layer metric should move, and on which workload
(``laws`` holds the catalog, the extension clause reports and the command
line; ``ideals`` does almost no law scanning):

* ``trusses.law_*``, ``trusses.ring_ms``: ``run_s`` and ``op_tail_ms`` on
  laws; ideals stays flat.
* ``trusses.paragon_ms``, ``normal_ms``, ``quotient_ms``, ``units_report_ms``,
  ``iso_ms``: ``op_p50_ms`` on ideals and ``run_s`` on laws (the C01 scan).
* ``heaps.*``, ``catalog.build_ms``: ``run_s`` on laws, ``setup_s`` on ideals.
* ``modules.law_*``: laws.  ``modules.congruence_ms``: ``run_s`` on ideals.
* ``extensions.*``: ``run_s`` and ``op_tail_ms`` on laws; ideals stays flat.
* ``braces.*``, ``groups.closure_*``: ``op_tail_ms`` and ``run_s`` on ideals
  (the order-64 ``brace_ideals`` call dominates the pass).
* ``groups.law_ms``, ``iso_*``, ``named_match_ms``: ``op_p50_ms`` on ideals.
* ``jsonio.*``, ``cli.*``: ``op_p50_ms`` on laws.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

# (defining module, attribute) -> span name.  "Class.method" wraps the method
# on the class itself, which every namespace shares.
TARGETS = {
    ("trusskit.trusses", "truss_law_report"): "trusses.law",
    ("trusskit.trusses", "truss_from_ring"): "trusses.ring",
    ("trusskit.trusses", "is_paragon"): "trusses.paragon",
    ("trusskit.trusses", "is_normal_paragon"): "trusses.normal",
    ("trusskit.trusses", "is_shift_normal"): "trusses.normal",
    ("trusskit.trusses", "quotient_truss"): "trusses.quotient",
    ("trusskit.trusses", "units_paragon_report"): "trusses.units_report",
    ("trusskit.trusses", "truss_isomorphism"): "trusses.iso",
    ("trusskit.heaps", "heap_law_report"): "heaps.law",
    ("trusskit.heaps", "validate_ternary_table"): "heaps.law",
    ("trusskit.heaps", "AbGroup.law_report"): "heaps.law",
    ("trusskit.heaps", "quotient_heap"): "heaps.quotient",
    ("trusskit.catalog", "zn_ring"): "catalog.build",
    ("trusskit.catalog", "zn_truss"): "catalog.build",
    ("trusskit.catalog", "za_truss"): "catalog.build",
    ("trusskit.catalog", "group_ring"): "catalog.build",
    ("trusskit.catalog", "trunc_poly_truss"): "catalog.build",
    ("trusskit.catalog", "endomorphism_maps"): "catalog.build",
    ("trusskit.catalog", "end_truss"): "catalog.build",
    ("trusskit.modules", "module_law_report"): "modules.law",
    ("trusskit.modules", "congruences"): "modules.congruence",
    ("trusskit.modules", "all_induced_submodules"): "modules.congruence",
    ("trusskit.modules", "congruence_correspondence_report"): "modules.congruence",
    ("trusskit.extensions", "extend"): "extensions.extend",
    ("trusskit.extensions", "anchor_iso"): "extensions.anchor_iso",
    ("trusskit.extensions", "extension_clause_report"): "extensions.clause",
    ("trusskit.extensions", "fiber_paragon"): "extensions.fiber",
    ("trusskit.extensions", "ext_units"): "extensions.units",
    ("trusskit.braces", "brace_ideals"): "braces.ideals",
    ("trusskit.braces", "is_brace_ideal"): "braces.is_ideal",
    ("trusskit.braces", "socle"): "braces.socle",
    ("trusskit.braces", "ideal_iff_normal_paragon"): "braces.equiv",
    ("trusskit.groups", "FiniteGroup.closure"): "groups.closure",
    ("trusskit.groups", "FiniteGroup.law_report"): "groups.law",
    ("trusskit.groups", "is_isomorphic"): "groups.iso",
    ("trusskit.groups", "named_match"): "groups.named_match",
    ("trusskit.jsonio", "read_file"): "jsonio.read",
    ("trusskit.jsonio", "write_file"): "jsonio.write",
    ("trusskit.cli", "main"): "cli.main",
}

# Extra facts recorded on a span from (args, result).
ATTRS = {
    "braces.ideals": lambda args, result: len(result),
    "groups.iso": lambda args, result: result is not None,
    "jsonio.read": lambda args, result: os.path.getsize(args[0]),
}


def _calls(span):
    return lambda agg: agg["calls"].get(span, 0)


def _self_ms(span):
    return lambda agg: agg["self_ms"].get(span, 0.0)


def _ratio(num, den):
    return lambda agg: agg[num] / agg[den] if agg[den] else 0.0


# Per-layer metric -> (unit, value from one pass's aggregate).
PER_LAYER = {
    "trusses.law_calls": ("count", _calls("trusses.law")),
    "trusses.law_ms": ("ms", _self_ms("trusses.law")),
    "trusses.ring_ms": ("ms", _self_ms("trusses.ring")),
    "trusses.paragon_ms": ("ms", _self_ms("trusses.paragon")),
    "trusses.normal_ms": ("ms", _self_ms("trusses.normal")),
    "trusses.quotient_ms": ("ms", _self_ms("trusses.quotient")),
    "trusses.units_report_ms": ("ms", _self_ms("trusses.units_report")),
    "trusses.iso_ms": ("ms", _self_ms("trusses.iso")),
    "heaps.law_calls": ("count", _calls("heaps.law")),
    "heaps.law_ms": ("ms", _self_ms("heaps.law")),
    "heaps.quotient_ms": ("ms", _self_ms("heaps.quotient")),
    "catalog.build_ms": ("ms", _self_ms("catalog.build")),
    "modules.law_calls": ("count", _calls("modules.law")),
    "modules.law_ms": ("ms", _self_ms("modules.law")),
    "modules.congruence_ms": ("ms", _self_ms("modules.congruence")),
    "extensions.extend_calls": ("count", _calls("extensions.extend")),
    "extensions.extend_ms": ("ms", _self_ms("extensions.extend")),
    "extensions.anchor_iso_calls": ("count", _calls("extensions.anchor_iso")),
    "extensions.anchor_iso_ms": ("ms", _self_ms("extensions.anchor_iso")),
    "extensions.clause_ms": ("ms", _self_ms("extensions.clause")),
    "extensions.fiber_ms": ("ms", _self_ms("extensions.fiber")),
    "extensions.units_ms": ("ms", _self_ms("extensions.units")),
    "braces.ideals_ms": ("ms", _self_ms("braces.ideals")),
    "braces.is_ideal_calls": ("count", _calls("braces.is_ideal")),
    "braces.is_ideal_ms": ("ms", _self_ms("braces.is_ideal")),
    "braces.ideal_yield": ("ratio", _ratio("ideals_found", "ideal_tests")),
    "braces.socle_ms": ("ms", _self_ms("braces.socle")),
    "braces.equiv_ms": ("ms", _self_ms("braces.equiv")),
    "groups.closure_calls": ("count", _calls("groups.closure")),
    "groups.closure_ms": ("ms", _self_ms("groups.closure")),
    "groups.law_ms": ("ms", _self_ms("groups.law")),
    "groups.iso_calls": ("count", _calls("groups.iso")),
    "groups.iso_ms": ("ms", _self_ms("groups.iso")),
    "groups.iso_hit_ratio": ("ratio", _ratio("iso_hits", "iso_calls")),
    "groups.named_match_ms": ("ms", _self_ms("groups.named_match")),
    "jsonio.read_ms": ("ms", _self_ms("jsonio.read")),
    "jsonio.read_bytes": ("bytes", lambda agg: agg["read_bytes"]),
    "jsonio.write_ms": ("ms", _self_ms("jsonio.write")),
    "cli.main_calls": ("count", _calls("cli.main")),
    "cli.self_ms": ("ms", _self_ms("cli.main")),
}
# Reported next to PER_LAYER: median traced pass time over median untraced pass time.
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self._patches = []

    def install(self):
        """Wrap every TARGETS entry in every trusskit namespace that binds it."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "trusskit" or name.startswith("trusskit.")]
        for (module, attr), span in TARGETS.items():
            owner = sys.modules[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(original, span))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, name, original, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name, original, wrapper):
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        attr = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attr is not None:
                span[4] = attr(args, result)
            return result

        return wrapper

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as a root span (one benchmark operation)."""
        return self._wrap(fn, name)(*args)

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def write(self, path, passes):
        """Write each pass's spans as JSON lines: pass, index, name, times, parent."""
        with open(path, "w") as fh:
            for p, spans in passes:
                for i, (name, start, end, parent, attrs) in enumerate(spans):
                    fh.write(json.dumps({"pass": p, "i": i, "name": name, "start": start,
                                         "end": end, "parent": parent, "attrs": attrs}) + "\n")


def aggregate(spans):
    """Calls, self time and the derived counts of one pass's spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_ms = {}, {}
    agg = {"calls": calls, "self_ms": self_ms, "ideals_found": 0, "ideal_tests": 0,
           "iso_hits": 0, "iso_calls": 0, "read_bytes": 0}
    tested = set()
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + (end - start - child[i]) * 1e3
        if name == "braces.is_ideal" and parent >= 0 and spans[parent][0] == "braces.ideals":
            agg["ideal_tests"] += 1
            tested.add(parent)
        elif name == "groups.iso":
            agg["iso_calls"] += 1
            agg["iso_hits"] += bool(attrs)
        elif name == "jsonio.read":
            agg["read_bytes"] += attrs or 0
    # ideals returned by brace_ideals calls that ran the search (not the memo)
    agg["ideals_found"] = sum(spans[i][4] or 0 for i in tested)
    return agg


def per_layer(pass_spans, traced_times, untraced_times):
    """Median over traced passes of every PER_LAYER metric, plus the overhead ratio."""
    aggs = [aggregate(spans) for spans in pass_spans]
    out = {}
    for metric, (unit, value) in PER_LAYER.items():
        out[metric] = {"value": statistics.median(value(a) for a in aggs), "unit": unit}
    name, unit = OVERHEAD_METRIC
    out[name] = {"value": statistics.median(traced_times) / statistics.median(untraced_times),
                 "unit": unit}
    return out
