"""Span recorder for the traced run, kept entirely in the benchmark's files.

The recorder wraps the names through which one layer of ``weylkit`` calls
another.  A function is wrapped at every ``weylkit`` module attribute bound
to it, so a call is seen whichever importing module makes it; a method is
wrapped on its class.  Each wrapped call is either a span (name, start,
end, parent) or a counter.  Spans stay in memory in flat arrays and are
summarised and written out when the run ends.  ``restore`` puts every
original attribute back.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter

import weylkit.coeffs
import weylkit.powers
import weylkit.schur
import weylkit.weyl

# (span name, module, attribute, size counters): the size counters map a
# counter name to a function of (args, result) giving the amount to add.
SPANS = (
    ("cli.dispatch", "weylkit.cli", "dispatch", {}),
    ("cli.build_parser", "weylkit.cli", "build_parser", {}),
    ("schur.verify", "weylkit.schur", "verify_schur_ses", {}),
    ("weyl.verify", "weylkit.weyl", "verify_weyl_kernel", {}),
    ("linalg.smith", "weylkit.linalg", "smith_elementary_divisors",
     {"linalg.smith_cells": lambda a, r: len(a[0]) * a[1]}),
    ("linalg.rank", "weylkit.linalg", "rank_of_rows", {"linalg.rank_rows_in": lambda a, r: len(a[0])}),
    ("linalg.solve", "weylkit.linalg", "solve_exact", {}),
    ("schur.garnir", "weylkit.schur", "garnir",
     {"schur.garnir_built": lambda a, r: 1, "schur.garnir_zero": lambda a, r: r.element.is_zero}),
    ("places.coset_reps", "weylkit.places", "left_coset_reps", {}),
    ("schur.polytabloid", "weylkit.schur", "polytabloid", {}),
    ("schur.polytabloid_map", "weylkit.schur", "apply_polytabloid_map", {}),
    ("powers.wedge_of_sym_lower", "weylkit.powers", "wedge_of_sym_lower", {}),
    ("weyl.snake", "weylkit.weyl", "dual_snake", {"weyl.snake_built": lambda a, r: 1}),
    ("weyl.copolytabloid", "weylkit.weyl", "copolytabloid", {}),
    ("tableaux.enumerate", "weylkit.tableaux", "enumerate_tableaux", {}),
    ("duality.entry_action", "weylkit.duality", "entry_action", {"duality.entry_action_calls": lambda a, r: 1}),
    ("duality.pairing_image", "weylkit.duality", "pairing_image", {}),
    ("powers.wedge_project", "weylkit.powers", "wedge_project",
     {"powers.wedge_project_terms_in": lambda a, r: len(a[0].lin)}),
    ("powers.to_row_tabloid", "weylkit.powers", "to_row_tabloid", {}),
    ("weyl.straighten", "weylkit.weyl", "straighten", {"weyl.straighten_steps": lambda a, r: len(r.gamma)}),
    ("powers.rsym", "weylkit.powers", "rsym", {}),
    ("weyl.dual_garnir", "weylkit.weyl", "dual_garnir", {}),
)

# (counter name, module, attribute): plain call counts on hot functions.
COUNTERS = (("tableaux.sort_columns_calls", "weylkit.tableaux", "sort_columns"),)

# (span or counter name, class, method, is_span)
METHODS = (
    ("weyl.certificate_verify", weylkit.weyl.StraighteningCertificate, "verify", True),
    ("powers.to_json", weylkit.powers.TableauElement, "to_json", True),
    ("coeffs.lincomb_new", weylkit.coeffs.LinComb, "__init__", False),
    ("coeffs.combine_calls", weylkit.coeffs.LinComb, "combine", False),
)

# The functools caches whose hit ratio the traced run reports.
CACHES = (
    ("schur.polytabloid_cache_hit_ratio", weylkit.schur._polytabloid_int),
    ("schur.garnir_cache_hit_ratio", weylkit.schur._garnir_int),
    ("weyl.dual_garnir_cache_hit_ratio", weylkit.weyl._dual_garnir_int),
    ("powers.wedge_of_rsym_cache_hit_ratio", weylkit.powers._wedge_of_rsym_int),
)


def cache_hit_ratios() -> dict[str, float]:
    out = {}
    for name, fn in CACHES:
        info = fn.cache_info()
        calls = info.hits + info.misses
        out[name] = info.hits / calls if calls else 0.0
    return out


def layer_metrics(summary: dict, counts: Counter) -> dict[str, float]:
    """Span totals, counters, ratios and cache hit ratios of one traced run."""
    out: dict[str, float] = {}
    for name, _, _, sizes in SPANS:
        out[f"{name}_s"] = summary[name]["total_s"]
        for counter in sizes:
            out[counter] = counts[counter]
    for name, _, _ in COUNTERS:
        out[name] = counts[name]
    for name, _, _, is_span in METHODS:
        if is_span:
            out[f"{name}_s"] = summary[name]["total_s"]
        else:
            out[name] = counts[name]
    built = out["schur.garnir_built"]
    out["schur.garnir_zero_ratio"] = out["schur.garnir_zero"] / built if built else 0.0
    # Every library call the element-ops handlers make has a span of its
    # own, so the cli spans' self time is argument parsing (with the
    # tableau's Tableau.from_json), dispatch and printing.
    out["cli.self_s"] = sum(row["self_s"] for name, row in summary.items() if name.startswith("cli."))
    out.update(cache_hit_ratios())
    return out


def _weylkit_modules():
    return [m for name, m in list(sys.modules.items()) if name == "weylkit" or name.startswith("weylkit.")]


def weylkit_bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded ``weylkit`` module and patched class."""
    out = {}
    for module in _weylkit_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
    for _, cls, method, _ in METHODS:
        out[(cls.__qualname__, method)] = cls.__dict__[method]
    return out


class Recorder:
    """Records spans and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, sizes=None):
        """Wrap fn so that each call records a span and adds to its size counters."""
        nid = self._intern(name)
        sizes = tuple((sizes or {}).items())
        stack, opened, counts = self._stack, self._open, self.counts
        name_id, start, end, parent, nested = self.name_id, self.start, self.end, self.parent, self.nested
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            nested.append(opened[nid] > 0)
            end.append(0.0)
            opened[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                opened[nid] -= 1
            for counter, size in sizes:
                counts[counter] += size(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch_function(self, module_name: str, attr: str, make):
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = make(original)
        for module in _weylkit_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def install(self) -> None:
        for name, module_name, attr, sizes in SPANS:
            self._patch_function(module_name, attr, lambda fn, n=name, s=sizes: self.span(n, fn, s))
        for name, module_name, attr in COUNTERS:
            self._patch_function(module_name, attr, lambda fn, n=name: self.counter(n, fn))
        for name, cls, method, is_span in METHODS:
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self.span(name, original) if is_span else self.counter(name, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time of outermost spans, and self time."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child_time[i]
            if not self.nested[i]:
                row["total_s"] += dur
        return out

    def write(self, path, summary: dict) -> None:
        """Write the spans and their summary as JSON."""
        obj = {
            "names": self.names,
            "spans": {
                "name": list(self.name_id),
                "start": list(self.start),
                "end": list(self.end),
                "parent": list(self.parent),
            },
            "summary": summary,
            "counts": dict(self.counts),
        }
        with open(path, "w") as handle:
            json.dump(obj, handle, separators=(",", ":"))
