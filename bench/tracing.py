"""Span tracing around calls into conekit, installed from outside the package.

Wrappers replace a public name where the calling module binds it: a
``from .frame import ricci_curve`` binding in ``verify`` is a separate
reference from ``frame.ricci_curve``, so each binding is patched on its
own.  Spans ``(name, start, end, parent)`` stay in memory until the run
ends; per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

# (span name, source module, attribute path, binding modules)
# Binding modules None: every binding of the object in the source module and
# in any loaded ``conekit`` module.  A module name: only that caller's binding.
TARGETS = (
    ("bump.build_profile", "conekit.bump", "build_profile", None),
    ("bump.load_profile", "conekit.bump", "load_profile", None),
    ("bump.build_table", "conekit.bump", "build_table", None),
    ("bump.smoothness_check", "conekit.bump", "smoothness_check", None),
    ("bump.antiderivative", "conekit.bump", "QuadratureTable.antiderivative", None),
    ("bump.antiderivative", "conekit.bump", "QuadratureTable.antiderivative2", None),
    ("profiles.radial", "conekit.profiles", "RadialFunction.__call__", None),
    ("frame.ricci_curve", "conekit.frame", "ricci_curve", None),
    ("frame.curvature_from_forms", "conekit.frame", "curvature_from_forms", None),
    ("verify.verify_region", "conekit.verify", "verify_region", None),
    ("verify.verify_nonneg", "conekit.verify", "verify_nonneg", None),
    ("quaternions.qmul", "conekit.quaternions", "qmul", "conekit.spaces"),
    ("quaternions.canonical_q8", "conekit.quaternions", "canonical_q8", "conekit.spaces"),
    ("spaces.space_from_points", "conekit.spaces", "space_from_points", None),
    ("spaces.apsp", "scipy.sparse.csgraph", "shortest_path", None),
    ("spaces.components", "scipy.sparse.csgraph", "connected_components", None),
    ("spaces.gh_upper_bound", "conekit.spaces", "gh_upper_bound", None),
    ("spaces.metric_axioms", "conekit.spaces", "SampledSpace.metric_axioms_report", None),
    ("spaces.diameter", "conekit.spaces", "diameter", None),
    ("obstruction.hitchin_check", "conekit.obstruction", "hitchin_check", None),
)


def _count_points(name):
    def hook(counts, args, result):
        counts[name] += int(np.size(args[1]))
    return hook


def _count_grid(counts, args, result):
    counts["verify.grid_points"] += int(result.grid_size)


def _count_space(counts, args, result):
    counts["spaces.edges"] += int(result.provenance["edges"])
    counts["spaces.dist_bytes"] += 8 * result.n * result.n


HOOKS = {
    "profiles.radial": _count_points("profiles.radial_points"),
    "frame.ricci_curve": _count_points("frame.ricci_curve_points"),
    "verify.verify_region": _count_grid,
    "verify.verify_nonneg": _count_grid,
    "spaces.space_from_points": _count_space,
}


class Tracer:
    """In-memory span recorder; ``spans[i] = (name, start, end, parent)``."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []
        self.missing: list[str] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrapper(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self.counts, args, result)
            return result
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every target binding; names that no longer exist are listed in ``missing``."""
        self.missing = []
        for name, modname, path, callers in TARGETS:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{modname}:{path}")
                continue
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}:{path}")
                continue
            wrapper = self._wrapper(name, original)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            if callers is None:
                mods = [m for key, m in list(sys.modules.items())
                        if key == "conekit" or key.startswith("conekit.")]
                mods.append(owner)
            elif callers in sys.modules:
                mods = [sys.modules[callers]]
            else:
                self.missing.append(f"{callers}:{path}")
                continue
            for mod in {id(m): m for m in mods}.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def summarize(spans: list) -> tuple[Counter, Counter, Counter]:
    """Per span name: call count, total time and self time.

    Total time counts only the outermost span of a name, so recursion is not
    counted twice.  Self time is a span's duration minus its children's.
    """
    calls, total, self_time = Counter(), Counter(), Counter()
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_time[name] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start
    return calls, total, self_time


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, float]:
    """Per-layer metrics per traced iteration, keyed as in BENCHMARK.json."""
    calls, total, self_time = summarize(tracer.spans)
    c = tracer.counts
    n = float(iterations)
    m = {}
    for cmd in ("build_profile", "verify", "collapse", "obstruction"):
        m[f"cli.{cmd}_s"] = total[f"cli.{cmd}"] / n
    m["cli.self_s"] = sum(v for k, v in self_time.items() if k.startswith("cli.")) / n
    for key in ("build_profile", "load_profile", "build_table", "smoothness_check"):
        m[f"bump.{key}_s"] = total[f"bump.{key}"] / n
    m["bump.build_profile_calls"] = calls["bump.build_profile"] / n
    m["bump.antiderivative_calls"] = calls["bump.antiderivative"] / n
    m["bump.antiderivative_s"] = total["bump.antiderivative"] / n
    m["profiles.radial_calls"] = calls["profiles.radial"] / n
    m["profiles.radial_points"] = c["profiles.radial_points"] / n
    m["profiles.radial_s"] = total["profiles.radial"] / n
    m["frame.ricci_curve_calls"] = calls["frame.ricci_curve"] / n
    m["frame.ricci_curve_points"] = c["frame.ricci_curve_points"] / n
    m["frame.ricci_curve_s"] = total["frame.ricci_curve"] / n
    m["frame.points_per_call"] = (c["frame.ricci_curve_points"] / calls["frame.ricci_curve"]
                                  if calls["frame.ricci_curve"] else 0.0)
    m["frame.curvature_from_forms_calls"] = calls["frame.curvature_from_forms"] / n
    m["frame.curvature_from_forms_s"] = total["frame.curvature_from_forms"] / n
    m["verify.verify_region_s"] = total["verify.verify_region"] / n
    m["verify.verify_nonneg_s"] = total["verify.verify_nonneg"] / n
    m["verify.grid_points"] = c["verify.grid_points"] / n
    m["verify.self_s"] = (self_time["verify.verify_region"]
                          + self_time["verify.verify_nonneg"]) / n
    m["quaternions.qmul_calls"] = calls["quaternions.qmul"] / n
    m["quaternions.qmul_s"] = total["quaternions.qmul"] / n
    m["quaternions.canonical_q8_s"] = total["quaternions.canonical_q8"] / n
    m["spaces.space_calls"] = calls["spaces.space_from_points"] / n
    m["spaces.space_from_points_s"] = total["spaces.space_from_points"] / n
    m["spaces.apsp_s"] = total["spaces.apsp"] / n
    m["spaces.components_calls"] = calls["spaces.components"] / n
    m["spaces.knn_retries"] = (calls["spaces.components"]
                               - calls["spaces.space_from_points"]) / n
    m["spaces.edges"] = c["spaces.edges"] / n
    m["spaces.dist_mb_computed"] = c["spaces.dist_bytes"] / 1e6 / n
    m["spaces.graph_s"] = self_time["spaces.space_from_points"] / n
    m["spaces.gh_upper_bound_s"] = total["spaces.gh_upper_bound"] / n
    m["spaces.metric_axioms_s"] = total["spaces.metric_axioms"] / n
    m["spaces.diameter_s"] = total["spaces.diameter"] / n
    m["obstruction.hitchin_check_s"] = total["obstruction.hitchin_check"] / n
    m["trace.spans"] = len(tracer.spans) / n
    return m
