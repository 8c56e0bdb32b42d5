"""Span-recording wrappers around wulffstab's public functions and methods.

``Tracer.install()`` wraps each function in ``TARGETS`` in every
``wulffstab.*`` namespace that binds it: module attributes, values of
module-level dicts (``cli.COMMANDS``) and, for methods, the class.
Each call records a span ``[name, start, end, parent]`` in memory; a call
nested directly in a span of the same name is folded into it.
``Tracer.remove()`` restores every binding. Self time is a span's duration
minus the part of it that its child spans cover.
"""

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

PACKAGE = "wulffstab"


def _rows(x):
    return len(np.atleast_2d(x))


def _file_bytes(args, result):
    path = args[0]
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


# (module, attribute or Class.method, span name, counts(args, result))
TARGETS = [
    ("spectral", "real_sph_harm_matrix", "spectral.basis",
     lambda a, r: {"entries": r.size}),
    ("spectral", "sh_analyze", "spectral.analyze", None),
    ("spectral", "spectral_derivatives", "spectral.derivatives", None),
    ("surface", "recover_radius_spectral", "surface.radius_spectral", None),
    ("spheremesh", "build_sphere_mesh", "spheremesh.build",
     lambda a, r: {"vertices": r.n_vertices}),
    ("operators", "DerivativeOperators.__init__", "operators.stencil_build",
     lambda a, r: {"vertices": a[1].n_vertices}),
    ("operators", "get_operators", "operators.get", None),
    *[("operators", f"DerivativeOperators.{m}", "operators.apply", None)
      for m in ("gradient", "gradient_ambient", "jacobian_ambient",
                "hessian", "divergence", "laplacian")],
    ("operators", "lp_norm", "operators.norms", None),
    ("operators", "w2p_norm", "operators.norms", None),
    ("surface", "recover_radius_mesh", "surface.raycast",
     lambda a, r: {"rays": a[0].n_vertices,
                   "misses": int(np.isnan(r[0]).sum())}),
    ("surface", "project_to_wulff", "surface.project",
     lambda a, r: {"unconverged": int((~r[3]).sum())}),
    ("surface", "projection_certificate", "surface.certificate", None),
    ("surface", "hausdorff_distance", "surface.hausdorff", None),
    ("surface", "radial_graph", "surface.graph", None),
    ("surface", "exp_graph", "surface.graph", None),
    ("wulff", "build_wulff", "wulff.build", None),
    *[("integrand", f"Integrand.{m}", "integrand.eval",
       lambda a, r: {"points": _rows(a[1])})
      for m in ("fbar", "fbar_grad", "fbar_hess", "value", "evaluate",
                "anisotropy_ambient", "anisotropy")],
    ("integrand", "gauge", "integrand.eval",
     lambda a, r: {"points": _rows(a[1])}),
    ("curvature", "anisotropic_shape_operator", "curvature.shape", None),
    ("curvature", "trace_free", "curvature.shape", None),
    ("curvature", "oscillation_deficit", "curvature.shape", None),
    ("stability", "center", "stability.center",
     lambda a, r: {"iterations": r.iterations,
                   "sign_warnings": int("sign_warning" in r.diagnostics)}),
    ("stability", "stability_operator", "stability.operator", None),
    ("stability", "scaling_sweep", "stability.sweep", None),
    ("stability", "stability_ratio", "stability.sweep", None),
    ("einstein", "ratio_bounds", "einstein.ratio_bounds",
     lambda a, r: {"samples": r.samples}),
    ("einstein", "zero_set_check", "einstein.zero_set",
     lambda a, r: {"stray_zeros": r["stray_zeros"]}),
    ("flatgraph", "flat_graph_shape", "flatgraph.shape", None),
    ("flatgraph", "cap_fit_residual", "flatgraph.cap_fit", None),
    *[("cli", f"run_{c}", f"cli.{c}", None)
      for c in ("wulff", "sweep", "kernel", "curvature", "center", "einstein")],
    ("cli", "write_csv", "cli.write", _file_bytes),
    ("cli", "write_dat", "cli.write", _file_bytes),
    ("cli", "write_svg", "cli.write", _file_bytes),
    ("wulff", "write_mesh_text", "cli.write", _file_bytes),
]

# (module, attribute, counter): calls counted without a span, for functions
# called thousands of times from inside an optimizer
COUNTED = [
    ("einstein", "polys_batch", "einstein.polys_batch.calls"),
    ("flatgraph", "grid_w2p_norm", "flatgraph.norm_evals"),
]


class Tracer:
    """Installs the wrappers, records spans and counters, restores bindings."""

    def __init__(self):
        self.spans = []                  # [name, start, end, parent index]
        self.counters = defaultdict(int)
        self.missing = []                # targets the package no longer has
        self._local = threading.local()
        self._patches = []               # (namespace, key, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, fn, name, counts):
        spans, counters = self.spans, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if counts is not None:
                for key, n in counts(args, result).items():
                    counters[f"{name}.{key}"] += int(n)
            return result

        wrapper.__bench_wrapper__ = True
        return wrapper

    def _count_wrapper(self, fn, counter):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__bench_wrapper__ = True
        return wrapper

    def install(self):
        for module, attr, name, counts in TARGETS:
            self._patch(module, attr,
                        lambda fn: self._span_wrapper(fn, name, counts))
        for module, attr, counter in COUNTED:
            self._patch(module, attr,
                        lambda fn: self._count_wrapper(fn, counter))

    def _patch(self, module, attr, make):
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{attr}")
                return
            self._bind(owner, method, original, make(original))
            return
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        for ns in _package_modules():
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._bind(ns, key, original, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._bind(value, k, original, wrapper)

    def _bind(self, namespace, key, original, wrapper):
        self._patches.append((namespace, key, original))
        if isinstance(namespace, dict):
            namespace[key] = wrapper
        else:
            setattr(namespace, key, wrapper)

    def remove(self):
        while self._patches:
            namespace, key, original = self._patches.pop()
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)

    def leftover_wrappers(self):
        """Bindings in the package that still hold one of our wrappers."""
        found = []
        for ns in _package_modules():
            for key, value in vars(ns).items():
                values = [(key, value)]
                if isinstance(value, dict):
                    values += [(f"{key}[{k!r}]", v) for k, v in value.items()]
                elif isinstance(value, type):
                    values += [(f"{key}.{k}", v) for k, v in vars(value).items()]
                found += [f"{ns.__name__}.{k}" for k, v in values
                          if getattr(v, "__bench_wrapper__", False)]
        return found


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def self_times(spans):
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, cur_start, cur_end = 0.0, None, None
        for s, e in sorted(children[index]):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(end - start - covered)
    return out


def layer_metrics(spans, counters, names, wall_s):
    """Resolve metric names against spans and counters (see catalog.py).

    ``operators.cache_hit_ratio`` is the share of ``operators.get`` spans
    without an ``operators.stencil_build`` child (0 when never called), and
    ``trace.unattributed_s`` is ``wall_s`` minus every ``*.self_s`` metric.
    Names this module cannot resolve are left to the caller.
    """
    selfs = self_times(spans)
    self_s, calls, total = defaultdict(float), defaultdict(int), defaultdict(float)
    built = set()
    for (name, start, end, parent), own in zip(spans, selfs):
        self_s[name] += own
        calls[name] += 1
        total[name] += end - start
        if name == "operators.stencil_build" and parent >= 0:
            built.add(parent)
    gets = [i for i, s in enumerate(spans) if s[0] == "operators.get"]
    out = {}
    for metric in names:
        base, _, kind = metric.rpartition(".")
        if metric in counters:
            out[metric] = counters[metric]
        elif metric == "operators.cache_hit_ratio":
            hits = sum(1 for i in gets if i not in built)
            out[metric] = hits / len(gets) if gets else 0.0
        elif kind == "self_s":
            out[metric] = self_s[base]
        elif kind == "calls":
            out[metric] = calls[base]
        elif kind == "wall_s":
            out[metric] = total[base]
        elif not metric.startswith(("trace.", "process.")):
            out[metric] = 0          # a counter that never fired
    if "trace.unattributed_s" in names:
        out["trace.unattributed_s"] = wall_s - sum(
            v for k, v in out.items() if k.endswith(".self_s"))
    return out
