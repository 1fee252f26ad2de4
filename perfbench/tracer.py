"""Span tracer that wraps the public functions of each ``oscoul`` layer from outside.

Each wrapper is installed on every name a caller looks up: the defining
module's attribute and any ``from .x import f`` binding in another loaded
``oscoul`` module.  A span records (name, start, end, self time, parent span,
operation); self time is the span's duration minus the time its child spans
cover.  Spans stay in memory and are written out once, at the end of a run.

A layer function that no longer exists is reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
import time
from collections import defaultdict

# The layers are the modules of src/oscoul; these are their public functions.
LAYERS = {
    "cli": ["main"],
    "oracle": [
        "convergence_study",
        "build_problem",
        "truncation_radius",
        "discretize",
        "lowest_eigenvalues",
        "residual_norm",
        "default_samples",
    ],
    "kernels": ["lowest_eigenvalues_tridiag"],
    "quadrature": ["inner_product", "normalized", "norm_divergence_scan", "gauss_legendre"],
    "models": ["clike_bound_states", "wavefunction", "wavefunction_derivatives"],
    "specfun": ["jacobi", "laguerre"],
    "duality": ["map_curved", "verify_pointwise"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
EIGENSOLVE = ("oracle.lowest_eigenvalues", "kernels.lowest_eigenvalues_tridiag")
IMPORT_PACKAGES = ("oscoul", "numpy", "scipy")


class _PointCounter:
    """Stands in for the integrand factor f of inner_product and counts the
    points it is evaluated at."""

    def __init__(self, fn, counts):
        self._fn = fn
        self._counts = counts

    def __call__(self, x):
        self._counts["quadrature.points"] += getattr(x, "size", 1)
        return self._fn(x)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, self_s, parent index, op)
        self.counts = defaultdict(float)
        self.absent = []
        self.op = -1
        self._stack = []  # [span index, child seconds]
        self._installed = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "quadrature.inner_product":
                args = (_PointCounter(args[0], counts),) + args[1:]
            elif name == "oracle.lowest_eigenvalues":
                counts["oracle.lowest_eigenvalues.rows"] += len(args[0].diag)
                counts["oracle.eigenvalues"] += args[1] if len(args) > 1 else kwargs["k"]
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[index] = (name, start, end, end - start - frame[1], parent, self.op)
            if name == "models.clike_bound_states":
                counts["models.clike_bound_states.states"] += len(result)
            return result

        return wrapper

    def install(self):
        """Wrap every layer function; remember the absent ones."""
        for mod_name, fns in LAYERS.items():
            try:
                module = importlib.import_module(f"oscoul.{mod_name}")
            except ImportError:
                self.absent += [f"{mod_name}.{fn}" for fn in fns]
                continue
            for fn_name in fns:
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for holder in [m for n, m in list(sys.modules.items()) if _is_oscoul(n)]:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._installed.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    # -- merging and output ------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "absent": self.absent}

    def merge(self, data: dict, op: int):
        """Add the spans a traced subprocess wrote, as operation ``op``."""
        base = len(self.spans)
        for name, start, end, self_s, parent, _ in data["spans"]:
            self.spans.append((name, start, end, self_s, parent + base if parent >= 0 else -1, op))
        for key, value in data["counts"].items():
            self.counts[key] += value
        self.absent = sorted(set(self.absent) | set(data["absent"]))

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "self_s", "parent", "op"], **self.dump()}, fh)

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, states_verified: int) -> dict:
        """calls and self_s per present layer function, plus the derived counts."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for name, _, _, s, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += s
        out = {}
        for name in SPAN_NAMES:
            if name in self.absent:
                continue
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        c = self.counts
        integrals = calls["quadrature.inner_product"]
        out["oracle.lowest_eigenvalues.rows"] = (int(c["oracle.lowest_eigenvalues.rows"]), "count")
        out["oracle.eigs_per_state"] = (_ratio(c["oracle.eigenvalues"], states_verified), "count")
        out["quadrature.points_per_integral"] = (_ratio(c["quadrature.points"], integrals), "count")
        out["quadrature.gauss_legendre.calls_per_integral"] = (
            _ratio(calls["quadrature.gauss_legendre"], integrals),
            "count",
        )
        out["models.clike_bound_states.states"] = (
            int(c["models.clike_bound_states.states"]),
            "count",
        )
        return out

    def self_time_shares(self) -> dict:
        totals = defaultdict(float)
        for name, _, _, s, _, _ in self.spans:
            totals[name] += s
        whole = sum(totals.values()) or 1.0
        return {name: t / whole for name, t in totals.items()}


def _is_oscoul(module_name: str) -> bool:
    return module_name == "oscoul" or module_name.startswith("oscoul.")


def _ratio(num, den) -> float:
    """num / den, and 0 when nothing was counted in the denominator."""
    return float(num) / den if den else 0.0


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds of each top-level package in ``-X importtime`` output.

    A package never imported reads 0.
    """
    out = {pkg: 0.0 for pkg in IMPORT_PACKAGES}
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(4) in out:
            out[m.group(4)] = max(out[m.group(4)], int(m.group(2)) * 1e-6)
    return out
