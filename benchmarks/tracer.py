"""Spans and counters recorded around bdl's public functions, from outside.

The package's modules import each other's functions by name
(``from .oracle import solve_bethe_roots``), so a function is wrapped in every
``bdl`` module that binds it, not only where it is defined. Nothing under
``src/`` is edited: `Tracer.install` swaps module attributes and
`Tracer.uninstall` puts the originals back.

A span records name, start, end, parent span and run id (one run per
``cli.main`` call). Spans stay in memory until `Tracer.write`. A span's self
time is its duration minus the time covered by its child spans. Count-only
wrappers sit on functions called too often for a span each; their time stays
in the enclosing span's self time.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = "bdl"
SPANNED = (
    "oracle.solve_bethe_roots", "oracle.monodromy", "oracle.modified_monodromy",
    "oracle.transfer", "oracle.bethe_vector", "oracle.dual_bethe_vector",
    "models.bethe_jacobian",
    "linsys.build_m", "linsys.solve_x", "linsys.build_omega", "linsys.w_transform_check",
    "identities.identity_a", "identities.identity_b",
    "determinants.scalar_product", "determinants.gaudin_norm_check",
    "determinants.maba_scalar_product", "determinants.izergin",
    "checks.run_suite", "config.load_config", "cli.main",
)
COUNTED = (
    "models.y_periodic", "models.y_maba", "models.y_eval",
    "linsys.l_coeff", "rational.g_prod", "rational.esp_all",
)


class Tracer:
    """Wraps the functions in SPANNED and COUNTED while installed."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.root_keys: set[str] = set()
        self.newton_starts = 0
        self.roots_accepted = 0
        self.roots_unmatched = 0
        self.dim_max = 0
        self.dense_flop = 0.0
        self.run = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        after = {"oracle.solve_bethe_roots": self._after_roots,
                 "oracle.monodromy": self._after_monodromy}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if name == "cli.main":
                self.run += 1
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                parent = None
                if self._stack:
                    parent = self._stack[-1][0]
                    self._stack[-1][2] += duration
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[2]
                self.spans.append((span_id, name, frame[1] - self.origin,
                                   end - self.origin, parent, self.run))
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_roots(self, args, kwargs, result) -> None:
        self.root_keys.add(repr((args, sorted(kwargs.items()))))
        self.newton_starts += result.seeds_used
        self.roots_accepted += len(result.roots)
        self.roots_unmatched += len(result.unmatched)

    def _after_monodromy(self, args, kwargs, result) -> None:
        spec = args[0]
        dim = result.a.shape[0]
        self.dim_max = max(self.dim_max, dim)
        # 8 (N - 1) complex D x D products per call, 8 D**3 real flop each
        self.dense_flop += 8 * (spec.n_sites - 1) * 8.0 * dim ** 3

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        prefix = PACKAGE + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(prefix))]
        for qualname in SPANNED + COUNTED:
            layer, attr = qualname.split(".")
            original = getattr(importlib.import_module(prefix + layer), attr)
            make = self._span if qualname in SPANNED else self._count
            wrapper = make(qualname, original)
            for module in modules:
                for binding in [k for k, v in vars(module).items() if v is original]:
                    self._patches.append((module, binding, original))
                    setattr(module, binding, wrapper)
        return self

    def uninstall(self) -> None:
        for module, binding, original in reversed(self._patches):
            setattr(module, binding, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in SPANNED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTED:
            out[f"{name}.calls"] = self.calls[name]
        out["oracle.solve_bethe_roots.distinct"] = len(self.root_keys)
        out["oracle.newton_starts"] = self.newton_starts
        out["oracle.roots_accepted"] = self.roots_accepted
        out["oracle.roots_unmatched"] = self.roots_unmatched
        out["oracle.dim_max"] = self.dim_max
        out["oracle.dense_gflop_computed"] = self.dense_flop / 1e9
        # everything main does besides loading the config and running checks
        out["cli.emit.s"] = self.self_s["cli.main"]
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, times in seconds from tracer creation."""
        keys = ("id", "name", "start", "end", "parent", "run")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
