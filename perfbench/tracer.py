"""Per-layer tracing from outside the package.

The tracer replaces module attributes at every binding site of each
boundary function (for example ``partial_jet`` as bound in geometry,
symbolic, lyapunov and dynamics) with a wrapper that records a span:
name, start, end and parent.  ``partial_jet`` is called hundreds of
thousands of times per sweep, so it is aggregated as count and time per
parent span instead.  Boundaries the package no longer defines are
reported as absent: every metric that reads one is None (null in JSON),
never 0.  Over no calls, a maximum is 0 and the converged share of phi
solves is 1 (none failed), so that a layer that stops running never
reads as worse.  ``uninstall`` puts every original back.

Work under a collision-angle (phi_max) observation span is phi work:
the symbolic layers count only spans outside it.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

PHI = "geometry.phi_observe"

# (span name, defining module, attribute).  Several attributes may share
# one span name; the layer's busy time counts only outermost spans.
SPAN_BOUNDARIES = (
    (PHI, "geometry", "_default_phi_observation"),
    ("geometry.pair_extremes", "geometry", "boundary_pair_extremes"),
    ("geometry.eclipse", "geometry", "check_no_eclipse"),
    ("geometry.table_bounds", "geometry", "table_bounds"),
    ("config.validate", "geometry", "validate_family"),
    ("symbolic.orbit", "symbolic", "find_periodic_orbit"),
    ("symbolic.segment", "symbolic", "find_orbit_segment"),
    ("symbolic.seed", "symbolic", "_seed_chain"),
    ("symbolic.chain", "symbolic", "_chain_system"),
    ("symbolic.newton", "symbolic", "_solve_chain"),
    ("symbolic.shadow", "symbolic", "_segment_solve"),
    ("symbolic.records", "symbolic", "_build_records"),
    ("symbolic.ift", "symbolic", "orbit_alpha_derivatives"),
    ("lyapunov.recursion", "lyapunov", "lyapunov_estimate"),
    ("lyapunov.recursion", "lyapunov", "propagate_curvature"),
    ("lyapunov.recursion", "lyapunov", "periodic_curvature_fixed_point"),
    ("lyapunov.recursion", "lyapunov", "kdot_trace"),
    ("lyapunov.recursion", "lyapunov", "f_derivative_sum"),
    ("lyapunov.oracle", "lyapunov", "jacobian_lyapunov_oracle"),
    ("dynamics.intersect", "dynamics", "first_intersection"),
    ("experiments.analyze", "experiments", "analyze_orbit"),
    ("experiments.emit", "experiments", "emit_outputs"),
)
JET_BOUNDARY = ("geometry.jets", "geometry", "partial_jet")

# What a span keeps of its call's result.
SPAN_VALUES = {
    "symbolic.segment": lambda orbit: orbit.shadow_gap,
    "symbolic.ift": lambda derivs: derivs.cond,
    "experiments.emit": lambda paths: sum(Path(p).stat().st_size
                                          for p in paths),
}

# Span names that a layer's metrics, or one metric, read besides the
# layer's own spans; a metric is None when any span it reads has an
# absent boundary.
_PHI_SOLVES = ("symbolic.orbit", "symbolic.segment")
READS = {
    PHI: ("geometry.table_bounds",),   # it wraps the observer callable
    f"{PHI}.solves": _PHI_SOLVES,
    f"{PHI}.converged_frac": _PHI_SOLVES,
    "symbolic.shadow": ("symbolic.segment",),
    "symbolic.newton.chain_evals_per_solve": ("symbolic.chain",),
}

# Every per-layer metric the traced run reports, in print order.
LAYER_METRICS = (
    ("geometry.phi_observe.busy_s", "s"),
    ("geometry.phi_observe.solves", "count"),
    ("geometry.phi_observe.converged_frac", "ratio"),
    ("geometry.jets.calls", "count"),
    ("geometry.jets.busy_s", "s"),
    ("geometry.pair_extremes.calls", "count"),
    ("geometry.pair_extremes.busy_s", "s"),
    ("geometry.eclipse.calls", "count"),
    ("geometry.eclipse.busy_s", "s"),
    ("config.validate.busy_s", "s"),
    ("geometry.table_bounds.busy_s", "s"),
    ("symbolic.seed.calls", "count"),
    ("symbolic.seed.busy_s", "s"),
    ("symbolic.chain.calls", "count"),
    ("symbolic.chain.busy_s", "s"),
    ("symbolic.newton.calls", "count"),
    ("symbolic.newton.busy_s", "s"),
    ("symbolic.newton.chain_evals_per_solve", "count"),
    ("symbolic.newton.failed", "count"),
    ("symbolic.shadow.calls", "count"),
    ("symbolic.shadow.busy_s", "s"),
    ("symbolic.shadow.max_gap", "1"),
    ("symbolic.records.busy_s", "s"),
    ("symbolic.ift.calls", "count"),
    ("symbolic.ift.busy_s", "s"),
    ("symbolic.ift.cond_max", "1"),
    ("lyapunov.recursion.calls", "count"),
    ("lyapunov.recursion.busy_s", "s"),
    ("lyapunov.oracle.busy_s", "s"),
    ("dynamics.intersect.calls", "count"),
    ("dynamics.intersect.busy_s", "s"),
    ("experiments.analyze.busy_s", "s"),
    ("experiments.emit.busy_s", "s"),
    ("experiments.emit.bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "in_phi", "outer",
                 "failed", "value", "children")

    def __init__(self, name, parent, in_phi, outer):
        self.name = name
        self.parent = parent
        self.in_phi = in_phi
        self.outer = outer
        self.start = time.perf_counter()
        self.end = math.nan
        self.failed = False
        self.value = math.nan      # shadow gap, condition number, bytes
        self.children = 0          # _segment_solve calls under a segment


class Tracer:
    """Spans and counts for one traced unit of work."""

    package = "billiard_lab"

    def __init__(self):
        self.spans = []
        self.stack = []
        self.depth = {}
        self.jets = {}            # parent span index (-1: none) -> [calls, s]
        self.patched = []         # (module, attribute, original)
        self.absent = []          # "module.attribute" not defined
        self.absent_spans = set()  # span names with an absent boundary

    # -- installing ------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def _patch(self, span_name, module, attr, make_wrapper):
        mod = sys.modules.get(f"{self.package}.{module}")
        original = getattr(mod, attr, None) if mod is not None else None
        if not callable(original):
            self.absent.append(f"{module}.{attr}")
            self.absent_spans.add(span_name)
            return
        wrapper = make_wrapper(original)
        for m in self._modules():
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapper)
                    self.patched.append((m, name, original))

    def install(self):
        for name, module, attr in SPAN_BOUNDARIES:
            maker = {"geometry.table_bounds": self._wrap_table_bounds,
                     "symbolic.shadow": self._wrap_segment_solve}.get(
                name, functools.partial(self._wrap_span, name))
            self._patch(name, module, attr, maker)
        self._patch(*JET_BOUNDARY, self._wrap_jet)
        return self

    def uninstall(self):
        for module, name, original in reversed(self.patched):
            setattr(module, name, original)
        self.patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        in_phi = name == PHI or (parent >= 0 and self.spans[parent].in_phi)
        depth = self.depth.get(name, 0)
        self.depth[name] = depth + 1
        span = Span(name, parent, in_phi, depth == 0)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        self.depth[span.name] -= 1

    def _call(self, span, fn, args, kwargs):
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            self._close(span)

    def _wrap_span(self, name, fn):
        value_of = SPAN_VALUES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            result = self._call(span, fn, args, kwargs)
            if value_of is not None:
                span.value = value_of(result)
            return result
        return wrapper

    def _wrap_table_bounds(self, fn):
        """table_bounds, plus the observer callable passed to it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            observer = kwargs.get("phi_observer")
            if observer is not None:
                kwargs["phi_observer"] = self._wrap_span(PHI, observer)
            return self._call(self._open("geometry.table_bounds"), fn, args,
                              kwargs)
        return wrapper

    def _wrap_segment_solve(self, fn):
        """The second solve under one find_orbit_segment is the shadow
        re-solve at deeper padding."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.spans[self.stack[-1]] if self.stack else None
            if parent is None or parent.name != "symbolic.segment":
                return fn(*args, **kwargs)
            parent.children += 1
            if parent.children < 2:
                return fn(*args, **kwargs)
            return self._call(self._open("symbolic.shadow"), fn, args,
                              kwargs)
        return wrapper

    def _wrap_jet(self, fn):
        jets = self.jets
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                key = stack[-1] if stack else -1
                agg = jets.get(key)
                if agg is None:
                    jets[key] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt
        return wrapper

    # -- results ---------------------------------------------------------

    def _layer(self, name, phi_work=False):
        return [s for s in self.spans
                if s.name == name and (phi_work or not s.in_phi)]

    @staticmethod
    def _busy(spans):
        return sum(s.end - s.start for s in spans if s.outer)

    def _reads_absent(self, metric):
        layer = metric.rsplit(".", 1)[0]
        reads = {layer, *READS.get(layer, ()), *READS.get(metric, ())}
        return bool(self.absent_spans & reads)

    def metrics(self, overhead_s: float) -> dict:
        """Every metric of LAYER_METRICS; None where a boundary it reads
        is absent."""
        out = {}
        phi = self._layer(PHI, phi_work=True)
        phi_solves = [s for s in self.spans if s.in_phi
                      and s.name in ("symbolic.orbit", "symbolic.segment")]
        out["geometry.phi_observe.busy_s"] = self._busy(phi)
        out["geometry.phi_observe.solves"] = len(phi_solves)
        out["geometry.phi_observe.converged_frac"] = (
            sum(not s.failed for s in phi_solves) / len(phi_solves)
            if phi_solves else 1.0)
        out["geometry.jets.calls"] = sum(c for c, _ in self.jets.values())
        out["geometry.jets.busy_s"] = sum(t for _, t in self.jets.values())
        for layer in ("geometry.pair_extremes", "geometry.eclipse",
                      "symbolic.seed", "symbolic.chain", "symbolic.newton",
                      "symbolic.shadow", "symbolic.ift",
                      "lyapunov.recursion", "dynamics.intersect"):
            spans = self._layer(layer)
            out[f"{layer}.calls"] = len(spans)
            out[f"{layer}.busy_s"] = self._busy(spans)
        for layer in ("config.validate", "geometry.table_bounds",
                      "symbolic.records", "lyapunov.oracle",
                      "experiments.analyze", "experiments.emit"):
            out[f"{layer}.busy_s"] = self._busy(self._layer(layer))

        newton_ids = {i for i, s in enumerate(self.spans)
                      if s.name == "symbolic.newton" and not s.in_phi}
        newton = [self.spans[i] for i in newton_ids]
        chain_evals = sum(1 for s in self.spans if s.name == "symbolic.chain"
                          and s.parent in newton_ids)
        out["symbolic.newton.chain_evals_per_solve"] = (
            chain_evals / len(newton) if newton else 0.0)
        out["symbolic.newton.failed"] = sum(s.failed for s in newton)
        gaps = [s.value for s in self._layer("symbolic.segment")
                if not math.isnan(s.value)]
        out["symbolic.shadow.max_gap"] = max(gaps, default=0.0)
        conds = [s.value for s in self._layer("symbolic.ift")
                 if not math.isnan(s.value)]
        out["symbolic.ift.cond_max"] = max(conds, default=0.0)
        out["experiments.emit.bytes"] = int(sum(
            s.value for s in self._layer("experiments.emit")
            if not math.isnan(s.value)))
        out["trace.overhead_s"] = overhead_s
        return {name: None if self._reads_absent(name) else out[name]
                for name, _ in LAYER_METRICS}

    def write(self, path, extra: dict) -> None:
        """Spans, jet counts per parent span, and absent boundaries."""
        t0 = self.spans[0].start if self.spans else 0.0
        doc = dict(extra)
        doc["absent"] = self.absent
        doc["span_fields"] = ["name", "parent", "start_s", "end_s", "phi",
                              "failed"]
        doc["spans"] = [[s.name, s.parent, s.start - t0, s.end - t0,
                         s.in_phi, s.failed] for s in self.spans]
        doc["jets_by_parent"] = {str(k): v for k, v in self.jets.items()}
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)
