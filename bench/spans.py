"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each ``upg`` layer, in
every module namespace that holds them, with wrappers that record a span:
its layer, its duration, and how much of it child spans covered.  A
layer's self time is the sum over its spans of duration minus child time,
so the self times of all layers add up to the traced wall time.  Spans
are aggregated in memory as they end; ``uninstall`` restores the
original functions.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
import types
from collections import Counter, defaultdict

SOLVERS = {
    "girth": "girth",
    "eccentricity_profile": "eccentricity",
    "domination_number": "domination",
    "clique_number": "clique",
    "chromatic_number": "chromatic",
    "is_planar": "planar",
    "is_hamiltonian": "hamiltonian",
}
OUTCOMES = ("pass", "fail", "hypothesis_gap", "not_applicable", "skipped")


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._child_s: list[float] = []
        self._originals: list[tuple[object, str, object]] = []

    def span(self, layer: str, fn, *args, **kwargs):
        """Call fn inside a span of the given layer."""
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            child = self._child_s.pop()
            self.self_s[layer] += duration - child
            if self._child_s:
                self._child_s[-1] += duration

    def install(self) -> None:
        import upg.claims
        import upg.cli
        import upg.graphs
        import upg.invariants
        import upg.rings

        inv = upg.invariants
        wrappers = {
            upg.rings.parse_ring_spec: self._plain("rings.parse"),
            upg.claims.default_rings: self._plain("rings.parse"),
            upg.rings.units: self._units,
            upg.graphs.unity_product_graph: self._graph_build,
            upg.graphs.complement: self._graph_build,
            upg.graphs.recognize_complete_multipartite: self._plain("graphs.recognize"),
            upg.graphs.decompose_matching_structure: self._plain("graphs.recognize"),
            upg.graphs.export_dot: self._export,
            upg.graphs.export_json: self._export,
            inv.full_report: self._plain("invariants.report_self"),
            upg.claims.run_sweep: self._sweep,
            upg.claims.render_text: self._plain("claims.render"),
            upg.claims.render_json: self._plain("claims.render"),
            upg.claims.render_csv: self._plain("claims.render"),
        }
        for name, short in SOLVERS.items():
            wrappers[getattr(inv, name)] = self._solver(f"invariants.{short}", inv.VertexBoundError)
        modules = [m for name, m in sys.modules.items() if name == "upg" or name.startswith("upg.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                make = wrappers.get(value) if isinstance(value, types.FunctionType) else None
                if make is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, functools.wraps(value)(make(value)))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def _plain(self, layer: str):
        def make(fn):
            return lambda *args, **kwargs: self.span(layer, fn, *args, **kwargs)

        return make

    def _units(self, fn):
        # An exact multiplication count: units() gets a copy of the ring
        # whose mul counts its calls; the result refers to the real ring.
        def wrapper(ring):
            self.counts["rings.units_calls"] += 1
            mul = ring.mul
            calls = 0

            def counting_mul(a, b):
                nonlocal calls
                calls += 1
                return mul(a, b)

            try:
                group = self.span("rings.units", fn, dataclasses.replace(ring, mul=counting_mul))
            finally:
                self.counts["rings.mul_calls"] += calls
            return dataclasses.replace(group, ring=ring)

        return wrapper

    def _graph_build(self, fn):
        def wrapper(*args, **kwargs):
            g = self.span("graphs.build", fn, *args, **kwargs)
            self.counts["graphs.edges_built"] += g.edge_count
            return g

        return wrapper

    def _export(self, fn):
        def wrapper(g):
            text = self.span("graphs.export", fn, g)
            self.counts["graphs.export_bytes"] += len(text.encode("utf-8"))
            return text

        return wrapper

    def _solver(self, layer: str, refusal: type):
        def make(fn):
            def wrapper(g, *args, **kwargs):
                self.counts[layer + "_calls"] += 1
                self.counts["invariants.input_vertices"] += g.n
                self.counts["invariants.input_edges"] += g.edge_count
                try:
                    return self.span(layer, fn, g, *args, **kwargs)
                except refusal:
                    self.counts["invariants.refusals"] += 1
                    raise

            return wrapper

        return make

    def _sweep(self, fn):
        def wrapper(*args, **kwargs):
            verdicts = self.span("claims.sweep_self", fn, *args, **kwargs)
            self.counts.update(f"claims.{v.outcome}" for v in verdicts)
            return verdicts

        return wrapper
