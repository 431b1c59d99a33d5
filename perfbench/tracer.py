"""In-process tracing for the traced run.

``Tracer.installed`` swaps wrappers in for the public functions each layer
calls in the layer below, and puts the originals back on exit; no file of the
package changes.  Calls at coarse boundaries become spans (name, start, end,
parent span, request id) kept in memory; hot leaf calls (one ray-trace step,
one jet product, one float map evaluation) are only counted and timed,
because a span each would cost more than the call.  Every wrapped call adds
its duration to its caller's child time, so self time is exact for both.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

LAYERS = ("cli", "geometry", "orbits", "billiard_map", "linear_stability", "jets", "birkhoff")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, request id)
        self.stats: dict[str, list] = {}  # name -> [calls, busy seconds, self seconds]
        self.counts = {"cli.write.bytes": 0, "orbits.collisions": 0}
        self.request = -1
        self._stack: list[list] = []  # open calls: [layer, child seconds, span index]

    def wrap(self, name, fn, *, span=True, boundary_only=False, on_result=None):
        """Return ``fn`` wrapped as a traced call named ``<layer>.<what>``.

        ``boundary_only`` records the call only when its caller is in another
        layer, so nested calls inside one layer are not counted twice.
        """
        layer = name.split(".", 1)[0]
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            if boundary_only and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            parent_span = parent[2] if parent else -1
            frame = [layer, 0.0, parent_span]
            if span:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += t1 - t0
                stat[2] += t1 - t0 - frame[1]
                if parent is not None:
                    parent[1] += t1 - t0
                if span:
                    spans[frame[2]] = (name, t0, t1, parent_span, self.request)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _plan(self, pkg) -> list[tuple]:
        """(owner, attribute, replacement) for every traced boundary."""
        cli, geometry, orbits, birkhoff, jets = pkg.cli, pkg.geometry, pkg.orbits, pkg.birkhoff, pkg.jets
        counts = self.counts

        def count_bytes(fn):
            def counted(out, text):
                counts["cli.write.bytes"] += len(text.encode())
                return fn(out, text)
            return counted

        def add_collisions(orbit):
            counts["orbits.collisions"] += orbit.period

        jet_push = self.wrap("jets.push", birkhoff.half_period_formula)
        float_map = self.wrap("billiard_map.half_period.float", birkhoff.half_period_formula, span=False)
        jet_backend = pkg.billiard_map.JET_BACKEND

        def half_period(s, r, n, R, lib=pkg.billiard_map.FLOAT_BACKEND):
            return (jet_push if lib is jet_backend else float_map)(s, r, n, R, lib)

        mul = self.wrap("jets.mul", jets.Jet2.__mul__, span=False)
        params = geometry.TableParams
        geo = dict(span=False, boundary_only=True)
        return [
            (cli, "write_csv", self.wrap("cli.write", cli.write_csv)),
            (cli, "write_json", self.wrap("cli.write", cli.write_json)),
            (cli, "_write_text", count_bytes(cli._write_text)),
            (params, "type_a", staticmethod(self.wrap("geometry.type_a", params.type_a, **geo))),
            (params, "validate", self.wrap("geometry.validate", params.validate, **geo)),
            (cli, "max_radius", self.wrap("geometry.max_radius", cli.max_radius, **geo)),
            (orbits, "scatterer_pose", self.wrap("geometry.scatterer_pose", orbits.scatterer_pose, **geo)),
            (birkhoff, "tangency_radius_b", self.wrap("geometry.tangency_radius_b", birkhoff.tangency_radius_b, **geo)),
            (cli, "build_type_a", self.wrap("orbits.build_type_a", cli.build_type_a, on_result=add_collisions)),
            (orbits, "verify_closure", self.wrap("orbits.verify_closure", orbits.verify_closure)),
            (orbits, "generic_step", self.wrap("billiard_map.generic_step", orbits.generic_step, span=False)),
            (birkhoff, "half_period_formula", half_period),
            (cli, "monodromy", self.wrap("linear_stability.monodromy", cli.monodromy)),
            (cli, "trace_closed_form", self.wrap("linear_stability.trace_closed_form", cli.trace_closed_form, span=False)),
            (cli, "classify", self.wrap("linear_stability.classify", cli.classify, span=False)),
            (jets.Jet2, "__mul__", mul),
            (jets.Jet2, "__rmul__", mul),
            (cli, "taylor_jet", self.wrap("birkhoff.taylor_jet", cli.taylor_jet)),
            (cli, "birkhoff_A", self.wrap("birkhoff.birkhoff_A", cli.birkhoff_A)),
            (cli, "closed_form_A", self.wrap("birkhoff.closed_form_A", cli.closed_form_A, span=False)),
            (cli, "island_sampler", self.wrap("birkhoff.island_sampler", cli.island_sampler)),
        ]

    @contextmanager
    def installed(self, pkg):
        """Trace the package's layer boundaries inside the ``with`` block."""
        saved = []
        try:
            for owner, attr, replacement in self._plan(pkg):
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def busy(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def layer_total(self, layer: str, field: int) -> float:
        return sum(s[field] for name, s in self.stats.items() if name.split(".", 1)[0] == layer)

    def write_spans(self, path) -> None:
        """Write the spans as CSV, times in seconds from the first span."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        lines = ["name,start_s,end_s,parent,request"]
        lines += [f"{n},{a - t0:.9f},{b - t0:.9f},{p},{r}" for n, a, b, p, r in self.spans]
        path.write_text("\n".join(lines) + "\n")
