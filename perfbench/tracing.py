"""Spans around calls into qcalc's public functions, kept in memory.

The tracer replaces module attributes (and the names ``qcalc.cli`` and
other modules imported with ``from ... import``) by wrappers that record
one span per call: name, start, end, parent span and operation id.  A
layer's self time is its spans' durations minus the time covered by their
direct child spans.  ``install`` returns an undo function that puts every
original back.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

# span name -> ROADMAP stage (the names a future ``--timings`` reuses)
STAGES = {
    "geometry.build": "build",
    "geometry.load_sample": "parse",
    "fields.load_field": "parse",
    "geometry.fingerprint": "fingerprint",
    "geometry.validate": "validate",
    "geometry.dump_sample": "serialize",
    "fields.dump_field": "serialize",
    "metric.shortest_path": "geodesic",
    "metric.geodesic_distance": "geodesic",
    "metric.predecessor_array": "geodesic",
    "metric.estimate_chord_arc": "chord_arc_scan",
    "metric.verify_local_to_global": "local_to_global_scan",
    "calculus.verify_remainder_bound": "remainder_scan",
    "calculus.pair_modulus_profile": "pair_modulus_profile",
    "calculus.fit_holder_modulus": "holder_fit",
    "calculus.reconstruct": "reconstruct",
    "calculus.verify_ftc": "path_integral",
    "calculus.discrete_gradient": "discrete_gradient",
    "calculus.affine_rigidity_test": "affine_fit",
    "whitney.check_whitney_c1": "whitney_check",
    "whitney.local_flatness": "flatness",
    "clifford.geometric_product": "clifford_product",
    "clifford.complete_from_hyperplane": "clifford_complete",
    "clifford.monogenic_space_dimension": "clifford_dimension",
    "clifford.is_left_monogenic": "clifford_check",
    "clifford.is_right_monogenic": "clifford_check",
    "clifford.tangential_derivative_on_graph": "graph_derivative",
    "cli.emit_pairs_csv": "csv_write",
    "cli.main": "cli",
}

# (module, attribute, span name); cli and calculus/whitney hold imported names
TARGETS = [
    ("geometry", name, "geometry.build")
    for name in ("build_gasket", "build_carpet", "build_polyline",
                 "build_lipschitz_graph", "build_dumbbell")
] + [
    ("geometry", "load_sample", "geometry.load_sample"),
    ("cli", "load_sample", "geometry.load_sample"),
    ("geometry", "validate", "geometry.validate"),
    ("geometry", "dump_sample", "geometry.dump_sample"),
    ("fields", "load_field", "fields.load_field"),
    ("cli", "load_field", "fields.load_field"),
    ("fields", "dump_field", "fields.dump_field"),
    ("metric", "shortest_path", "metric.shortest_path"),
    ("metric", "geodesic_distance", "metric.geodesic_distance"),
    ("metric", "predecessor_array", "metric.predecessor_array"),
    ("calculus", "predecessor_array", "metric.predecessor_array"),
    ("metric", "estimate_chord_arc", "metric.estimate_chord_arc"),
    ("metric", "verify_local_to_global", "metric.verify_local_to_global"),
    ("calculus", "verify_remainder_bound", "calculus.verify_remainder_bound"),
    ("calculus", "pair_modulus_profile", "calculus.pair_modulus_profile"),
    ("whitney", "pair_modulus_profile", "calculus.pair_modulus_profile"),
    ("calculus", "fit_holder_modulus", "calculus.fit_holder_modulus"),
    ("calculus", "reconstruct", "calculus.reconstruct"),
    ("calculus", "verify_ftc", "calculus.verify_ftc"),
    ("calculus", "discrete_gradient", "calculus.discrete_gradient"),
    ("calculus", "affine_rigidity_test", "calculus.affine_rigidity_test"),
    ("whitney", "check_whitney_c1", "whitney.check_whitney_c1"),
    ("whitney", "local_flatness", "whitney.local_flatness"),
    ("clifford", "geometric_product", "clifford.geometric_product"),
    ("clifford", "complete_from_hyperplane", "clifford.complete_from_hyperplane"),
    ("clifford", "monogenic_space_dimension", "clifford.monogenic_space_dimension"),
    ("clifford", "is_left_monogenic", "clifford.is_left_monogenic"),
    ("clifford", "is_right_monogenic", "clifford.is_right_monogenic"),
    ("clifford", "tangential_derivative_on_graph", "clifford.tangential_derivative_on_graph"),
    ("cli", "emit_pairs_csv", "cli.emit_pairs_csv"),
    ("cli", "main", "cli.main"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op_id = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
        return traced

    def install(self, modules: dict):
        """Wrap every target found in ``modules`` (short name -> module)."""
        undo = []
        for mod_name, attr, span in TARGETS:
            mod = modules[mod_name]
            orig = getattr(mod, attr)
            setattr(mod, attr, self.wrap(span, orig))
            undo.append((mod, attr, orig))
        # SetSample.fingerprint is a cached_property: wrap the function it caches
        cls = modules["geometry"].SetSample
        orig_prop = cls.__dict__["fingerprint"]
        prop = functools.cached_property(self.wrap("geometry.fingerprint", orig_prop.func))
        prop.__set_name__(cls, "fingerprint")
        cls.fingerprint = prop
        undo.append((cls, "fingerprint", orig_prop))

        def restore():
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)
        return restore

    def self_times(self) -> dict:
        """Total self time and call count per span name."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0])
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name][0] += (t1 - t0) - child[idx]
            out[name][1] += 1
        return dict(out)

    def as_records(self) -> list[dict]:
        base = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "stage": STAGES.get(n, n), "start": t0 - base,
                 "end": t1 - base, "parent": p, "op": op}
                for n, t0, t1, p, op in self.spans]
