"""In-process operations of the ``gradient`` workload.

``discrete_gradient``, ``affine_rigidity_test`` and
``metric.verify_local_to_global`` have no CLI route, so this workload calls
the library.  Run as a script it executes one pass in a fresh process:

    python perfbench/gradient_ops.py SPEC.json OUT_DIR

SPEC.json lists the operations; each result is saved to OUT_DIR outside
the timed region, and one JSON line of per-operation latencies and result
digests goes to stdout.  ``qcalc`` must be importable (PYTHONPATH=src).
"""
from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np


def field_values(points: np.ndarray, coef: list) -> np.ndarray:
    """a exp(b x) cos(c y + d) + e x y: smooth, and not a sum g(x) + h(y)."""
    a, b, c, d, e = coef
    x, y = points[:, 0], points[:, 1]
    return a * np.exp(b * x) * np.cos(c * y + d) + e * x * y


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run_pass(spec: dict, out_dir: Path | None, before_op=None) -> list[dict]:
    """Run every operation in order; returns one record per operation.

    ``before_op(op_id)`` is called ahead of each timed call (tracing uses it).
    """
    from qcalc import calculus, metric
    from qcalc.fields import CovectorField, ScalarField
    from qcalc.geometry import load_sample

    samples = {name: load_sample(path) for name, path in spec["samples"].items()}
    fields = {name: ScalarField(s, field_values(s.points_array, spec["coef"][name]))
              for name, s in samples.items()}
    gradients = {}
    records = []
    for op in spec["ops"]:
        s, f = samples[op["sample"]], fields[op["sample"]]
        if "coef" in op:  # a field of its own, built outside the timed call
            f = ScalarField(s, field_values(s.points_array, op["coef"]))
        kind = op["kind"]
        if before_op is not None:
            before_op(op["id"])
        t0, c0 = time.perf_counter(), time.process_time()
        if kind == "discrete_gradient":
            out = calculus.discrete_gradient(s, f)
        elif kind == "reconstruct":
            out = calculus.reconstruct(s, gradients[op["sample"]], op["base"],
                                       float(f.values[op["base"]]))
        elif kind == "affine":
            b0, b1, b2 = op["affine"]
            g = ScalarField(s, b0 + s.points_array @ np.array([b1, b2]))
            out = calculus.affine_rigidity_test(s, g, CovectorField.constant(s, [b1, b2]))
        elif kind == "local_to_global":
            out = metric.verify_local_to_global(s, f, C=op["C"], k=op["k"])
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        latency, cpu = time.perf_counter() - t0, time.process_time() - c0
        if kind == "discrete_gradient":
            gradients[op["sample"]] = out
            result = {"covectors": out.covectors.tolist()}
            digest = _digest(out.covectors)
        elif kind == "reconstruct":
            result = {"values": out.values.tolist(), "warning": out.warning}
            digest = _digest(out.values, np.frombuffer(str(out.warning).encode(), np.uint8))
        else:
            result = out.as_dict()
            digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
        if out_dir is not None:
            (out_dir / f"{op['id']}.json").write_text(json.dumps(result))
        records.append({"id": op["id"], "latency": latency, "cpu": cpu, "digest": digest})
    return records


if __name__ == "__main__":
    spec_path, out = sys.argv[1], Path(sys.argv[2])
    out.mkdir(parents=True, exist_ok=True)
    print(json.dumps(run_pass(json.loads(Path(spec_path).read_text()), out)))
