#!/usr/bin/env python3
"""qcalc benchmark: run one workload, check every output, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qcalc checkout; it imports ``src/qcalc`` and runs
``python -m qcalc`` with ``PYTHONPATH=src``.  Workloads: pair-scan,
small-cli, gradient (see perfbench/NOTES.md).

With ``--trace 0`` the operations run as separate processes, one after
another (a closed loop with one client), in the workload's fixed number of
passes, and the end-to-end metrics are printed.  The workloads are sized so
that a run takes about ``--seconds`` on a 2-vCPU machine; the pass count
does not depend on it.  With ``--trace 1`` the same operations run in this
process: a warm-up pass, a plain pass and a pass with spans around qcalc's
public functions; the per-layer metrics are printed.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Run artefacts
(inputs, outputs, spans, result.json) go to ``.perfbench_runs/``.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

from tracing import STAGES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
# no pass starts after PASS_DEADLINE_S seconds of a run, and any operation
# still running at KILL_DEADLINE_S is killed, so that a run ends within 180 s
PASS_DEADLINE_S, KILL_DEADLINE_S = 110, 165

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
# span name -> per-layer metric holding the span's self time
SPAN_METRICS = {
    "metric.estimate_chord_arc": "metric.estimate_chord_arc_s",
    "metric.shortest_path": "metric.shortest_path_s",
    "metric.geodesic_distance": "metric.geodesic_distance_s",
    "metric.predecessor_array": "metric.predecessor_array_s",
    "metric.verify_local_to_global": "metric.verify_local_to_global_s",
    "calculus.verify_remainder_bound": "calculus.verify_remainder_bound_s",
    "calculus.pair_modulus_profile": "calculus.pair_modulus_profile_s",
    "calculus.fit_holder_modulus": "calculus.fit_holder_modulus_s",
    "calculus.reconstruct": "calculus.reconstruct_s",
    "calculus.verify_ftc": "calculus.verify_ftc_s",
    "calculus.discrete_gradient": "calculus.discrete_gradient_s",
    "calculus.affine_rigidity_test": "calculus.affine_rigidity_test_s",
    "whitney.check_whitney_c1": "whitney.check_whitney_c1_s",
    "whitney.local_flatness": "whitney.local_flatness_s",
    "geometry.build": "geometry.build_s",
    "geometry.load_sample": "geometry.load_sample_s",
    "geometry.fingerprint": "geometry.fingerprint_s",
    "geometry.validate": "geometry.validate_s",
    "geometry.dump_sample": "geometry.dump_sample_s",
    "fields.load_field": "fields.load_field_s",
    "fields.dump_field": "fields.dump_field_s",
    "clifford.monogenic_space_dimension": "clifford.monogenic_space_dimension_s",
    "clifford.complete_from_hyperplane": "clifford.complete_from_hyperplane_s",
    "clifford.geometric_product": "clifford.geometric_product_s",
    "clifford.tangential_derivative_on_graph": "clifford.tangential_derivative_on_graph_s",
    "cli.emit_pairs_csv": "cli.emit_pairs_csv_s",
    "cli.main": "cli.main_self_s",
}
COUNT_METRICS = {  # computed from the inputs, per pass
    "metric.pairs_scanned": "count",
    "metric.dijkstra_sources": "count",
    "calculus.remainder_pairs": "count",
    "calculus.remainder_pair_buffer_bytes": "bytes",
    "calculus.discrete_gradient_dense_bytes": "bytes",
}
PRINTED_NOTES = {
    "setup_oracle_s": "oracle results and field documents, once per run, after the "
                      "first input build",
    "cpu_s": "user+system CPU of the operations' processes, all threads, median over passes",
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class OpResult:
    def __init__(self, latency, code, stdout: bytes, files: dict, rss_kb=0, digest=None,
                 cpu=0.0):
        self.latency = latency
        self.cpu = cpu
        self.code = code
        self.stdout = stdout
        self.files = files
        self.rss_kb = rss_kb
        self.digest = digest or hashlib.sha256(stdout).hexdigest()
        self.files_digest = hashlib.sha256(
            b"".join(files[k] for k in sorted(files))).hexdigest()


class Pass(NamedTuple):
    wall: float      # seconds to run the whole operation list
    cpu: float       # user+system CPU seconds of the operations' processes
    results: list    # one OpResult per operation


# ---------------------------------------------------------------------------
# running operations


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list, env: dict, kill_at: float) -> tuple[float, int, bytes, int, float]:
    """Run a process to completion, killing it at ``kill_at`` (perf_counter).

    Returns wall seconds, exit status, stdout, max RSS in KiB and CPU seconds
    (user plus system, all threads).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
                            cwd=ROOT)
    timer = threading.Timer(max(0.0, kill_at - t0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, out, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def read_files(paths) -> dict:
    return {p: Path(p).read_bytes() for p in paths if Path(p).exists()}


def clear(paths) -> None:
    for p in paths:
        Path(p).unlink(missing_ok=True)


def cli_pass_subprocess(plan, env, kill_at: float) -> Pass:
    results = []
    for op in plan.ops:
        clear(op.writes)
        seconds, code, out, rss, cpu = spawn([sys.executable, "-m", "qcalc", *op.argv], env,
                                             kill_at)
        results.append(OpResult(seconds, code, out, read_files(op.writes), rss, cpu=cpu))
    return Pass(sum(r.latency for r in results), sum(r.cpu for r in results), results)


def gradient_results(plan, records, out_dir: Path, rss_kb=0) -> list:
    by_id = {r["id"]: r for r in records}
    results = []
    for op in plan.ops:
        rec = by_id[op.spec["id"]]
        body = (out_dir / f"{op.spec['id']}.json").read_bytes()
        results.append(OpResult(rec["latency"], 0, body, {}, rss_kb, rec["digest"],
                                rec["cpu"]))
    return results


def gradient_pass_subprocess(plan, env, run_dir: Path, index: int, kill_at: float) -> Pass:
    spec_path = run_dir / "gradient_spec.json"
    if not spec_path.exists():
        spec_path.write_text(json.dumps(plan.inprocess))
    out_dir = run_dir / f"gradient_pass{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    seconds, code, out, rss, cpu = spawn(
        [sys.executable, str(HERE / "gradient_ops.py"), str(spec_path), str(out_dir)], env,
        kill_at)
    if code != 0:  # the pass crashed: each of its operations counts as failed
        return Pass(seconds, cpu, [OpResult(seconds, code, b"", {}, rss) for _ in plan.ops])
    return Pass(seconds, cpu, gradient_results(plan, json.loads(out), out_dir, rss))


def measure(plan, started: float, run_dir: Path, before_pass) -> list:
    """The workload's fixed number of passes, each after ``before_pass()``.

    Every run makes ``plan.passes`` passes, however fast the host is, so the
    statistics always mean the same thing.  Only a pass that would start
    after the pass deadline is skipped, to keep the run inside its time
    limit; ``main`` then marks the run as failed.
    """
    env = child_env()
    kill_at = started + KILL_DEADLINE_S
    passes = []
    for index in range(plan.passes):
        if passes and time.perf_counter() > started + PASS_DEADLINE_S:
            break
        before_pass()
        if plan.inprocess:
            passes.append(gradient_pass_subprocess(plan, env, run_dir, index, kill_at))
        else:
            passes.append(cli_pass_subprocess(plan, env, kill_at))
    return passes


def cli_pass_inprocess(plan, tracer=None) -> Pass:
    import qcalc.cli

    results = []
    for index, op in enumerate(plan.ops):
        clear(op.writes)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id = index
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = qcalc.cli.main(list(op.argv))
            except Exception:  # main reports errors by exit status; this is a crash
                traceback.print_exc()
                code = -1
        seconds = time.perf_counter() - t0
        results.append(OpResult(seconds, code, out.getvalue().encode(), read_files(op.writes)))
    return Pass(sum(r.latency for r in results), 0.0, results)


def gradient_pass_inprocess(plan, run_dir: Path, tag: str, tracer=None) -> Pass:
    import gradient_ops

    out_dir = run_dir / f"gradient_{tag}"
    out_dir.mkdir(parents=True, exist_ok=True)
    hook = None if tracer is None else (lambda op_id: setattr(tracer, "op_id", op_id))
    try:
        records = gradient_ops.run_pass(plan.inprocess, out_dir, before_op=hook)
    except Exception:  # a crash fails every operation of the pass
        traceback.print_exc()
        return Pass(0.0, 0.0, [OpResult(0.0, -1, b"", {}) for _ in plan.ops])
    results = gradient_results(plan, records, out_dir)
    return Pass(sum(r.latency for r in results), 0.0, results)


# ---------------------------------------------------------------------------
# checks


def check_passes(plan, passes: list) -> list:
    """Oracle checks on the first pass; later passes must repeat its bytes."""
    failures = []
    first = passes[0].results
    for index, (op, res) in enumerate(zip(plan.ops, first)):
        try:
            if res.code != op.expect:
                reason = f"exit status {res.code}, expected {op.expect}"
            elif op.spec is not None:
                reason = op.check(json.loads(res.stdout),
                                  {o.spec["id"]: json.loads(r.stdout)
                                   for o, r in zip(plan.ops, first)})
            else:
                reason = op.check(res.stdout, res.code, res.files)
        except Exception:  # a malformed report is a failed check, not a crash
            reason = "check raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        if reason:
            failures.append({"index": index, "op": op.name, "pass": 0, "reason": reason})
        for p, later in enumerate(passes[1:], start=1):
            again = later.results[index]
            if (again.code, again.digest, again.files_digest) != \
                    (res.code, res.digest, res.files_digest):
                failures.append({"index": index, "op": op.name, "pass": p,
                                 "reason": "output bytes differ from the first pass"})
    return failures


# ---------------------------------------------------------------------------
# environment and reporting


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = "unreadable"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "qcalc").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_max": cpu_max,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
    }


def tail(values: list) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def op_table(plan, passes) -> list:
    rows = []
    for index, op in enumerate(plan.ops):
        runs = [p.results[index] for p in passes]
        rows.append({
            "op": op.name,
            "argv": op.argv if op.spec is None else op.spec,
            "exit": runs[0].code,
            "latency_s": [r.latency for r in runs],
            "cpu_s": [r.cpu for r in runs],
            "max_rss_kib": max(r.rss_kb for r in runs),
            "stdout_sha256": runs[0].digest,
            "files_sha256": runs[0].files_digest if op.writes else None,
        })
    return rows


def print_ops(rows) -> None:
    for row in rows:
        print(f"  {statistics.median(row['latency_s']):9.4f} s  exit {row['exit']}  "
              f"sha256 {row['stdout_sha256'][:16]}  {row['op']}")


def end_to_end(plan, passes, setup_times) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, their notes, and figures that are only printed."""
    latencies = [r.latency for p in passes for r in p.results]
    pct, tail_value = tail(latencies)
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "peak_rss_mb": max(r.rss_kb for p in passes for r in p.results) / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    printed = {"cpu_s": statistics.median(p.cpu for p in passes)}
    notes = {
        "wall_s": f"median of {len(passes)} passes of {len(plan.ops)} operations",
        "op_p50_s": f"median of {len(latencies)} operation latencies",
        "op_tail_s": f"p{pct:.1f} of {len(latencies)} operation latencies "
                     "(the 11th largest)" if len(latencies) >= 11 else
                     "maximum: fewer than 11 samples",
        "peak_rss_mb": "largest max RSS of any process that ran an operation",
        "setup_s": f"median of {len(setup_times)} builds of the input documents "
                   "(qcalc builders and dump_sample)",
    }
    return metrics, notes, printed


def remainder_peak_mb(probe: dict | None) -> float:
    """tracemalloc peak inside one verify_remainder_bound call (0 if none)."""
    if probe is None:
        return 0.0
    import tracemalloc

    from qcalc import calculus
    from qcalc.fields import load_field
    from qcalc.geometry import load_sample

    sample = load_sample(probe["sample"])
    f, A = load_field(probe["f"], sample), load_field(probe["A"], sample)
    tracemalloc.start()
    try:
        calculus.verify_remainder_bound(f, A, sample, k=probe["k"], tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def cli_start_s(repeats: int = 3) -> float:
    env = child_env()
    return statistics.median(
        spawn([sys.executable, "-c", "import qcalc.cli"], env, time.perf_counter() + 60)[0]
        for _ in range(repeats))


def per_layer(plan, run_dir: Path) -> tuple[dict, list, list]:
    from qcalc import calculus, cli, clifford, fields, geometry, metric, whitney

    modules = {"geometry": geometry, "fields": fields, "metric": metric, "calculus": calculus,
               "whitney": whitney, "clifford": clifford, "cli": cli}
    # the first plain pass warms caches and lazy imports; the second is the baseline
    if plan.inprocess:
        plains = [gradient_pass_inprocess(plan, run_dir, f"plain{i}") for i in range(2)]
    else:
        plains = [cli_pass_inprocess(plan) for _ in range(2)]
    plain = plains[-1]
    tracer = Tracer()
    restore = tracer.install(modules)
    try:
        if plan.inprocess:
            traced = gradient_pass_inprocess(plan, run_dir, "traced", tracer)
        else:
            traced = cli_pass_inprocess(plan, tracer)
    finally:
        restore()
    selfs = tracer.self_times()
    metrics = {m: selfs.get(span, [0.0, 0])[0] for span, m in SPAN_METRICS.items()}
    metrics["clifford.geometric_product_calls"] = selfs.get("clifford.geometric_product",
                                                            [0.0, 0])[1]
    for name in COUNT_METRICS:
        metrics[name] = sum(op.counts.get(name, 0) for op in plan.ops)
    metrics["io.json_bytes_read"] = sum(os.path.getsize(p) for op in plan.ops for p in op.reads)
    metrics["io.json_bytes_written"] = sum(
        len(r.stdout) + sum(len(b) for b in r.files.values()) for r in traced.results)
    metrics["calculus.remainder_peak_alloc_mb"] = remainder_peak_mb(plan.remainder_probe)
    metrics["cli.start_s"] = cli_start_s()
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    stage_self = {}
    for span, (secs, _) in selfs.items():
        stage = STAGES.get(span, span)
        stage_self[stage] = stage_self.get(stage, 0.0) + secs
    (run_dir / "spans.json").write_text(json.dumps(tracer.as_records()))
    return metrics, [*plains, traced], sorted(stage_self.items(), key=lambda kv: -kv[1])


PER_LAYER_UNITS = {
    **{m: "s" for m in SPAN_METRICS.values()},
    **COUNT_METRICS,
    "clifford.geometric_product_calls": "count",
    "io.json_bytes_read": "bytes",
    "io.json_bytes_written": "bytes",
    "calculus.remainder_peak_alloc_mb": "MB",
    "cli.start_s": "s",
    "trace.overhead_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qcalc" / "cli.py").is_file():
        print(f"perfbench: no qcalc sources at {SRC}; run from a qcalc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "inputs"
    work.mkdir(parents=True)
    rng = np.random.default_rng(args.seed)
    shapes = workload.shapes(rng)
    setup_times = []

    def build(count: int) -> dict:
        for _ in range(count):
            t0 = time.perf_counter()
            paths = workloads.build_inputs(shapes, work)
            setup_times.append(time.perf_counter() - t0)
        return paths

    # one build up front, and when measuring a fixed number more before each
    # pass, so that setup_s (their median) samples the same stretch of time
    # as the passes
    paths = build(1)
    t0 = time.perf_counter()
    plan = workload.plan(rng, work, shapes, paths)
    oracle_s = time.perf_counter() - t0

    env_info = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"operations/pass={len(plan.ops)} passes={plan.passes} seconds={args.seconds:g}")
    print("environment " + json.dumps(env_info, sort_keys=True))
    printed = {"setup_oracle_s": oracle_s}
    measuring = time.perf_counter()
    if args.trace == 0:
        passes = measure(plan, started, run_dir, lambda: build(workload.builds_per_pass))
        metrics, notes, also = end_to_end(plan, passes, setup_times)
        printed.update(also)
        units = END_TO_END
        stages = []
    else:
        metrics, passes, stages = per_layer(plan, run_dir)
        units = PER_LAYER_UNITS
        notes = {"trace.overhead_s": "traced minus plain in-process pass wall time"}
    measured_s = time.perf_counter() - measuring
    failures = check_passes(plan, passes)
    failed = len({(f["index"], f["pass"]) for f in failures})
    attempted = sum(len(p.results) for p in passes)
    if args.trace == 0 and len(passes) < plan.passes:
        # fewer samples change what the statistics mean: not comparable
        failures.append({"index": None, "op": "(run)", "pass": len(passes),
                         "reason": f"only {len(passes)} of {plan.passes} passes ran "
                                   f"before the {PASS_DEADLINE_S} s pass deadline"})
    rows = op_table(plan, passes)

    print("operations (median latency, exit status, stdout sha256):")
    print_ops(rows)
    if stages:
        print("self time by stage (traced pass):")
        for stage, secs in stages:
            print(f"  {secs:9.4f} s  {stage}")
    for name, value in metrics.items():
        print(f"{name:40s} {value!r:>24} {units[name]:6s} {notes.get(name, '')}")
    for name, value in printed.items():
        print(f"{name:40s} {value!r:>24} s      (printed only) {PRINTED_NOTES[name]}")
    print(f"passes {len(passes)} of {plan.passes}; measuring took {measured_s:.1f} s "
          f"(sized for --seconds {args.seconds:g})")
    print(f"error_rate {failed}/{attempted} = {failed / attempted!r}")
    for failure in failures:
        print(f"FAILED {failure['op']} (pass {failure['pass']}): {failure['reason']}")

    (run_dir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env_info, "setup_s": setup_times, "metrics": metrics,
        "setups": len(setup_times),
        "passes": len(passes), "passes_planned": plan.passes, "measured_s": measured_s,
        "also_measured": printed,
        "operations": rows, "failures": failures,
    }, indent=1, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
