"""Benchmark for qpn: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload check --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

Run from any directory of a source checkout: ``qpn`` is imported from
``src/`` beside this directory, and ``tests/gen.py`` is loaded as-is.  The
last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones from a traced run.  See README.md for the catalogue.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the benchmark is a single
# process with no threads besides the interpreter's own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check", "prob", "sample", "unfold")
# Set-up is repeated and its median reported, so one slow repeat (cold
# imports, page faults) does not decide the figure.
SETUP_REPEATS = 5
# Operations a run leaves beyond its tail percentile, at the least.
TAIL_BEYOND = 10

# The timed phase runs `reference_work` between ops at least this often.
CALIBRATE_EVERY_S = 0.25
# Seconds `reference_work` takes at the reference host speed (about its
# median on the 2-vCPU machine the benchmark was sized on).
REFERENCE_WORK_S = 0.006

END_TO_END = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}


@dataclass
class Record:
    op: object        # workloads.Op
    index: int        # position in the run
    latency: float    # seconds inside the operation
    out: object       # the op's digest of its output, if it has one
    ok: bool


def load_program():
    """Import qpn from the checkout's src/ and tests/gen.py as a module;
    exit with status 2 when the checkout has neither."""
    src, gen_path = ROOT / "src", ROOT / "tests" / "gen.py"
    if not (src / "qpn" / "__init__.py").is_file() or not gen_path.is_file():
        print(f"error: no qpn sources at {src} or no {gen_path}; "
              "run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    spec = importlib.util.spec_from_file_location("qpn_test_gen", gen_path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def os_threads():
    """Threads of this process, where the OS lists them."""
    task_dir = Path("/proc/self/task")
    return len(list(task_dir.iterdir())) if task_dir.is_dir() else None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "process_threads": os_threads(),
        "machine": platform.machine(),
    }


def reference_work():
    """A fixed mix of interpreter arithmetic and dense linear algebra on 128
    dims.  It allocates no container objects, so the garbage collector and
    the heap the workload leaves behind do not change its time."""
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    a = np.random.default_rng(0).normal(size=(64, 64))
    h = np.kron(np.eye(2), a + a.T)
    for _ in range(3):
        np.linalg.eigvalsh(h)
        h = h @ h / np.abs(h).max()
    return acc


class HostSpeed:
    """Times `reference_work` between ops of the timed phase.

    The host's core speed drifts by up to half over minutes, in CPU time as
    much as in wall time, and whole runs fall in a slow or a fast stretch.
    A run's times multiplied by REFERENCE_WORK_S over the reference work's
    median time in that run are stated at the reference speed.
    """

    def __init__(self):
        self.times, self.last = [], -math.inf

    def calibrate(self):
        self.last = time.perf_counter()
        reference_work()
        self.times.append(time.perf_counter() - self.last)

    def due(self):
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.calibrate()

    def scale(self):
        return REFERENCE_WORK_S / statistics.median(self.times)


def run_cycle(workload, first_index, records, tracer=None, host=None):
    """Run every op of one cycle; outputs are checked between ops, outside
    the timed intervals.  With a tracer, its spans are tagged by op; with a
    host clock, it is calibrated between ops when due."""
    for k, op in enumerate(workload.ops):
        i = first_index + k
        if tracer is not None:
            tracer.op = i
        if host is not None:
            host.due()
        start = time.perf_counter()
        try:
            out = op.run(i)
        except Exception:  # a failed op is counted, the run goes on
            latency = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            records.append(Record(op, i, latency, None, False))
            continue
        latency = time.perf_counter() - start
        try:
            ok = bool(op.check(out, op.expected))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        records.append(Record(op, i, latency, op.digest(out) if op.digest else None, ok))
    return first_index + len(workload.ops)


def judge(workload, records):
    """Per-op verdicts combined with the workload's aggregate check."""
    bad = workload.judge_all(records)
    for idx in bad:
        records[idx].ok = False
    return sum(not r.ok for r in records)


def percentile(values, q):
    """The q-th percentile, linear between order statistics."""
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]


def set_up(name, gen, seed, workdir):
    """Build the workload SETUP_REPEATS times (inputs, files, references,
    one warm-up op each); returns the last build and the times."""
    import workloads

    times, wl = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = workloads.BUILDERS[name](gen, seed, workdir)
        warm = wl.ops[0]
        warm.check(warm.run(0), warm.expected)
        times.append(time.perf_counter() - start)
    return wl, times


def measure(name, seed, seconds, gen, workdir):
    wl, setup_times = set_up(name, gen, seed, workdir)
    min_ops = math.ceil(TAIL_BEYOND * 100 / (100 - wl.tail_percentile))
    records, i, cycles = [], 0, 0
    host = HostSpeed()
    start = time.perf_counter()
    while len(records) < min_ops or time.perf_counter() - start < seconds:
        i = run_cycle(wl, i, records, host=host)
        cycles += 1
    host.calibrate()
    failed = judge(wl, records)
    n = len(records)
    scale = host.scale()
    raw = [rec.latency for rec in records]
    lat = [t * scale for t in raw]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ops_per_s": n / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": percentile(lat, wl.tail_percentile) * 1e3,
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setup_times) * scale,
        "success_rate": 1 - failed / n,
    }
    by_label = {}
    for rec in records:
        by_label.setdefault(rec.op.label, []).append(rec.latency * 1e3)
    info = {"ops": n, "cycles": cycles, "ops_per_cycle": len(wl.ops),
            "tail_percentile": wl.tail_percentile, "error_rate": failed / n,
            "host_scale": scale, "reference_work_runs": len(host.times),
            "raw_setup_runs_s": setup_times,
            "raw_ops_per_s": n / sum(raw), "raw_op_p50_ms": statistics.median(raw) * 1e3,
            "raw_op_tail_ms": percentile(raw, wl.tail_percentile) * 1e3,
            "raw_median_ms_by_op": {k: round(statistics.median(v), 3)
                                    for k, v in by_label.items()}}
    return metrics, END_TO_END, n, failed, info


def measure_traced(name, seed, seconds, gen, workdir):
    """One untraced cycle, then the same cycle traced: counts repeat
    exactly between runs, and the two rates give the tracing overhead."""
    from tracing import Tracer, metric_units

    wl, setup_times = set_up(name, gen, seed, workdir)
    plain = []
    run_cycle(wl, 0, plain)
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        run_cycle(wl, 0, traced, tracer)
    finally:
        tracer.uninstall()
    failed = judge(wl, plain) + judge(wl, traced)
    metrics = tracer.layer_metrics()
    untraced = len(plain) / sum(r.latency for r in plain)
    with_trace = len(traced) / sum(r.latency for r in traced)
    metrics["trace.untraced_ops_per_s"] = untraced
    metrics["trace.traced_ops_per_s"] = with_trace
    metrics["trace.overhead_ops_per_s"] = untraced - with_trace
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{name}.jsonl"
    tracer.write(span_file)
    info = {"ops": len(plain) + len(traced), "spans": len(tracer.spans),
            "span_file": str(span_file.relative_to(ROOT)),
            "error_rate": failed / (len(plain) + len(traced)),
            "setup_runs_s": setup_times}
    return metrics, metric_units(), len(plain) + len(traced), failed, info


def run_one(args):
    gen = load_program()
    env = environment()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        fn = measure_traced if args.trace else measure
        metrics, units, attempted, failed, info = fn(
            args.workload, args.seed, args.seconds, gen, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["process_threads_end"] = os_threads()
    print(f"env {json.dumps(env)}")
    print(f"run {json.dumps({'workload': args.workload, 'seed': args.seed, 'seconds': args.seconds, 'trace': args.trace} | info)}")
    for key, unit in units.items():
        print(f"  {key:<48} {metrics[key]:>16.6g} {unit}")
    if not args.trace:
        print(f"  {'error_rate':<48} {info['error_rate']:>16.6g} ratio")
        print(f"  (op_tail_ms is p{info['tail_percentile']} over {info['ops']} ops)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
