"""Benchmark of the mechindep package: one closed-loop client per workload.

Usage, from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload mint-tall --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a separate
traced run that records spans around every public call and reports the
per-layer metrics derived from them. Both print a human-readable report and,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Full results, and the spans of a traced run, are
written under ``.bench_out/``. See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1  # op_tail_s needs one op below the ten beyond it
MIN_TRACED_OPS = 3  # of each kind in a traced run
DIGEST_OPS = 6  # results_digest covers ops 1..DIGEST_OPS, so it is run-length free

# On a shared virtual machine (a 2-vCPU one, where this benchmark was defined)
# the speed drifts by up to about 20% over minutes: the 20-second median of a
# fixed Python loop moves that much, far more than op times vary within a run.
# So every op, and every set-up, is preceded by a fixed reference, a Python
# loop and a LAPACK call, and the bounded times are read at a fixed machine
# speed: each is multiplied by the speed factor measured just before it (a
# running median of three), the geometric mean over the reference parts of
# REFERENCE_S / measured time. Raw wall-clock values are reported beside them.
REFERENCE_S = {"python": 0.0125, "lapack": 0.035}

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "mint.bootstrap_s": "s",
    "mint.refits_per_s": "1/s",
    "mint.noboot_s": "s",
    "mint.permute_s": "s",
    "mint.calibrate_s": "s",
    "features.build_s": "s",
    "estimation.fit_s": "s",
    "dgp.generate_s": "s",
    "io.load_csv_s": "s",
    "io.load_rows_per_s": "rows/s",
    "io.dump_json_s": "s",
    "io.save_csv_s": "s",
    "cli.overhead_s": "s",
    "kernel.bandwidth_s": "s",
    "kernel.gram_pair_s": "s",
    "kernel.statistic_s": "s",
    "kernel.calibrate_s": "s",
    "baselines.transportability_s": "s",
    "trace.overhead_frac": "frac",
}


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ``beyond`` values above it."""
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    if k < 0:
        raise ValueError(f"need more than {beyond} values, got {len(ordered)}")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def results_digest(records) -> str:
    """Hash of (statistic, threshold, reject) of ops 1..DIGEST_OPS, by op index."""
    h = hashlib.sha256()
    for r in sorted(records, key=lambda r: r.op)[:DIGEST_OPS]:
        h.update(f"{r.op} {r.outcome!r}\n".encode())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if k in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads or "default",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "seed": seed,
    }


class Reference:
    """Fixed work timed before each op to track the machine's speed."""

    def __init__(self):
        import numpy

        a = numpy.random.default_rng(0).standard_normal((200, 200))
        self._spd = a @ a.T
        self._eigh = numpy.linalg.eigh
        self.samples = {part: [] for part in REFERENCE_S}
        self.measure()  # the first LAPACK call pays for thread start-up
        self.samples = {part: [] for part in REFERENCE_S}

    def measure(self) -> float:
        """Time the reference once; return the speed factor it implies."""
        t0 = time.perf_counter()
        total = 0.0
        for i in range(200_000):
            total += i * 0.5
        t1 = time.perf_counter()
        for _ in range(10):
            self._eigh(self._spd)
        t2 = time.perf_counter()
        self.samples["python"].append(t1 - t0)
        self.samples["lapack"].append(t2 - t1)
        return math.sqrt(REFERENCE_S["python"] / (t1 - t0) * REFERENCE_S["lapack"] / (t2 - t1))


def run_loop(workload, seconds: float, tracer, traced: bool, reference: Reference | None = None):
    """Closed loop of ops 1, 2, ... for ``seconds`` (and the minimum op counts).

    In a traced run, odd ops run untraced and even ops traced, so the two
    kinds share machine conditions and give the tracing overhead.
    """
    from tracing import NO_TRACE

    records, traced_ops, speeds = [], set(), []
    start = time.perf_counter()
    op = 1
    while True:
        n_traced = len(traced_ops)
        enough = (min(n_traced, len(records) - n_traced) >= MIN_TRACED_OPS) if traced else len(records) >= MIN_OPS
        if enough and time.perf_counter() - start >= seconds:
            break
        use_trace = traced and op % 2 == 0
        if reference is not None:
            speeds.append(reference.measure())
        records.append(workload.run_op(op, tracer if use_trace else NO_TRACE))
        if use_trace:
            traced_ops.add(op)
        op += 1
    return records, traced_ops, speeds


def setup(workload, tracer, import_s: float, reference: Reference | None = None):
    """Set up SETUP_REPEATS times: shared input plus one warm-up op (op 0).

    Returns the set-up times, the speed factor measured before each, and the
    failures seen (a failed CSV round trip or warm-up op).
    """
    from tracing import NO_TRACE

    times, speeds, failures = [], [], []
    for k in range(SETUP_REPEATS):
        if reference is not None:
            speeds.append(reference.measure())
        if tracer.enabled:
            tracer.op = f"setup{k}"
        t0 = time.perf_counter()
        workload.setup(tracer)
        shared_s = time.perf_counter() - t0
        if k == 0:
            try:
                workload.prepare_checks()
            except Exception as exc:
                failures.append(f"setup: {exc!r}")
        warm = workload.run_op(0, NO_TRACE)
        if warm.failure:
            failures.append(f"warm-up op: {warm.failure}")
        times.append(import_s + shared_s + warm.gen_s + warm.op_s)
    return times, speeds, failures


def smoothed(speeds: list[float]) -> list[float]:
    """Running median of three, so one disturbed reference does not skew its op."""
    return [median(speeds[max(0, i - 1):i + 2]) for i in range(len(speeds))]


def _time_metrics(records, setup_times, speeds, setup_speeds) -> tuple[dict, float]:
    """Timing metrics, each op and set-up scaled by its speed factor."""
    speeds = smoothed(speeds)
    op_times = [r.op_s * f for r, f in zip(records, speeds)]
    tail_s, pct = tail(op_times)
    return {
        "op_p50_s": median(op_times),
        "op_tail_s": tail_s,
        "ops_per_s": len(records) / sum((r.gen_s + r.op_s) * f for r, f in zip(records, speeds)),
        "setup_s": median(t * f for t, f in zip(setup_times, setup_speeds)),
    }, pct


def end_to_end(records, setup_times, speeds, setup_speeds) -> tuple[dict, dict]:
    """Bounded metrics, read at reference speed, and the raw wall-clock values."""
    metrics, pct = _time_metrics(records, setup_times, speeds, setup_speeds)
    raw, _ = _time_metrics(records, setup_times, [1.0] * len(records), [1.0] * len(setup_times))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes = {"raw": raw, "median_speed_factor": median(speeds), "op_tail_percentile": pct,
             "ops": len(records)}
    return {m: metrics[m] for m in END_TO_END_UNITS}, notes


def per_layer(workload_name, workload, records, traced_ops, tracer, seed, workdir):
    """Per-layer metrics from spans: native ones from this run, the rest from tiny probes.

    A layer this workload does not pass through is measured by running the
    workload that owns it at its self-test shapes (``tiny``) for a few traced
    ops, and is labelled as a probe.
    """
    from tracing import Tracer
    from workloads import WORKLOADS, make_workload

    metrics = workload.layer_metrics(tracer.seconds_by_op())
    sources = {m: "native" for m in metrics}
    for other in WORKLOADS:
        probe = make_workload(other, seed, workdir, tiny=True)
        missing = probe.native - metrics.keys()
        if other == workload_name or not missing:
            continue
        probe_tracer = Tracer()
        probe_tracer.op = "setup0"
        probe.setup(probe_tracer)
        probe.prepare_checks()
        for op in range(1, MIN_TRACED_OPS + 1):
            rec = probe.run_op(op, probe_tracer)
            if rec.failure:
                raise RuntimeError(f"probe {other} op {op} failed: {rec.failure}")
        found = probe.layer_metrics(probe_tracer.seconds_by_op())
        for m in missing & found.keys():
            metrics[m] = found[m]
            sources[m] = f"probe:{other}-tiny"
    traced = [r.op_s for r in records if r.op in traced_ops]
    plain = [r.op_s for r in records if r.op not in traced_ops]
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    sources["trace.overhead_frac"] = "native"
    return metrics, sources


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mechindep" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'mechindep'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    t0 = time.perf_counter()
    import workloads  # imports mechindep and its submodules
    import_s = time.perf_counter() - t0
    from tracing import NO_TRACE, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        tracer = Tracer() if args.trace else NO_TRACE
        wl = workloads.make_workload(args.workload, args.seed, workdir)
        reference = None if args.trace else Reference()
        setup_times, setup_speeds, failures = setup(wl, tracer, import_s, reference)
        records, traced_ops, speeds = run_loop(wl, args.seconds, tracer, bool(args.trace), reference)
        if args.trace:
            metrics, sources = per_layer(args.workload, wl, records, traced_ops, tracer, args.seed, workdir)
            units = PER_LAYER_UNITS
        else:
            metrics, notes = end_to_end(records, setup_times, speeds, setup_speeds)
            sources = {m: "native" for m in metrics}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r.failure]
    failures += [f"op {r.op}: {r.failure}" for r in failed]
    outcomes = [r.outcome for r in records if r.outcome is not None]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": len(records),
        "failed": len(failed),
        "failed_frac": len(failed) / len(records),
        "reject_frac": sum(o[2] for o in outcomes) / len(outcomes) if outcomes else None,
        "results_digest": results_digest(records),
        "failures": failures[:20],
        "op_seconds": [r.op_s for r in records],
        "metrics": {m: {"value": metrics[m], "unit": units[m], "source": sources[m]} for m in units},
    }
    if not args.trace:
        report.update(notes, speed_factors=speeds, reference_seconds=reference.samples)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{tag}.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    print("environment " + json.dumps(report["environment"]))
    print(f"ops {report['attempted']} attempted, {report['failed']} failed, "
          f"failed_frac {report['failed_frac']:.4g}, reject_frac {report['reject_frac']}, "
          f"results_digest {report['results_digest']} (ops 1-{DIGEST_OPS})")
    if not args.trace:
        print(f"op_tail_s is the p{notes['op_tail_percentile']:.1f} op time of {notes['ops']} ops; "
              f"times are at reference speed, median speed factor {notes['median_speed_factor']:.4f}")
    for failure in failures[:5]:
        print("FAILED " + failure)
    for m in units:
        extra = f"raw {notes['raw'][m]:.6g}" if not args.trace and m in notes["raw"] else sources[m]
        print(f"  {m:30s} {metrics[m]:14.6g} {units[m]:7s} {extra}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
