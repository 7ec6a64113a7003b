"""mtfade benchmark: time to a checked solution of a full march, by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload march-tau-h --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --self-test

With --trace 0 the run measures the end-to-end metrics with tracing off;
with --trace 1 it measures a few operations untraced, then traces the rest
and reports the per-layer metrics.  The metrics, their units and the
workloads are those listed in BENCHMARK.json.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Results, with the environment, and traced
spans are written under .perfbench_out/.  The exit code is 1 when an
output is wrong and 2 when mtfade cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"

# Set-up samples per run: some at the start, then a few before each
# operation, so that the samples spread over the run; each sample takes
# about workloads.SETUP_SAMPLE_S seconds.
SETUP_FIRST = 10
SETUP_EACH = 3
SETUP_MAX = 40
# Share of a traced run spent on untraced operations, the base of
# trace.overhead.
UNTRACED_SHARE = 1 / 3


def import_mtfade():
    """Import mtfade from this checkout's src/ and nowhere else.

    Unless the caller chose otherwise, BLAS runs one thread: the solvers
    gain nothing from more, and a spinning second thread on a shared
    two-core host only adds noise.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (SRC / "mtfade" / "__init__.py").is_file():
        print(f"error: no mtfade package under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mtfade
    if SRC not in Path(mtfade.__file__).resolve().parents:
        print(f"error: imported mtfade from {mtfade.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return mtfade


def definitions() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units."""
    return json.loads(BENCHMARK.read_text())


def units(kind: str) -> dict:
    """Metric name -> unit for kind "end_to_end" or "per_layer"."""
    return {m["name"]: m["unit"] for m in definitions()[kind]}


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "fft": "numpy.fft (pocketfft)",
        "thread_env": threads,
        "python_threads": threading.active_count(),
    }


def run_ops(op, deadline):
    """Run op() back to back; stop at the operation that ends nearest the
    deadline.  At least one operation runs."""
    outs, walls = [], []
    while True:
        t0 = time.perf_counter()
        outs.append(op())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(walls) / 2 > deadline:
            return outs


def median(xs):
    return statistics.median(xs) if xs else None


def high_percentile(samples):
    """(label, value) of the highest percentile with at least ten samples
    beyond it, or (None, 0.0) when there are fewer than eleven samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return None, 0.0
    k = n - 11  # ten samples lie above xs[k]
    return f"p{math.floor(100 * (k + 1) / n)}", float(xs[k])


def summarize(outs):
    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    problems = [p for o in outs for p in o.problems]
    return attempted, failed, problems


def execute(workload, seed, seconds, trace, tiny=False):
    """Run one workload; return the result record (no printing)."""
    import workloads
    from spans import Tracer

    w = workloads.WORKLOADS[workload]
    t_start = time.perf_counter()
    case = workloads.Case(w, seed, tiny=tiny)
    op_label = "march_s" if w.kind == "march" else "solve_s"
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "tiny": tiny, "environment": environment()}
    lines = []

    if not trace:
        batch = case.setup_batch()
        setups = [case.time_setup(batch) for _ in range(SETUP_FIRST)]

        def op():
            if len(setups) < SETUP_MAX:
                setups.extend(case.time_setup(batch)
                              for _ in range(SETUP_EACH))
            return case.run()
        outs = run_ops(op, time.perf_counter() + seconds)
        times = [o.seconds for o in outs if not o.failed] or [
            o.seconds for o in outs]
        error = median([o.error for o in outs if o.error == o.error])
        values = {
            "solution_s": median(times),
            "setup_s": median([t for t, _ in setups]),
            # See metrics.py: a solve's error is rounding-level.
            "l2_error": (error if w.kind == "march" or error is None else
                         max(error, workloads.SOLVE_ERROR_LIMIT)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        defined = units("end_to_end")
        label, hi = high_percentile(times)
        tail = (f"{label} {hi:.6g} s" if label else
                f"max {max(times):.6g} s (no percentile has 10 samples "
                f"beyond it)")
        lines += [
            f"  {op_label:<12} {values['solution_s']:.6g} s (solution_s): "
            f"median of {len(times)}, {tail}; wall median "
            f"{median([o.wall for o in outs]):.6g} s, host slowdown "
            f"{median([o.clock.slowdown for o in outs]):.3g}",
            f"  {'setup_s':<12} {values['setup_s']:.6g} s: median of "
            f"{len(setups)} samples of {batch} set-ups each; wall median "
            f"{median([w for _, w in setups]):.6g} s",
        ]
        record["samples"] = {op_label: times,
                             "setup_s": [t for t, _ in setups],
                             "wall_" + op_label: [o.wall for o in outs],
                             "wall_setup_s": [w for _, w in setups],
                             "setup_batch": batch}
    else:
        untraced = run_ops(case.run, t_start + seconds * UNTRACED_SHARE)
        tracer = Tracer()
        op_name = f"op.{w.kind}"
        with tracer.installed(case.spec) as traced_spec:
            if w.kind == "solve":
                with tracer.span("op.setup"):
                    case.set_up_solver()
            traced = run_ops(
                lambda: case.run(traced_spec, tracer.span(op_name)),
                t_start + seconds)
        outs = untraced + traced
        values = tracer.layer_metrics(op_name)
        values["solve.checked"] = float(sum(o.checked for o in traced))
        values["solve.false_converged"] = float(
            sum(o.false_converged for o in traced))
        values["trace.overhead"] = (median([o.seconds for o in traced])
                                    / median([o.seconds for o in untraced]))
        # A march's segments are its steps and then its error evaluation.
        steps = ([o.clock.normalized[:-1] for o in traced]
                 if w.kind == "march" else [])
        step_ms = [1e3 * d for ds in steps for d in ds]
        values.update({
            "timestepper.steps": float(median([len(ds) for ds in steps])
                                       or 0),
            "timestepper.step_ms.p50": median(step_ms) or 0.0,
            "timestepper.step_ms.phigh": high_percentile(step_ms)[1],
            "timestepper.step_ms.samples": float(len(step_ms)),
        })
        defined = units("per_layer")
        OUT.mkdir(exist_ok=True)
        tiny_tag = "-tiny" if tiny else ""
        tracer.save(OUT / f"spans-{workload}{tiny_tag}-seed{seed}.npz",
                    op_name, [[end for _, end in o.clock.marks[:-1]]
                              for o in traced])
        for miss in tracer.missing:
            lines.append(f"  absent: {miss}")
        lines.append(f"  traced {len(traced)} and untraced {len(untraced)} "
                     f"operations; solve.false_converged "
                     f"{values['solve.false_converged']:.0f} of "
                     f"{values['solve.checked']:.0f} solves checked")
        record["samples"] = {"untraced_s": [o.seconds for o in untraced],
                             "traced_s": [o.seconds for o in traced]}

    attempted, failed, problems = summarize(outs)
    correct = failed == 0
    if not trace:
        ref = case.reference
        lines += [
            f"  {'l2_error':<12} {values['l2_error']:.7e}"
            + (f" (reference {ref:.7e})" if ref is not None else "")
            + (f" (median ||x-u||/||u|| {error:.3e})"
               if w.kind == "solve" and error is not None else ""),
            f"  {'fail_share':<12} {failed / attempted:.6g} ({failed} of "
            f"{attempted} {'steps' if w.kind == 'march' else 'solves'} "
            f"failed)",
            f"  {'peak_rss_mb':<12} {values['peak_rss_mb']:.5g} MB",
        ]
    lines += [f"  problem: {p}" for p in problems[:10]]
    metrics = {n: {"value": values[n], "unit": u} for n, u in defined.items()}
    record.update(correct=correct, attempted=attempted, failed=failed,
                  problems=problems, metrics=metrics,
                  wall_s=time.perf_counter() - t_start)
    record["lines"] = lines
    return record


def write_result(record):
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"{record['workload']}-seed{record['seed']}"
                  f"-trace{int(record['trace'])}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from workloads import WORKLOADS
    rows, status = [], 0
    for name in [w["name"] for w in definitions()["workloads"]]:
        w = WORKLOADS[name]
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, check=False)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not out:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 2
        status = max(status, proc.returncode)
        result = json.loads(out[-1])
        rows.append((name, w.kind, result))
    if not args.trace:
        print(f"\n{'workload':<14} {'time to solution':>20} {'setup_s':>12} "
              f"{'l2_error':>13} {'fail_share':>10} {'peak_rss_mb':>11}")
        for name, kind, r in rows:
            m = {k: v["value"] for k, v in r["metrics"].items()}
            label = "march_s" if kind == "march" else "solve_s"
            cell = f"{label} {m['solution_s']:.4f} s"
            print(f"{name:<14} {cell:>20} {m['setup_s']:>10.3e} s "
                  f"{m['l2_error']:>13.6e} {r['failed'] / r['attempted']:>10.3g}"
                  f" {m['peak_rss_mb']:>8.1f} MB")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="measuring time; BENCHMARK.json's run_seconds by "
                        "default")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="run every workload at a tiny size and check the "
                        "metric names, units and output checks")
    args = p.parse_args(argv)

    import_mtfade()
    if args.seconds is None:
        args.seconds = float(definitions()["run_seconds"])
    if args.self_test:
        import selftest
        return selftest.main(execute)
    if args.workload == "all":
        return run_all(args)
    names = [w["name"] for w in definitions()["workloads"]]
    if args.workload not in names:
        p.error(f"--workload must be one of {names} or 'all'")

    record = execute(args.workload, args.seed, args.seconds, args.trace)
    write_result(record)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(record["lines"]))
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
