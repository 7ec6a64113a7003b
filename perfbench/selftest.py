"""Self-test of the benchmark: every workload at a tiny size.

Checks that BENCHMARK.json names the workloads defined here and the
metrics of the layer map, that every metric it lists is reported with its
unit on every workload, that the output checks trip on a perturbed
reference and on a step whose true relres is above tol, and that a missing trace site is reported as absent
instead of crashing the run.  Run with ``python3 perfbench/run.py
--self-test``; it takes well under a minute.
"""

from __future__ import annotations

import math

import workloads
from metrics import LAYER_MAP
from mtfade import timestepper
from run import definitions, units
from spans import SITES, Tracer

SECONDS = 0.2  # one operation per phase at the tiny sizes


class Failures(list):
    def expect(self, ok, what):
        if not ok:
            self.append(what)


def check_metrics(fails, record, defined):
    got = record["metrics"]
    fails.expect(set(got) == set(defined),
                 f"{record['workload']} trace {record['trace']}: metric "
                 f"names differ: {sorted(set(got) ^ set(defined))}")
    for name, unit in defined.items():
        m = got.get(name, {})
        fails.expect(m.get("unit") == unit,
                     f"{record['workload']}: {name} has unit "
                     f"{m.get('unit')!r}, not {unit!r}")
        value = m.get("value")
        fails.expect(isinstance(value, float) and math.isfinite(value),
                     f"{record['workload']}: {name} = {value!r}")


def check_definitions(fails):
    listed = [w["name"] for w in definitions()["workloads"]]
    fails.expect(listed == list(workloads.WORKLOADS),
                 f"BENCHMARK.json lists workloads {listed}, defined are "
                 f"{list(workloads.WORKLOADS)}")
    layer_names = set(units("per_layer"))
    mapped = {m for entry in LAYER_MAP.values() for m in entry["metrics"]}
    fails.expect(mapped == layer_names,
                 f"layer map and per-layer metrics differ: "
                 f"{sorted(mapped ^ layer_names)}")
    for layer, entry in LAYER_MAP.items():
        fails.expect(set(entry["workloads"]) <= set(workloads.WORKLOADS),
                     f"layer map {layer}: unknown workload")


def check_output_checks(fails):
    """The checks must pass on the true reference and trip on a perturbed
    one."""
    w = workloads.WORKLOADS["march-tau-h"]
    case = workloads.Case(w, 0, tiny=True)
    err, n_steps = case.run().error, case.mesh.n_steps
    for ref, want in ((err, 0), (err * (1 + 1e-4), n_steps)):
        out = workloads.Case(w, 0, tiny=True, reference=ref).run()
        fails.expect(out.failed == want,
                     f"march check with reference {ref:.9e}: {out.failed} "
                     f"failed steps, expected {want}")
    fails.expect(out.checked == n_steps,
                 f"{out.checked} of {n_steps} step solves checked")

    result = timestepper.march(case.spec, case.mesh, tol=workloads.TOL)
    relres = [0.0] * n_steps
    relres[1] = 10 * workloads.TOL
    failed, problems = workloads.check_march(result, n_steps, err, relres)
    fails.expect(failed == 1, f"march check with a step above tol: "
                              f"{failed} failed steps, expected 1")

    case = workloads.Case(workloads.WORKLOADS["solve-large"], 0, tiny=True)
    case.set_up_solver()
    u = case.u_base
    b = case.mats.a_full.matvec(u)
    x, report = case.solver.solve(b, tol=workloads.TOL, force="amg")
    for u_ref, want in ((u, 0), (u * (1 + 1e-6), 1)):
        failed, problems, _, _ = workloads.check_solve(case.mats.a_full, b, x,
                                                    u_ref, report)
        fails.expect(failed == want,
                     f"solve check: {failed} failed, expected {want} "
                     f"({problems})")


def check_absent_site(fails):
    case = workloads.Case(workloads.WORKLOADS["march-tau-h2"], 0, tiny=True)
    tracer = Tracer()
    sites = SITES + (("assembly.gone", "mtfade.assembly", "no_such_name"),)
    with tracer.installed(case.spec, sites=sites) as spec:
        out = case.run(spec, tracer.span("op.march"))
    fails.expect(out.failed == 0, "traced march with a missing site failed")
    fails.expect("assembly.gone" in tracer.absent_layers(),
                 "missing site not reported as absent")
    fails.expect(len(out.clock.marks) == case.mesh.n_steps + 1,
                 "march not split into its steps")
    fails.expect(tracer.layer_metrics("op.march")["trace.absent_layers"]
                 == 1, "absent layer not counted")


def main(execute) -> int:
    fails = Failures()
    check_definitions(fails)
    end_to_end, per_layer = units("end_to_end"), units("per_layer")
    for name in workloads.WORKLOADS:
        for trace, defined in ((0, end_to_end), (1, per_layer)):
            record = execute(name, 0, SECONDS, trace, tiny=True)
            fails.expect(record["correct"] and record["failed"] == 0,
                         f"{name} trace {trace}: {record['problems'][:3]}")
            check_metrics(fails, record, defined)
            if trace:
                fails.expect(
                    record["metrics"]["solve.false_converged"]["value"] == 0,
                    f"{name}: false convergence")
        print(f"ok {name}", flush=True)
    check_output_checks(fails)
    check_absent_site(fails)
    for f in fails:
        print(f"FAIL {f}")
    print("self-test " + ("failed" if fails else "passed"))
    return 1 if fails else 0
