"""What the benchmark's metrics mean, and which layer moves which.

Names, units, directions and bounds are in BENCHMARK.json, the one place
they are defined; run.py reports exactly the metrics listed there.

End-to-end metrics, measured with tracing off:

- solution_s: seconds of one operation to a checked solution, median over
  the run: one march(spec, mesh, tol=1e-12) on the march workloads
  (printed as march_s), one solve from a zero guess on solve-large
  (printed as solve_s).  Wall seconds rescaled to a reference host speed
  by speed probes taken between the timed segments (see
  workloads.SegmentClock); the raw wall medians are printed and kept in
  the result file.
- setup_s: (spec, mesh) to a ready solver, rescaled like solution_s:
  the median over the run of samples that each time a batch of set-ups
  run back to back (workloads.SETUP_SAMPLE_S) and report their mean.
- l2_error: final-time L2 error against the exact solution on the marches,
  deterministic, so a faster but less accurate scheme shows here.  On
  solve-large the error ||x - u|| / ||u|| of a solve is rounding-level and
  moves with any change of the solver's arithmetic, so the metric reads
  the check's limit, workloads.SOLVE_ERROR_LIMIT, unless the median error
  exceeds it; the measured median is printed.
- peak_rss_mb: peak resident memory of the process that runs the workload.

Per-layer metrics come from the traced run.  Counts and seconds are for
one set-up plus one operation (a march contains its own set-up); layer
seconds are wall seconds inside the spans, not rescaled; step times are
rescaled like the end-to-end timings; timestepper.step_ms.phigh is the
highest percentile with at least ten step samples beyond it.
solve.checked and solve.false_converged are totals over the traced
operations: solves whose true relres was recomputed from outside, and
those of them that reported convergence with a true relres above tol.
"""

# Which end-to-end metric each layer's metrics should move, and on which
# workloads, written down before any optimisation so that later changes
# can cite it by name.
LAYER_MAP = {
    "problem": {
        "metrics": ["problem.source.calls", "problem.source.points",
                    "problem.source.s"],
        "moves": ["solution_s"],
        "workloads": ["march-tau-h", "march-tau-h2"]},
    "assembly.source": {
        "metrics": ["assembly.source_moment.calls",
                    "assembly.source_moment.s",
                    "assembly.source_moment.self_s"],
        "moves": ["solution_s"],
        "workloads": ["march-tau-h", "march-tau-h2"]},
    "assembly.memory": {
        "metrics": ["assembly.rhs_vector.self_s",
                    "assembly.history_weight.calls",
                    "assembly.history_weight.s"],
        "moves": ["solution_s"],
        "workloads": ["march-tau-h2", "march-graded"]},
    "assembly.step_matrix": {
        "metrics": ["assembly.step_matrix.calls", "assembly.step_matrix.s"],
        "moves": ["setup_s", "solution_s"],
        "workloads": ["march-tau-h", "march-tau-h2", "march-graded",
                      "solve-large"]},
    "toeplitz": {
        "metrics": ["toeplitz.matvec.calls", "toeplitz.matvec.s",
                    "toeplitz.symbols_built"],
        "moves": ["solution_s"],
        "workloads": ["solve-large", "march-tau-h"]},
    "solvers.cg": {
        "metrics": ["solvers.cg.calls", "solvers.cg.iterations",
                    "solvers.cg.s"],
        "moves": ["solution_s"],
        "workloads": ["march-tau-h2", "march-graded"]},
    "solvers.smoother": {
        "metrics": ["solvers.cf_jacobi_sweep.calls",
                    "solvers.cf_jacobi_sweep.self_s"],
        "moves": ["solution_s"],
        "workloads": ["solve-large", "march-tau-h"]},
    "amg.setup": {
        "metrics": ["amg.setup.calls", "amg.setup.s", "amg.levels",
                    "amg.stored_entries"],
        "moves": ["setup_s", "solution_s"],
        "workloads": ["solve-large", "march-graded"]},
    "amg.solve": {
        "metrics": ["amg.solve.calls", "amg.solve.s", "amg.cycles",
                    "amg.cycles_per_solve",
                    "amg.vcycle.self_s", "amg.transfer.s",
                    "amg.coarse_solve.s"],
        "moves": ["solution_s"],
        "workloads": ["solve-large", "march-tau-h"]},
    "amg.branch": {
        "metrics": ["amg.branch.cg_share"],
        "moves": ["solution_s"],
        "workloads": ["march-graded"]},
    "timestepper": {
        "metrics": ["timestepper.steps", "timestepper.step_ms.p50",
                    "timestepper.step_ms.phigh",
                    "timestepper.step_ms.samples"],
        "moves": ["solution_s"],
        "workloads": ["march-tau-h", "march-tau-h2", "march-graded"]},
    "solve.check": {
        "metrics": ["solve.checked", "solve.false_converged"],
        "moves": ["fail_share"],
        "workloads": ["march-tau-h", "march-tau-h2", "march-graded",
                      "solve-large"]},
    "trace": {
        "metrics": ["trace.overhead", "trace.absent_layers"],
        "moves": [],
        "workloads": ["march-tau-h", "march-tau-h2", "march-graded",
                      "solve-large"]},
}
