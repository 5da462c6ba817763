"""Untraced cost of one fit iteration, at several node counts.

    PYTHONPATH=src python tools/iteration_cost.py [--quick]

For 64, 256 and 1024 samples (65, 257 and 1025 nodes) it samples the 12
corpus curves as given, takes their initial guesses, and times each free
fit(max_iter=600) 20 times; then one endpoints+tangents fit (loop_wide at
256 samples).  A fit's time is the minimum of its 20 runs, the one least
disturbed by other load on the machine, and a line's cost per iteration is
the sum of those minima over its total iterations, so the per-fit setup is
spread over the iterations.  The repeats of one FitProblem share its
target's cached unit-length copy (CurveSamples.unit), made on the first
run; code that made that copy on every fit (about 12 us at 257 nodes,
with its cached arrays) reads that much more per fit.  Then, at
shallow_s's converged free fit at 256 samples (257 nodes, on the unit
problem that fit solves), the kernels of an iteration, _jacobi_E on the
nodes first (a fit runs the first-order _zeta_blocks only at the two end
nodes, in pinned restoration): each time is per call, the minimum over
the repeats of 1000 calls; objective takes the basic zeta values there,
as every restored point's F does; _shifted_step takes the model there and
radius 1, the Newton step.  Last, at loop_wide's converged
endpoints+tangents fit at 256 samples, the pinned kernels the same way:
one restoration iterate (_jacobi_E_at and _constraint_values at the end
nodes), one Gauss-Newton step (_segment_partials_arr at the end nodes,
_constraint_jacobian and _row_space), and the pinned _reduced_model; and
that fit's restorations, Gauss-Newton steps and end-node evaluations (the
_jacobi_E_at calls on two nodes), for its start and for its trials.  The
process is pinned to one CPU and BLAS to one thread, as in perfbench.
--quick runs 64 and 256 samples with 3 repeats, as a smoke test.
"""

import argparse
import os
import sys
import time
import timeit

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from elastica_fit.curve import load_curve, sample  # noqa: E402
from elastica_fit import fitting  # noqa: E402
from elastica_fit.elastica import (  # noqa: E402
    _basic_zeta,
    _second_partials_dot,
    _segment_eval_arr,
    _segment_partials_arr,
    _zeta_blocks,
)
from elastica_fit.elliptic import _jacobi_E  # noqa: E402
from elastica_fit.fitting import (  # noqa: E402
    _ENDS,
    FitProblem,
    _align_similarity,
    _constraint_jacobian,
    _constraint_values,
    _jacobi_E_at,
    _reduced_model,
    _row_space,
    _shifted_step,
    _unit_problem,
    fit,
    objective,
)
from elastica_fit.recovery import initial_guess  # noqa: E402

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "corpus")
NAMES = sorted(os.path.splitext(f)[0] for f in os.listdir(CORPUS_DIR))


def min_time(problem, repeats):
    """(the fastest of repeats runs of fit(problem) in s, its result)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = fit(problem)
        best = min(best, time.perf_counter() - t0)
    return best, res


def fits(names, samples, mode, repeats):
    """(summed minimum fit time in s, total iterations) over names."""
    total, iterations = 0.0, 0
    for name in names:
        tgt = sample(load_curve(os.path.join(CORPUS_DIR, name + ".json")),
                     samples)
        problem = FitProblem(target=tgt, init=initial_guess(tgt).params,
                             constraints=mode, max_iter=600)
        s, res = min_time(problem, repeats)
        if not res.converged:
            sys.exit(f"{name} {mode} at {samples} samples: {res.message}")
        total += s
        iterations += res.iterations
    return total, iterations


def per_call(calls, repeats):
    """[(name, time per call in s)] for {name: call}, each the minimum over
    repeats of 1000 calls."""
    return [(name, min(timeit.repeat(f, number=1000, repeat=repeats)) / 1000)
            for name, f in calls.items()]


def kernels(repeats):
    """[(kernel, its time per call in s)] at shallow_s's converged free fit
    at 256 samples, each the minimum over repeats of 1000 calls."""
    tgt = sample(load_curve(os.path.join(CORPUS_DIR, "shallow_s.json")), 256)
    res = fit(FitProblem(target=tgt, init=initial_guess(tgt).params))
    if not res.converged:
        sys.exit(f"shallow_s at 256 samples: {res.message}")
    p, unit = _unit_problem(res.params, tgt)
    q, tau = p.as_array(), unit.tau
    s, jacobi_E = q[1] + q[2] * tau, _jacobi_E_at(q, tau)
    blocks, _ = _zeta_blocks(s, q[0], True, jacobi_E)
    v = unit.weights * (_segment_eval_arr(q, tau, jacobi_E)
                        - unit.complex_points)
    z = _basic_zeta(q, tau, jacobi_E)
    _, b, A, _, _ = _reduced_model(q, unit, "none", jacobi_E)
    calls = {
        "_jacobi_E": lambda: _jacobi_E(s, float(q[0])),
        "_zeta_blocks, first order": lambda: _zeta_blocks(
            s, q[0], False, jacobi_E),
        "_zeta_blocks, second order": lambda: _zeta_blocks(
            s, q[0], True, jacobi_E),
        "_second_partials_dot": lambda: _second_partials_dot(
            v, tau, blocks, p.w, p.phi),
        "_align_similarity": lambda: _align_similarity(q, unit, jacobi_E),
        "objective": lambda: objective(p, unit, z),
        "_shifted_step": lambda: _shifted_step(A, b, 1.0),
        "_reduced_model": lambda: _reduced_model(q, unit, "none", jacobi_E),
    }
    return per_call(calls, repeats)


def restoration_counts(problem):
    """{"start" or "trials": [restorations, Gauss-Newton steps, end-node
    evaluations]} of fit(problem), counted inside fitting._restore; an
    end-node evaluation is a _jacobi_E_at call on two nodes."""
    counts = {"start": [0, 0, 0], "trials": [0, 0, 0]}
    real = {name: getattr(fitting, name)
            for name in ("_restore", "_row_space", "_jacobi_E_at")}
    inside = []

    def restore(q, target, mode, trial=True):
        inside.append("trials" if trial else "start")
        counts[inside[-1]][0] += 1
        try:
            return real["_restore"](q, target, mode, trial)
        finally:
            inside.pop()

    def counter(name, column, nodes=None):
        def counted(*args):
            if inside and (nodes is None or len(args[1]) == nodes):
                counts[inside[-1]][column] += 1
            return real[name](*args)
        return counted

    patches = {"_restore": restore, "_row_space": counter("_row_space", 1),
               "_jacobi_E_at": counter("_jacobi_E_at", 2, nodes=2)}
    for name, f in patches.items():
        setattr(fitting, name, f)
    try:
        fit(problem)
    finally:
        for name, f in real.items():
            setattr(fitting, name, f)
    return counts


def pinned(repeats):
    """([(kernel, its time per call in s)], restoration_counts) at
    loop_wide's converged endpoints+tangents fit at 256 samples."""
    mode = "endpoints+tangents"
    tgt = sample(load_curve(os.path.join(CORPUS_DIR, "loop_wide.json")), 256)
    problem = FitProblem(target=tgt, init=initial_guess(tgt).params,
                         constraints=mode)
    res = fit(problem)
    if not res.converged:
        sys.exit(f"loop_wide {mode} at 256 samples: {res.message}")
    p, unit = _unit_problem(res.params, tgt)
    q = p.as_array()
    ends, jacobi_E = _jacobi_E_at(q, _ENDS), _jacobi_E_at(q, unit.tau)
    partials = _segment_partials_arr(q, _ENDS, False, ends)
    J = _constraint_jacobian(q, mode, False, partials)
    calls = {
        "_jacobi_E_at, end nodes": lambda: _jacobi_E_at(q, _ENDS),
        "_constraint_values": lambda: _constraint_values(q, unit, mode, ends),
        "_segment_partials_arr, end nodes": lambda: _segment_partials_arr(
            q, _ENDS, False, ends),
        "_constraint_jacobian": lambda: _constraint_jacobian(
            q, mode, False, partials),
        "_row_space": lambda: _row_space(J),
        "_reduced_model, pinned": lambda: _reduced_model(
            q, unit, mode, jacobi_E),
    }
    return per_call(calls, repeats), restoration_counts(problem)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    sizes, repeats = ((64, 256), 3) if args.quick else ((64, 256, 1024), 20)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rows = [(f"free, {n + 1} nodes, corpus", fits(NAMES, n, "none", repeats))
            for n in sizes]
    rows.append(("endpoints+tangents, 257 nodes, loop_wide",
                 fits(["loop_wide"], 256, "endpoints+tangents", repeats)))
    print(f"minimum of {repeats} runs per fit")
    for label, (s, it) in rows:
        print(f"{label}: {it} iterations, {1e3 * s:.2f} ms, "
              f"{1e6 * s / it:.1f} us per iteration")
    print(f"kernels at 257 nodes, shallow_s converged, minimum of {repeats} "
          "x 1000 calls")
    for name, s in kernels(repeats):
        print(f"{name}: {1e6 * s:.1f} us")
    times, counts = pinned(repeats)
    print("pinned kernels at 257 nodes, loop_wide endpoints+tangents "
          f"converged, minimum of {repeats} x 1000 calls")
    for name, s in times:
        print(f"{name}: {1e6 * s:.1f} us")
    for side, (restores, steps, ends) in counts.items():
        print(f"loop_wide endpoints+tangents fit, {side}: {restores} "
              f"restorations, {steps} Gauss-Newton steps, {ends} end-node "
              "evaluations")


if __name__ == "__main__":
    main()
