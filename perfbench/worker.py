"""The workload process of the benchmark.

It imports elastica_fit from the checkout's ``src/``, makes one warm-up call
and prints ``ready``; ``run.py`` times set-up up to that line.  Then it runs
one workload as a closed loop, one curve at a time on one thread, and prints
one JSON line with a record per curve.  With ``--trace 1`` it runs the
workload's fixed input set once with every package function wrapped
(``tracer.py``), writes the spans to ``--spans`` and adds the per-layer
metrics.

Run it through ``run.py``; on its own:

    python3 perfbench/worker.py --workload corpus_fit --seed 1 --seconds 20
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

from speed import SpeedProbe, pin_to_one_cpu

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: a traced run re-runs curves untraced for at least this share of its
#: traced wall time, to measure the tracing overhead
OVERHEAD_REFERENCE_SHARE = 0.25


def import_package():
    """Import elastica_fit (and its CLI, so set-up covers every module) from
    this checkout, never from an installed copy."""
    if not (SRC / "elastica_fit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no elastica_fit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import elastica_fit
    import elastica_fit.cli  # noqa: F401
    if Path(elastica_fit.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported elastica_fit from "
                 f"{elastica_fit.__file__}, not from {SRC}")


def warm_up():
    """One small call through sampling, recovery and the Hessian, where a
    JIT backend would compile."""
    from elastica_fit import ElasticaCurve, ElasticaParams, initial_guess, \
        sample
    from elastica_fit.fitting import gradient_hessian
    p = ElasticaParams(0.8, 0.2, 3.0, 1.5, 0.7, 2.0, -1.0)
    smp = sample(ElasticaCurve(p), 64)
    initial_guess(smp)
    gradient_hessian(p, smp)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    """What a result depends on besides the code: results are comparable
    only when ``backend`` is the same."""
    import numpy
    try:
        from elastica_fit import _accel
        backend = "numba" if _accel.NUMBA_ENABLED else "numpy"
    except ImportError:
        backend = "numpy"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# the closed loop

def run_case(workload, case, block, tracer=None):
    """Solve one curve, time it and check the output; never raises for a
    failure of the program, which is recorded instead."""
    rec = {"id": case.id, "kind": case.kind, "block": block,
           "in_r4_subset": case.in_r4_subset and block < workload.min_blocks,
           "known_defect": case.known_defect}
    if tracer is not None:
        tracer.curve_id = f"{block}:{case.id}"
    rec["t0"] = time.perf_counter()
    try:
        out = workload.solve(case)
    except Exception as exc:  # a failing curve must not stop the run
        rec["t1"] = time.perf_counter()
        rec.update(time_s=rec["t1"] - rec["t0"], ok=False,
                   error=type(exc).__name__, message=str(exc)[:200],
                   failed_checks=[])
        return rec
    finally:
        if tracer is not None:
            tracer.curve_id = None
    rec["t1"] = time.perf_counter()
    rec["time_s"] = rec["t1"] - rec["t0"]
    bad = workload.check(case, out)
    rec.update(ok=not bad, error=None, failed_checks=bad,
               r4=out.r4 if math.isfinite(out.r4) else None,
               guess_r4=out.guess_r4 if math.isfinite(out.guess_r4) else None,
               fits=out.fits, iterations=out.iterations,
               max_fit_iterations=out.max_fit_iterations, capped=out.capped)
    return rec


def run_cases(workload, seed, seconds, fixed_only=False, tracer=None):
    """Process whole blocks: always the first ``min_blocks``, then more while
    another block of average length still fits in ``seconds``."""
    cases, records, block_times = [], [], []
    t0 = time.perf_counter()
    for b, block in enumerate(workload.blocks(seed)):
        if b >= workload.min_blocks:
            mean_block = sum(block_times) / len(block_times)
            if fixed_only or time.perf_counter() - t0 + mean_block > seconds:
                break
        tb = time.perf_counter()
        for case in block:
            cases.append(case)
            records.append(run_case(workload, case, b, tracer))
        block_times.append(time.perf_counter() - tb)
    return cases, records, (t0, time.perf_counter())


def run_traced(workload, seed):
    """The fixed input set once under the tracer, then an untraced re-run of
    its first curves for the overhead, compared in calibrated time."""
    from tracer import Tracer, layer_metrics
    with SpeedProbe() as probe:
        tracer = Tracer().install()
        try:
            cases, records, (t0, t1) = run_cases(
                workload, seed, 0.0, fixed_only=True, tracer=tracer)
        finally:
            tracer.uninstall()
        wall = t1 - t0
        pairs = []
        for case, rec in zip(cases, records):
            pairs.append((rec, run_case(workload, case, rec["block"])))
            if sum(r["time_s"] for _, r in pairs) >= \
                    OVERHEAD_REFERENCE_SHARE * wall:
                break
    traced_s, untraced_s = (sum(probe.calibrated(r["t0"], r["t1"])
                                for r in side) for side in zip(*pairs))
    walls = {f"{r['block']}:{r['id']}": r["time_s"] for r in records}
    per_layer = layer_metrics(tracer, walls)
    per_layer["trace.overhead_frac"] = {
        "value": traced_s / untraced_s - 1.0, "unit": "1"}
    slowest = max(walls, key=walls.get)
    by_name, remainder = tracer.curve_breakdown(slowest, walls[slowest])
    breakdown = {"curve": slowest, "wall_s": walls[slowest],
                 "self_s": by_name, "remainder_s": remainder}
    return tracer, records, wall, per_layer, breakdown


def run_calibrated(workload, seed, seconds):
    """The closed loop with the speed probe running; adds each curve's
    calibrated time (``time_cal_s``) and returns the calibrated and raw loop
    times."""
    with SpeedProbe() as probe:
        _, records, (t0, t1) = run_cases(workload, seed, seconds)
    for rec in records:
        rec["time_cal_s"] = probe.calibrated(rec["t0"], rec["t1"])
    return records, probe.calibrated(t0, t1), t1 - t0, len(probe.probes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    pin_to_one_cpu()
    import_package()
    warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](tiny=args.tiny)
    result = {"env": environment()}
    if args.trace:
        tracer, records, wall, per_layer, breakdown = run_traced(
            workload, args.seed)
        if args.spans:
            tracer.write(args.spans)
        result.update(per_layer=per_layer, breakdown=breakdown)
    else:
        records, wall_cal, wall, probes = run_calibrated(
            workload, args.seed, args.seconds)
        result.update(wall_cal_s=wall_cal, probes=probes)
    result.update(records=records, wall_s=wall, peak_rss_mb=resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
