"""How the fits end on seeded random curves: a convergence census.

    PYTHONPATH=src python tools/convergence_census.py [--seed N] [--quick]

One numpy.random.default_rng(seed) draws every curve: 300, or 40 with
--quick.  Each is, with equal odds, a cubic Bezier of four N(0, 1) control
points; a two-piece Bezier chain whose second piece starts at the first's
end with a handle 0.7 times the first piece's last leg (G1); or a polyline
of 3 to 8 points, the cumulative sum of N(0, 1) steps.  Each curve is
sampled at 256 and guessed with initial_guess; a guess that is not
degenerate is fitted in every constraint mode with max_iter 1000.  Each
curve is also run through fit_piecewise(curve, 1e-3, 3,
"endpoints+tangents", 256, 200).

Per mode it prints the converged count, each failure class (the fit's
message, and whether it ends within 1e-4 of k = 1 or elsewhere), the
iterations and the largest k a fit ends at; then the piecewise runs with
an unconverged leaf, and the leaves, unconverged and near k = 1.  300
curves take about 50 s, and 40 about 8 s, on a 2-CPU Linux VM.  It fails
on an exception (and, under PYTHONWARNINGS=error::RuntimeWarning, on a
numpy warning), never on a rate.
"""

import argparse
import os
from collections import Counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from elastica_fit.curve import BezierChain, Polyline, sample  # noqa: E402
from elastica_fit.fitting import (  # noqa: E402
    CONSTRAINT_MODES,
    FitProblem,
    fit,
)
from elastica_fit.recovery import initial_guess  # noqa: E402
from elastica_fit.segmentation import fit_piecewise  # noqa: E402

#: a fit that ends within this of k = 1 is classed "near k = 1"
NEAR_ONE = 1e-4


def curves(seed, n):
    """The census's n curves at seed, in order."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            yield BezierChain([rng.normal(size=(4, 2))])
        elif kind == 1:
            a = rng.normal(size=(4, 2))
            b = rng.normal(size=(4, 2))
            b[0] = a[3]
            b[1] = a[3] + 0.7 * (a[3] - a[2])
            yield BezierChain([a, b])
        else:
            n_points = rng.integers(3, 9)
            yield Polyline(np.cumsum(rng.normal(size=(n_points, 2)), axis=0))


def near_one(res):
    return abs(res.params.k - 1.0) < NEAR_ONE


def outcome(res):
    """"converged", or the failure class: the message and where k ends."""
    if res.converged:
        return "converged"
    return f"{res.message}, {'near k = 1' if near_one(res) else 'elsewhere'}"


def census(seed, n):
    """(degenerate guesses, {mode: Counter of outcomes}, {mode: iterations},
    {mode: largest k}, Counter of piecewise runs and leaves)."""
    degenerate = 0
    outcomes = {mode: Counter() for mode in CONSTRAINT_MODES}
    iterations = Counter()
    largest_k = dict.fromkeys(CONSTRAINT_MODES, 0.0)
    pieces = Counter()
    for curve in curves(seed, n):
        smp = sample(curve, 256)
        rep = initial_guess(smp)
        if rep.degenerate is not None:
            degenerate += 1
        else:
            for mode in CONSTRAINT_MODES:
                res = fit(FitProblem(target=smp, init=rep.params,
                                     constraints=mode, max_iter=1000))
                outcomes[mode][outcome(res)] += 1
                iterations[mode] += res.iterations
                largest_k[mode] = max(largest_k[mode], res.params.k)
        leaves = fit_piecewise(curve, 1e-3, 3, "endpoints+tangents", 256,
                               200).segments
        unconverged = [s for s in leaves if not s.converged]
        pieces["runs with an unconverged leaf"] += bool(unconverged)
        pieces["leaves"] += len(leaves)
        pieces["unconverged leaves"] += len(unconverged)
        pieces["unconverged leaves near k = 1"] += sum(map(near_one,
                                                           unconverged))
    return degenerate, outcomes, iterations, largest_k, pieces


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true", help="40 curves")
    args = ap.parse_args(argv)
    n = 40 if args.quick else 300
    degenerate, outcomes, iterations, largest_k, pieces = census(args.seed, n)
    print(f"seed {args.seed}: {n} curves, {degenerate} degenerate guesses")
    for mode in CONSTRAINT_MODES:
        counts = outcomes[mode]
        print(f"{mode}: {counts.pop('converged', 0)} converged, "
              f"{iterations[mode]} iterations, largest k "
              f"{largest_k[mode]:.6g}")
        for label, count in sorted(counts.items()):
            print(f"  {label}: {count}")
    print("fit_piecewise endpoints+tangents: "
          + ", ".join(f"{label} {count}" for label, count in pieces.items()))


if __name__ == "__main__":
    main()
