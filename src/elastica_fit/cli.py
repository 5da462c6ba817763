"""Command line front end.

Parses a curve JSON file and the options, calls the segmentation module and
writes its report with json.dumps (stdout or --out) and, under --svg only,
an SVG overlay: the sampled target, then each piece's initial guess and,
except in guess mode, its fit.  Guess mode reports segmentation's guess step
as a 0-iteration result; fit mode is fit_piecewise on one piece (depth 0,
any R4), and reports that piece's record; piecewise mode reports every
leaf's record with the breakpoints and join gaps.

Exit codes: 0 success, 2 parse error, 3 degenerate input or a curve outside
the numeric range, 4 unconverged fit (the report is still written).
"""

import argparse
import json
import math
import sys

import numpy as np

from .curve import DEFAULT_SAMPLES, load_curve, sample
from .elastica import PARAM_NAMES, segment_eval_many
from .errors import DegenerateInputError, DomainError
from .recovery import initial_guess
from .segmentation import _guess_result, fit_piecewise
from .svg import write_svg

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_UNCONVERGED = 4

MODES = ("guess", "fit", "piecewise")


def _segment_record(rep, res):
    return {
        "params": dict(zip(PARAM_NAMES, map(float, res.params.as_array()))),
        "residuals": {"R1": rep.R1, "R2": rep.R2, "R3": rep.R3,
                      "R4_init": rep.R4, "R4_opt": res.r4},
        "grad_norm": res.grad_norm,
        "iterations": res.iterations,
        "converged": res.converged,
        "inflectional": rep.inflectional,
        "n_segments": rep.n_segments,
        "degenerate": rep.degenerate,
    }


def run(config: argparse.Namespace) -> int:
    """Execute one pipeline run with build_parser's options; returns the
    process exit code."""
    try:
        curve = load_curve(config.input)
    except (OSError, ValueError) as exc:
        # DomainError subclasses ValueError; malformed JSON does too
        print(f"error: cannot read curve: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        if config.mode == "guess":
            smp = sample(curve, config.samples)
            rep = initial_guess(smp)
            pieces = [(rep, _guess_result(rep, smp))]
        else:
            # fit mode is piecewise mode on one piece that meets any R4
            single = config.mode == "fit"
            constraints = ("endpoints+tangents" if config.tangents
                           else "endpoints" if config.endpoints or not single
                           else "none")
            pw = fit_piecewise(
                curve,
                r4_threshold=math.inf if single else config.r4_threshold,
                max_depth=0 if single else config.max_depth,
                constraints=constraints, n_samples=config.samples,
                max_iter=config.max_iter)
            pieces = list(zip(pw.guesses, pw.segments))
        records = [_segment_record(*piece) for piece in pieces]
        report = records[0] if config.mode != "piecewise" else {
            "breakpoints": pw.breakpoints,
            "segments": records,
            "join_continuity": [
                {"position_gap": j.position_gap, "tangent_gap": j.tangent_gap}
                for j in pw.join_continuity],
            "threshold_met": pw.threshold_met,
        }
        if config.svg:
            ts = np.linspace(0.0, 1.0, 257)
            layers = [(sample(curve, config.samples).points, "target")]
            for rep, res in pieces:
                layers.append((segment_eval_many(rep.params, ts), "guess"))
                if config.mode != "guess":
                    layers.append((segment_eval_many(res.params, ts), "fit"))
    except DegenerateInputError as exc:
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ArithmeticError as exc:
        print(f"error: outside the numeric range: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    text = json.dumps(report) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if config.svg:
        write_svg(config.svg, layers)
    if all(res.converged for _, res in pieces):
        return EXIT_OK
    return EXIT_UNCONVERGED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="elastica-fit",
        description="Approximate planar curves by Euler elastica.")
    ap.add_argument("input", help="curve JSON file (bezier or polyline)")
    ap.add_argument("--mode", choices=MODES, default="fit")
    ap.add_argument("--endpoints", action="store_true",
                    help="constrain the fitted endpoints to the target's")
    ap.add_argument("--tangents", action="store_true",
                    help="also constrain the end tangent directions")
    ap.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                    metavar="N")
    ap.add_argument("--r4-threshold", type=float, default=1e-3, metavar="X",
                    help="per-segment R4 target for piecewise mode")
    ap.add_argument("--max-depth", type=int, default=3, metavar="D",
                    help="maximum bisection depth for piecewise mode")
    ap.add_argument("--max-iter", type=int, default=1000, metavar="M")
    ap.add_argument("--out", metavar="report.json",
                    help="report path (default: stdout)")
    ap.add_argument("--svg", metavar="out.svg",
                    help="write an SVG overlay plot")
    return ap


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
