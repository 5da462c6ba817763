"""Command line front end.

Reads a curve JSON file, runs the guess / fit / piecewise pipeline, writes a
JSON report (stdout or --out) and an optional SVG overlay of the target,
initial guess, and optimized curves.

Exit codes: 0 success, 2 parse error, 3 degenerate input, 4 unconverged fit
(the report is still written).
"""

import argparse
import json
import sys

import numpy as np

from .curve import DEFAULT_SAMPLES, load_curve, sample
from .elastica import K_MIN, PARAM_NAMES, segment_eval_many
from .errors import DegenerateInputError, DomainError
from .fitting import FitResult, gradient_hessian, residual_r4
from .recovery import initial_guess
from .segmentation import _fit_piece, fit_piecewise
from .svg import write_svg

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_UNCONVERGED = 4

MODES = ("guess", "fit", "piecewise")


def _json_fragment(obj) -> str:
    """Serialize a report with floats at 17 significant digits."""
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return f"{obj:.17g}"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_json_fragment(v)}"
                          for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_fragment(v) for v in obj) + "]"
    return _json_fragment(float(obj))


def _params_dict(params):
    return dict(zip(PARAM_NAMES, (float(v) for v in params.as_array())))


def _segment_record(rep, res, r4_opt):
    return {
        "params": _params_dict(res.params),
        "residuals": {"R1": rep.R1, "R2": rep.R2, "R3": rep.R3,
                      "R4_init": rep.R4, "R4_opt": r4_opt},
        "grad_norm": res.grad_norm,
        "iterations": res.iterations,
        "converged": res.converged,
        "inflectional": rep.inflectional,
        "n_segments": rep.n_segments,
        "reversed_input": rep.reversed_input,
        "degenerate": rep.degenerate,
    }


def _elastica_polyline(params, n=257):
    return segment_eval_many(params, np.linspace(0.0, 1.0, n))


def _guess_result(rep, target) -> FitResult:
    """The initial guess as a converged fit of zero iterations."""
    grad_norm = 0.0
    if rep.params.k >= K_MIN:
        g, _ = gradient_hessian(rep.params, target)
        grad_norm = float(np.linalg.norm(g))
    # R4 = sqrt(2 F / L^3)
    return FitResult(params=rep.params,
                     objective=0.5 * rep.R4 ** 2 * target.length ** 3,
                     grad_norm=grad_norm, iterations=0, converged=True)


def run(config: argparse.Namespace) -> int:
    """Execute one pipeline run with build_parser's options; returns the
    process exit code."""
    try:
        curve = load_curve(config.input)
    except (OSError, ValueError) as exc:
        # DomainError subclasses ValueError; malformed JSON does too
        print(f"error: cannot read curve: {exc}", file=sys.stderr)
        return EXIT_PARSE

    status = EXIT_OK
    layers = []
    try:
        if config.mode == "piecewise":
            pw = fit_piecewise(
                curve, r4_threshold=config.r4_threshold,
                max_depth=config.max_depth,
                constraints="endpoints+tangents" if config.tangents
                else "endpoints",
                n_samples=config.samples, max_iter=config.max_iter)
            report = {
                "breakpoints": list(pw.breakpoints),
                "segments": [
                    _segment_record(rep, res, r4)
                    for rep, res, r4 in zip(pw.guesses, pw.segments, pw.r4)],
                "join_continuity": [
                    {"position_gap": j.position_gap,
                     "tangent_gap": j.tangent_gap}
                    for j in pw.join_continuity],
                "threshold_met": pw.threshold_met,
            }
            if not all(res.converged for res in pw.segments):
                status = EXIT_UNCONVERGED
            layers.append((sample(curve, config.samples).points, "target"))
            for rep, res in zip(pw.guesses, pw.segments):
                layers.append((_elastica_polyline(rep.params), "guess"))
                layers.append((_elastica_polyline(res.params), "fit"))
        elif config.mode == "fit":
            constraints = ("endpoints+tangents" if config.tangents
                           else "endpoints" if config.endpoints else "none")
            rep, res, target = _fit_piece(sample(curve, config.samples),
                                          constraints, config.max_iter)
            report = _segment_record(rep, res,
                                     residual_r4(res.params, target))
            if not res.converged:
                status = EXIT_UNCONVERGED
            layers = [(target.points, "target"),
                      (_elastica_polyline(rep.params), "guess"),
                      (_elastica_polyline(res.params), "fit")]
        else:
            smp = sample(curve, config.samples)
            rep = initial_guess(smp)
            target = smp.reversed() if rep.reversed_input else smp
            report = _segment_record(rep, _guess_result(rep, target), rep.R4)
            layers = [(target.points, "target"),
                      (_elastica_polyline(rep.params), "guess")]
    except DegenerateInputError as exc:
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    text = _json_fragment(report) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if config.svg:
        write_svg(config.svg, layers)
    return status


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
