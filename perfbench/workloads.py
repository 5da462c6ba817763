"""The benchmark's workloads: seeded inputs, the call into elastica_fit and
the check of every output.

A workload yields its inputs in blocks.  ``corpus_fit`` and ``piecewise_g1``
have one fixed block (the seeded corpus curves) that a run repeats while its
time lasts; ``guess_mix`` draws fresh blocks of a fixed mix from the seed.
The first ``min_blocks`` blocks are the workload's fixed input set: every run
processes them, the traced run processes exactly them, and ``r4_geomean``
is taken over them.

The package is reached through its module objects (``curve.sample``), never
through names bound at import, so the traced run sees every call.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from elastica_fit import curve, elastica, elliptic, fitting, recovery, \
    segmentation

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: why the seed code rejects an input that it should handle
COINCIDENT_HANDLE = ("a Bezier with a retracted handle is regular but is "
                     "rejected as a cusp (ROADMAP item 5)")
STRAIGHT_POLYLINE = ("a straight polyline raises 'singular curvature moment "
                     "system' instead of the 'line' outcome (ROADMAP item 5)")


@dataclass
class Case:
    """One input curve and what its check needs to know."""

    id: str
    kind: str
    curve: object
    truth: Optional[object] = None
    in_r4_subset: bool = False
    known_defect: Optional[str] = None


@dataclass
class Outcome:
    """The program's output for one curve, reduced to what is recorded."""

    result: object
    r4: float
    guess_r4: float
    fits: int = 0
    iterations: int = 0
    max_fit_iterations: int = 0
    capped: int = 0


def similarity(rng, points):
    """Rotate, scale (0.5-2, log-uniform) and translate control points."""
    a = rng.uniform(0.0, 2.0 * math.pi)
    c = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    shift = rng.uniform(-3.0, 3.0, size=2)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    return c * np.asarray(points, dtype=float) @ rot.T + shift


def corpus_curves(names, seed):
    rng = np.random.default_rng(seed)
    out = []
    for name in names:
        doc = json.loads((CORPUS_DIR / f"{name}.json").read_text())
        pieces = similarity(rng, doc["bezier"])
        out.append(Case(id=name, kind="corpus",
                        curve=curve.BezierChain(pieces), in_r4_subset=True))
    return out


def _finite_params(p):
    return all(math.isfinite(v) for v in p.as_array())


# ---------------------------------------------------------------------------
# corpus_fit

class CorpusFit:
    """Every corpus curve: sample, initial guess, free fit (criterion 6)."""

    name = "corpus_fit"
    n_samples = 256
    max_iter = 600
    min_blocks = 1
    TINY = ["s_curve_deep", "wave_two_lobe"]

    def __init__(self, tiny=False):
        self.names = self.TINY if tiny else sorted(
            p.stem for p in CORPUS_DIR.glob("*.json"))

    def blocks(self, seed):
        cases = corpus_curves(self.names, seed)
        while True:
            yield cases

    def solve(self, case):
        smp = curve.sample(case.curve, self.n_samples)
        rep = recovery.initial_guess(smp)
        tgt = smp.reversed() if rep.reversed_input else smp
        res = fitting.fit(fitting.FitProblem(target=tgt, init=rep.params,
                                             max_iter=self.max_iter))
        return Outcome(result=res, r4=fitting.residual_r4(res.params, tgt),
                       guess_r4=rep.R4, fits=1, iterations=res.iterations,
                       max_fit_iterations=res.iterations,
                       capped=int(res.iterations >= self.max_iter))

    def check(self, case, out):
        bad = []
        if not (_finite_params(out.result.params) and math.isfinite(out.r4)):
            bad.append("finite")
        if not out.r4 <= out.guess_r4 + 1e-12:
            bad.append("r4_le_guess")
        if not out.r4 <= 0.1:
            bad.append("r4_le_0.1")
        return bad


# ---------------------------------------------------------------------------
# piecewise_g1

class PiecewiseG1:
    """Multi-lobe corpus curves through G1-constrained fit_piecewise."""

    name = "piecewise_g1"
    n_samples = 256
    max_iter = 200
    min_blocks = 1
    NAMES = ["loop", "s_curve_deep"]
    TINY = ["loop"]

    def __init__(self, tiny=False):
        self.names = self.TINY if tiny else self.NAMES

    def blocks(self, seed):
        cases = corpus_curves(self.names, seed)
        while True:
            yield cases

    def solve(self, case):
        pw = segmentation.fit_piecewise(
            case.curve, r4_threshold=1e-3, max_depth=3,
            constraints="endpoints+tangents", n_samples=self.n_samples,
            max_iter=self.max_iter)
        its = [s.iterations for s in pw.segments]
        return Outcome(result=pw, r4=pw.max_r4, guess_r4=math.nan,
                       fits=len(its), iterations=sum(its),
                       max_fit_iterations=max(its),
                       capped=sum(i >= self.max_iter for i in its))

    def check(self, case, out):
        pw = out.result
        bad = []
        b = pw.breakpoints
        if not (b[0] == 0.0 and b[-1] == 1.0
                and all(x < y for x, y in zip(b, b[1:]))
                and len(b) == len(pw.segments) + 1):
            bad.append("breakpoints_increasing")
        if not all(j.position_gap <= 1e-10 for j in pw.join_continuity):
            bad.append("join_position_gap")
        if not all(j.tangent_gap <= 1e-8 for j in pw.join_continuity):
            bad.append("join_tangent_gap")
        if not math.isfinite(out.r4):
            bad.append("finite")
        return bad


# ---------------------------------------------------------------------------
# guess_mix

def _chain_shape(rng, pieces):
    """Per piece: turn of the tangent, chord direction offset, handles."""
    return np.array([[rng.uniform(-1.2, 1.2), rng.uniform(-0.2, 0.2),
                      rng.uniform(0.25, 0.45), rng.uniform(0.25, 0.45)]
                     for _ in range(pieces)])


#: the shapes of the Bezier chains (1-3 pieces) and of the curves under the
#: noisy polylines (1-2 pieces); a seed jitters and poses them, so that every
#: seed's fixed set spans the same range of shapes
_TEMPLATE_RNG = np.random.default_rng(1509)
BEZIER_SHAPES = [_chain_shape(_TEMPLATE_RNG, int(_TEMPLATE_RNG.integers(1, 4)))
                 for _ in range(40)]
POLYLINE_SHAPES = [_chain_shape(_TEMPLATE_RNG,
                                int(_TEMPLATE_RNG.integers(1, 3)))
                   for _ in range(24)]
SHAPE_JITTER = np.array([0.03, 0.015, 0.01, 0.01])

#: RMS of the noise added to the polyline vertices (shapes have unit chords)
POLYLINE_NOISE = 2e-3


def _g1_bezier_chain(shape):
    """A smooth chain of unit-chord pieces; each piece leaves along the
    previous piece's end tangent."""
    p0 = np.zeros(2)
    h0 = 0.0
    out = []
    for turn, chord_off, a, b in shape:
        h1 = h0 + turn
        chord = h0 + 0.5 * turn + chord_off
        p3 = p0 + np.array([math.cos(chord), math.sin(chord)])
        p1 = p0 + a * np.array([math.cos(h0), math.sin(h0)])
        p2 = p3 - b * np.array([math.cos(h1), math.sin(h1)])
        out.append([p0, p1, p2, p3])
        p0, h0 = p3, h1
    return np.array(out)


def _jittered(rng, shape):
    return shape + rng.uniform(-1.0, 1.0, size=shape.shape) * SHAPE_JITTER


def _ground_truth(rng, i):
    """Random elastica parameters as in acceptance criterion 4: k on both
    sides of 1 (alternating), 1 to 4 monotone runs of u."""
    k = rng.uniform(0.2, 0.95) if i % 2 == 0 else rng.uniform(1.05, 1.9)
    half = 2.0 * elliptic.quarter_period(k)
    f0 = rng.uniform(0.05, 0.95)
    n_seg = 1 + i % 4
    f1 = rng.uniform(0.05, 0.95)
    ell = (n_seg - 1 + f1 - f0) * half
    if ell < 0.1 * half:
        ell += half
    return elastica.ElasticaParams(
        k=k, s0=(i % 2 + f0) * half, ell=ell, w=rng.uniform(0.5, 2.0),
        phi=rng.uniform(-math.pi, math.pi),
        x0=rng.uniform(-2.0, 2.0), y0=rng.uniform(-2.0, 2.0))


#: one block of guess_mix, in order: 10 Bezier chains (B), 6 noisy
#: polylines (P), 7 exact elastica (E), 1 coincident-handle Bezier (K) and
#: 1 straight polyline (L)
MIX = "BPEBPEBEBPBEKBPEBPEBLBPEB"


class GuessMix:
    """sample + initial_guess only, on a fixed mix of seeded curves."""

    name = "guess_mix"
    n_samples = 1024
    min_blocks = 4

    def __init__(self, tiny=False):
        self.mix = "BPEKL" if tiny else MIX
        self.min_blocks = 1 if tiny else GuessMix.min_blocks

    def blocks(self, seed):
        rng = np.random.default_rng(seed)
        count = dict.fromkeys(self.mix, 0)
        b = 0
        while True:
            block = []
            for j, kind in enumerate(self.mix):
                block.append(self._make(rng, kind, f"{b:03d}.{j:02d}",
                                        b < self.min_blocks, count[kind]))
                count[kind] += 1
            yield block
            b += 1

    def _make(self, rng, kind, cid, fixed, i):
        """The i-th curve of its kind in the stream."""
        if kind == "B":
            shape = _jittered(rng, BEZIER_SHAPES[i % len(BEZIER_SHAPES)])
            return Case(cid, "bezier", curve.BezierChain(
                similarity(rng, _g1_bezier_chain(shape))),
                in_r4_subset=fixed)
        if kind == "P":
            shape = _jittered(rng, POLYLINE_SHAPES[i % len(POLYLINE_SHAPES)])
            chain = curve.BezierChain(_g1_bezier_chain(shape))
            verts = np.array([chain.point(t)
                              for t in np.linspace(0.0, 1.0, 49)])
            noise = rng.normal(0.0, 1.0, size=verts.shape)
            verts += POLYLINE_NOISE * noise / np.sqrt(np.mean(noise ** 2))
            return Case(cid, "noisy_polyline", curve.Polyline(
                similarity(rng, verts)), in_r4_subset=fixed)
        if kind == "E":
            p = _ground_truth(rng, i)
            return Case(cid, "elastica", elastica.ElasticaCurve(p), truth=p)
        if kind == "K":
            pieces = _g1_bezier_chain(_chain_shape(rng, 1))
            end = int(rng.integers(0, 2))
            pieces[0, 1 + end] = pieces[0, 3 * end]
            return Case(cid, "coincident_handle", curve.BezierChain(
                similarity(rng, pieces)), known_defect=COINCIDENT_HANDLE)
        # unevenly spaced points on a coordinate axis, like the input that
        # ROADMAP item 5 reports
        ts = np.sort(rng.uniform(0.0, 1.0, size=int(rng.integers(3, 12))))
        x = rng.uniform(-3.0, 3.0) + rng.choice([-1.0, 1.0]) * math.exp(
            rng.uniform(math.log(0.5), math.log(2.0))) * np.concatenate(
            [[0.0], ts, [1.0]])
        pts = np.zeros((len(x), 2))
        pts[:, int(rng.integers(0, 2))] = x
        return Case(cid, "straight_polyline", curve.Polyline(pts),
                    known_defect=STRAIGHT_POLYLINE)

    def solve(self, case):
        smp = curve.sample(case.curve, self.n_samples)
        rep = recovery.initial_guess(smp)
        return Outcome(result=rep, r4=rep.R4, guess_r4=rep.R4)

    def check(self, case, out):
        rep = out.result
        if case.kind == "straight_polyline":
            return [] if rep.degenerate == "line" else ["degenerate_line"]
        bad = []
        if not (_finite_params(rep.params) and math.isfinite(rep.R4)):
            bad.append("finite")
        if rep.degenerate is not None:
            bad.append("not_degenerate")
        if case.truth is not None:
            bad.extend(_truth_check(rep, case.truth))
        return bad


def _truth_check(rep, p):
    """Acceptance criterion 4's tolerances against the ground truth."""
    q = rep.params
    dphi = (q.phi - p.phi + math.pi) % (2 * math.pi) - math.pi
    errs = {
        "truth.k": (abs(q.k - p.k), 1e-4),
        "truth.w": (abs(q.w - p.w), 1e-4),
        "truth.phi": (abs(dphi), 1e-4),
        "truth.s0": (abs(q.s0 - p.s0), 1e-3),
        "truth.ell": (abs(q.ell - p.ell), 1e-3),
        "truth.xy": (math.hypot(q.x0 - p.x0, q.y0 - p.y0) / p.length, 1e-4),
        "truth.R1": (rep.R1, 1e-5),
        "truth.R2": (rep.R2, 1e-5),
    }
    bad = [n for n, (e, tol) in errs.items() if not e <= tol]
    if rep.R3 != 0.0:
        bad.append("truth.R3")
    return bad


WORKLOADS = {w.name: w for w in (CorpusFit, PiecewiseG1, GuessMix)}
