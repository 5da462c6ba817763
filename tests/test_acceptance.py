"""Acceptance criteria for the whole pipeline.

Each test prints one "[acceptance] criterion N: PASS/FAIL" line so the
outcome per criterion is visible in the verbose log.
"""

import dataclasses
import glob
import math
import os
import time

import numpy as np
import pytest

from elastica_fit.curve import load_curve, sample
from elastica_fit.elastica import (
    ElasticaCurve,
    ElasticaParams,
    basic_derivatives,
    basic_point,
    segment_eval_many,
    segment_partials,
)
from elastica_fit.elliptic import K_GUARD_BAND, jacobi, quarter_period
from elastica_fit.fitting import (
    FitProblem,
    fit,
    gradient_hessian,
    objective,
    residual_r4,
)
from elastica_fit.recovery import initial_guess
from elastica_fit.segmentation import fit_piecewise

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")

K_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
          1.05, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0]


def _verdict(n, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {n}: {state} {detail}".rstrip())
    assert ok, f"criterion {n} failed: {detail}"


def _warmup():
    """Trigger JIT compilation outside any timed region."""
    jacobi(0.5, 0.5)
    jacobi(0.5, 1.5)
    basic_point(0.5, 0.5)
    p = ElasticaParams(0.8, 0.2, 3.0, 1.5, 0.7, 2.0, -1.0)
    smp = sample(ElasticaCurve(p), 64)
    gradient_hessian(p, smp)


def test_criterion_1_elliptic_identities():
    _warmup()
    t0 = time.perf_counter()
    u_grid = np.arange(-10.0, 10.0 + 1e-9, 0.05)
    worst_id = 0.0
    for k in K_GRID:
        if abs(k - 1.0) <= K_GUARD_BAND:
            continue
        for u in u_grid:
            sn, cn, dn = jacobi(u, k)
            worst_id = max(
                worst_id,
                abs(sn * sn + cn * cn - 1.0),
                abs(dn * dn + k * k * sn * sn - 1.0),
                abs(dn * dn - k * k * cn * cn - (1.0 - k * k)))
    worst_trig = max(
        max(abs(jacobi(u, 0.0).sn - math.sin(u)),
            abs(jacobi(u, 0.0).cn - math.cos(u)),
            abs(jacobi(u, 0.0).dn - 1.0))
        for u in u_grid)
    worst_per = 0.0
    for k in (0.3, 0.8, 1.2, 1.8):
        K = quarter_period(k)
        for u in np.linspace(-5.0, 5.0, 41):
            worst_per = max(worst_per,
                            abs(jacobi(u + 4 * K, k).cn - jacobi(u, k).cn))
    worst_tr = 0.0
    for k in (1.2, 1.5, 2.0):
        for u in np.linspace(-4.0, 4.0, 33):
            sn, cn, dn = jacobi(u, k)
            sni, cni, dni = jacobi(k * u, 1.0 / k)
            worst_tr = max(worst_tr, abs(sn - sni / k), abs(cn - dni),
                           abs(dn - cni))
    elapsed = time.perf_counter() - t0
    ok = (worst_id < 1e-12 and worst_trig < 1e-12 and worst_per < 1e-10
          and worst_tr < 1e-10 and elapsed < 5.0)
    _verdict(1, ok, f"identities={worst_id:.1e} trig={worst_trig:.1e} "
             f"period={worst_per:.1e} transfer={worst_tr:.1e} "
             f"time={elapsed:.2f}s")


def test_criterion_2_pendulum_equation():
    h = 1e-4
    worst = 0.0
    for k in (0.2, 0.5, 0.8, 0.95, 1.2, 1.8):
        for si in np.linspace(-3.0, 3.0, 61):
            th = np.unwrap([
                math.atan2(2 * k * jacobi(si + d, k).sn * jacobi(si + d, k).dn,
                           2 * jacobi(si + d, k).dn ** 2 - 1)
                for d in (-h, 0.0, h)])
            defect = (th[2] - 2 * th[1] + th[0]) / h ** 2 + math.sin(th[1])
            worst = max(worst, abs(defect))
    _verdict(2, worst <= 1e-6, f"max defect={worst:.2e}")


def _random_params(rng):
    k = rng.uniform(0.15, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 1.9)
    return ElasticaParams(
        k=k, s0=rng.uniform(0.0, 2.0), ell=rng.uniform(0.5, 4.0),
        w=rng.uniform(0.5, 2.0), phi=rng.uniform(-math.pi, math.pi),
        x0=rng.uniform(-1.0, 1.0), y0=rng.uniform(-1.0, 1.0))


def test_criterion_3_derivative_oracles():
    rng = np.random.default_rng(23)
    h, h2 = 1e-6, 1e-4
    worst_blocks = 0.0
    worst_seg = 0.0
    for _ in range(100):
        s = rng.uniform(-4.0, 4.0)
        k = rng.uniform(0.1, 0.9) if rng.random() < 0.5 \
            else rng.uniform(1.1, 1.9)
        d = basic_derivatives(s, k)
        fd = {
            "ds": (basic_point(s + h, k) - basic_point(s - h, k)) / (2 * h),
            "dk": (basic_point(s, k + h) - basic_point(s, k - h)) / (2 * h),
            "dss": (basic_point(s + h2, k) - 2 * basic_point(s, k)
                    + basic_point(s - h2, k)) / h2 ** 2,
            "dkk": (basic_point(s, k + h2) - 2 * basic_point(s, k)
                    + basic_point(s, k - h2)) / h2 ** 2,
            "dsk": (basic_point(s + h2, k + h2) - basic_point(s + h2, k - h2)
                    - basic_point(s - h2, k + h2)
                    + basic_point(s - h2, k - h2)) / (4 * h2 ** 2),
        }
        for name, want in fd.items():
            got = getattr(d, name)
            denom = max(1.0, float(np.max(np.abs(want))))
            worst_blocks = max(worst_blocks,
                               float(np.max(np.abs(got - want))) / denom)

        p = _random_params(rng)
        t = float(rng.uniform(0.0, 1.0))
        dy, d2y = segment_partials(p, t)
        vec = p.as_array()
        tv = np.array([t])
        for i in range(7):
            e = np.zeros(7)
            e[i] = h
            yp = segment_eval_many(ElasticaParams.from_array(vec + e), tv)
            ym = segment_eval_many(ElasticaParams.from_array(vec - e), tv)
            want = (yp[0] - ym[0]) / (2 * h)
            denom = max(1.0, float(np.max(np.abs(want))))
            worst_seg = max(worst_seg,
                            float(np.max(np.abs(dy[i] - want))) / denom)
            dyp, _ = segment_partials(ElasticaParams.from_array(vec + e), t,
                                      second=False)
            dym, _ = segment_partials(ElasticaParams.from_array(vec - e), t,
                                      second=False)
            want2 = (dyp - dym) / (2 * h)
            denom2 = max(1.0, float(np.max(np.abs(want2))))
            worst_seg = max(worst_seg,
                            float(np.max(np.abs(d2y[i] - want2))) / denom2)

    worst_grad = 0.0
    worst_hess = 0.0
    for _ in range(100):
        p = _random_params(rng)
        tgt = sample(ElasticaCurve(_random_params(rng)), 128)
        g, H = gradient_hessian(p, tgt)
        vec = p.as_array()
        g_fd = np.zeros(7)
        H_fd = np.zeros((7, 7))
        for i in range(7):
            e = np.zeros(7)
            e[i] = h
            pp = ElasticaParams.from_array(vec + e)
            pm = ElasticaParams.from_array(vec - e)
            g_fd[i] = (objective(pp, tgt) - objective(pm, tgt)) / (2 * h)
            gp, _ = gradient_hessian(pp, tgt)
            gm, _ = gradient_hessian(pm, tgt)
            H_fd[i] = (gp - gm) / (2 * h)
        H_fd = 0.5 * (H_fd + H_fd.T)
        worst_grad = max(worst_grad, float(
            np.linalg.norm(g - g_fd) / (np.linalg.norm(g) + 1e-12)))
        worst_hess = max(worst_hess, float(
            np.linalg.norm(H - H_fd) / (np.linalg.norm(H) + 1e-12)))
    ok = (worst_blocks < 1e-5 and worst_seg < 1e-5
          and worst_grad < 1e-5 and worst_hess < 1e-4)
    _verdict(3, ok, f"blocks={worst_blocks:.1e} segment={worst_seg:.1e} "
             f"grad={worst_grad:.1e} hess={worst_hess:.1e}")


def _ground_truths(n=50, seed=31):
    """Randomized params spanning inflectional / non-inflectional classes
    and 1..4 monotone segments of u."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        if i % 2 == 0:
            k = rng.uniform(0.2, 0.95)
        else:
            k = rng.uniform(1.05, 1.9)
        half = 2.0 * quarter_period(k)
        f0 = rng.uniform(0.05, 0.95)
        s0 = (i % 2 + f0) * half
        n_seg = 1 + i % 4
        f1 = rng.uniform(0.05, 0.95)
        ell = (n_seg - 1 + f1 - f0) * half
        if ell < 0.1 * half:
            ell += half
        out.append(ElasticaParams(
            k=k, s0=s0, ell=ell, w=rng.uniform(0.5, 2.0),
            phi=rng.uniform(-math.pi, math.pi),
            x0=rng.uniform(-2.0, 2.0), y0=rng.uniform(-2.0, 2.0)))
    return out


def test_criterion_4_roundtrip_recovery():
    _warmup()
    t0 = time.perf_counter()
    worst = {"k": 0.0, "w": 0.0, "phi": 0.0, "s0": 0.0, "ell": 0.0,
             "xy": 0.0, "R1": 0.0, "R2": 0.0, "R3": 0.0}
    for p in _ground_truths():
        smp = sample(ElasticaCurve(p), 2048)
        rep = initial_guess(smp)
        q = rep.params
        L = p.length
        worst["k"] = max(worst["k"], abs(q.k - p.k))
        worst["w"] = max(worst["w"], abs(q.w - p.w))
        dphi = (q.phi - p.phi + math.pi) % (2 * math.pi) - math.pi
        worst["phi"] = max(worst["phi"], abs(dphi))
        worst["s0"] = max(worst["s0"], abs(q.s0 - p.s0))
        worst["ell"] = max(worst["ell"], abs(q.ell - p.ell))
        worst["xy"] = max(worst["xy"],
                          math.hypot(q.x0 - p.x0, q.y0 - p.y0) / L)
        worst["R1"] = max(worst["R1"], rep.R1)
        worst["R2"] = max(worst["R2"], rep.R2)
        worst["R3"] = max(worst["R3"], rep.R3)
    elapsed = time.perf_counter() - t0
    ok = (worst["k"] <= 1e-4 and worst["w"] <= 1e-4 and worst["phi"] <= 1e-4
          and worst["s0"] <= 1e-3 and worst["ell"] <= 1e-3
          and worst["xy"] <= 1e-4 and worst["R1"] <= 1e-5
          and worst["R2"] <= 1e-5 and worst["R3"] == 0.0
          and elapsed < 30.0)
    _verdict(4, ok, " ".join(f"{n}={v:.1e}" for n, v in worst.items())
             + f" time={elapsed:.1f}s")


def test_criterion_5_optimization_convergence():
    rng = np.random.default_rng(37)
    successes = 0
    flagged_ok = True
    for p in _ground_truths():
        smp = sample(ElasticaCurve(p), 512)
        vec = p.as_array() * (1.0 + 0.01 * rng.uniform(-1, 1, size=7))
        res = fit(FitProblem(target=smp,
                             init=ElasticaParams.from_array(vec),
                             max_iter=100))
        L = p.length
        if (res.objective <= 1e-10 * L ** 3 and res.grad_norm <= 1e-8
                and res.iterations <= 100):
            successes += 1
        else:
            # a failing case must report its objective faithfully rather
            # than claim an accuracy it did not reach
            f_check = objective(res.params, smp)
            if abs(f_check - res.objective) > 1e-12 * (1.0 + f_check):
                flagged_ok = False
    _verdict(5, successes >= 48 and flagged_ok,
             f"{successes}/50 converged, flagged_ok={flagged_ok}")


def test_criterion_6_paper_pattern_corpus():
    paths = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
    assert len(paths) == 12
    ok = True
    details = []
    for path in paths:
        name = os.path.basename(path)[:-5]
        tgt = sample(load_curve(path), 1024)
        rep = initial_guess(tgt)
        free = fit(FitProblem(target=tgt, init=rep.params, max_iter=600))
        con = fit(FitProblem(target=tgt, init=rep.params,
                             constraints="endpoints", max_iter=600))
        r_free = residual_r4(free.params, tgt)
        r_con = residual_r4(con.params, tgt)
        good = (r_free <= rep.R4 + 1e-12
                and r_con >= r_free - 1e-9
                and r_free <= 0.1
                and (not free.converged or free.grad_norm <= 1e-7))
        if free.converged and r_con <= 0.1:
            good = good and (not con.converged or con.grad_norm <= 1e-7
                             or con.constraint_violation <= 1e-10)
        if not good:
            ok = False
            details.append(name)
    _verdict(6, ok, "bad curves: " + (",".join(details) or "none"))


def _transformed_samples(p, rho, c, shift):
    smp = sample(ElasticaCurve(p), 2048)
    R = np.array([[math.cos(rho), -math.sin(rho)],
                  [math.sin(rho), math.cos(rho)]])
    return dataclasses.replace(
        smp, points=c * smp.points @ R.T + np.asarray(shift),
        speeds=c * smp.speeds, s=c * smp.s, theta=smp.theta + rho,
        kappa=smp.kappa / c)


def test_criterion_7_equivariance():
    cases = [ElasticaParams(0.75, 0.4, 2.8, 1.2, 0.5, 0.6, -0.3),
             ElasticaParams(1.3, 0.3, 1.8, 0.9, -0.6, 0.4, 0.2)]
    rho, c, v = 0.8, 1.6, np.array([0.5, -1.2])
    R = np.array([[math.cos(rho), -math.sin(rho)],
                  [math.sin(rho), math.cos(rho)]])
    worst = 0.0
    for p in cases:
        base = initial_guess(sample(ElasticaCurve(p), 2048)).params
        got = initial_guess(_transformed_samples(p, rho, c, v)).params
        dphi = (got.phi - base.phi - rho + math.pi) % (2 * math.pi) - math.pi
        xy = c * R @ np.array([base.x0, base.y0]) + v
        worst = max(worst, abs(got.k - base.k), abs(got.s0 - base.s0),
                    abs(got.ell - base.ell), abs(got.w - c * base.w),
                    abs(dphi), abs(got.x0 - xy[0]), abs(got.y0 - xy[1]))
    _verdict(7, worst <= 1e-6, f"max deviation={worst:.2e}")


def test_criterion_8_segmentation_monotonicity():
    cur = load_curve(os.path.join(CORPUS_DIR, "wave_multi_lobe.json"))
    vals = []
    g0_ok = True
    for depth in (0, 1, 2):
        pw = fit_piecewise(cur, r4_threshold=1e-12, max_depth=depth,
                           n_samples=256, max_iter=300)
        vals.append(pw.max_r4)
        g0_ok = g0_ok and all(j.position_gap <= 1e-10
                              for j in pw.join_continuity)
    mono = vals[0] > vals[1] > vals[2]
    pw_t = fit_piecewise(cur, r4_threshold=1e-12, max_depth=2,
                         n_samples=256, max_iter=300,
                         constraints="endpoints+tangents")
    g1_ok = all(j.position_gap <= 1e-10 and j.tangent_gap <= 1e-8
                for j in pw_t.join_continuity)
    _verdict(8, mono and g0_ok and g1_ok,
             f"maxR4 by depth={['%.4g' % v for v in vals]} "
             f"G0={g0_ok} G1={g1_ok}")
