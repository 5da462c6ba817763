"""Tests for the L2 objective, its derivatives, and the optimizers."""

import dataclasses
import math
import os

import mpmath as mp
import numpy as np
import pytest

from elastica_fit import elastica, fitting
from elastica_fit.curve import BezierChain, load_curve, sample
from elastica_fit.elastica import ElasticaCurve, ElasticaParams
from elastica_fit.elliptic import _jacobi_E_arr
from elastica_fit.errors import DomainError
from elastica_fit.fitting import (
    FitProblem,
    FitResult,
    _align_similarity,
    _angle_partials,
    _constraint_values_jacobian,
    _reduced_model,
    _row_space,
    _shifted_step,
    fit,
    gradient_hessian,
    objective,
    residual_r4,
)

BASE = ElasticaParams(k=0.8, s0=0.2, ell=3.0, w=1.5, phi=0.7, x0=2.0, y0=-1.0)


def elastica_target(p, n=256):
    return sample(ElasticaCurve(p), n)


def random_params(rng):
    k = rng.uniform(0.15, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 1.9)
    return ElasticaParams(
        k=k, s0=rng.uniform(0.0, 2.0), ell=rng.uniform(0.5, 4.0),
        w=rng.uniform(0.5, 2.0), phi=rng.uniform(-math.pi, math.pi),
        x0=rng.uniform(-1.0, 1.0), y0=rng.uniform(-1.0, 1.0))


class TestObjective:
    def test_zero_on_self(self):
        tgt = elastica_target(BASE, 512)
        assert objective(BASE, tgt) <= 1e-12

    def test_constant_offset(self):
        tgt = elastica_target(BASE, 512)
        v = np.array([0.4, -0.9])
        shifted = dataclasses.replace(tgt, points=tgt.points + v)
        L = tgt.length
        want = 0.5 * float(v @ v) * L
        assert objective(BASE, shifted) == pytest.approx(want, rel=1e-10)
        assert residual_r4(BASE, shifted) == pytest.approx(
            np.linalg.norm(v) / L, rel=1e-10)

    def test_refinement_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = random_params(rng)
            q = random_params(rng)
            lo = objective(p, elastica_target(q, 256))
            hi = objective(p, elastica_target(q, 1024))
            assert lo == pytest.approx(hi, rel=1e-8)

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            assert objective(random_params(rng),
                             elastica_target(random_params(rng), 64)) >= 0.0


class TestGradientHessian:
    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(25):
            p = random_params(rng)
            tgt = elastica_target(random_params(rng), 128)
            g, H = gradient_hessian(p, tgt)
            assert np.allclose(H, H.T)
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
            scale_g = np.linalg.norm(g) + 1e-12
            scale_h = np.linalg.norm(H) + 1e-12
            assert np.linalg.norm(g - g_fd) / scale_g < 1e-5
            assert np.linalg.norm(H - 0.5 * (H_fd + H_fd.T)) / scale_h < 1e-4

    def test_stationary_at_minimizer(self):
        tgt = elastica_target(BASE, 512)
        g, _ = gradient_hessian(BASE, tgt)
        assert np.linalg.norm(g) < 1e-8


class TestConstraintJacobian:
    @pytest.mark.parametrize("mode", ["endpoints", "endpoints+tangents"])
    @pytest.mark.parametrize("k", [0.3, 0.8, 1.4, 2.5])
    def test_central_differences(self, mode, k):
        p = dataclasses.replace(BASE, k=k)
        tgt = elastica_target(dataclasses.replace(p, s0=0.25, phi=0.72), 64)
        pvec = p.as_array()
        c, J = _constraint_values_jacobian(pvec, tgt, mode)
        assert J.shape == (len(c), 7)
        h = 1e-6
        for i in range(7):
            e = np.zeros(7)
            e[i] = h
            cp, _ = _constraint_values_jacobian(pvec + e, tgt, mode)
            cm, _ = _constraint_values_jacobian(pvec - e, tgt, mode)
            assert J[:, i] == pytest.approx((cp - cm) / (2 * h), abs=1e-7)

    @pytest.mark.parametrize("mode", ["endpoints", "endpoints+tangents"])
    @pytest.mark.parametrize("k", [0.3, 0.8, 1.4, 2.5])
    def test_hessians_central_differences(self, mode, k):
        p = dataclasses.replace(BASE, k=k)
        tgt = elastica_target(dataclasses.replace(p, s0=0.25, phi=0.72), 64)
        pvec = p.as_array()
        c, J, H = _constraint_values_jacobian(pvec, tgt, mode, True)
        assert H.shape == (len(c), 7, 7)
        assert np.array_equal(H, np.swapaxes(H, 1, 2))
        assert np.array_equal(_constraint_values_jacobian(pvec, tgt, mode)[1], J)
        h = 1e-6
        for i in range(7):
            e = np.zeros(7)
            e[i] = h
            _, Jp = _constraint_values_jacobian(pvec + e, tgt, mode)
            _, Jm = _constraint_values_jacobian(pvec - e, tgt, mode)
            assert H[:, :, i] == pytest.approx((Jp - Jm) / (2 * h), abs=1e-7)

    def test_one_elliptic_evaluation(self, monkeypatch):
        """Position and tangent rows, with their Hessians, share one
        evaluation of sn, cn, dn and E at the end nodes."""
        tgt = elastica_target(BASE, 64)
        calls = []

        def counted(s, k):
            calls.append(len(s))
            return _jacobi_E_arr(s, k)

        for mod in (fitting, elastica):
            monkeypatch.setattr(mod, "_jacobi_E_arr", counted, raising=False)
        _constraint_values_jacobian(BASE.as_array(), tgt,
                                    "endpoints+tangents", True)
        assert calls == [2]

    @pytest.mark.parametrize("k", [0.3, 0.9, 1.2, 3.0])
    def test_angle_partials_mpmath(self, k):
        """theta_k, theta_sk and theta_kk against mpmath derivatives of
        2 atan2(k sn, dn)."""
        s = np.array([-0.7, 0.0, 0.4, 1.3, 2.9])
        _, _, _, th_k, th_sk, th_kk = _angle_partials(
            s, k, *_jacobi_E_arr(s, k))

        def theta(u, kk):
            sn, dn = (mp.re(mp.ellipfun(f, u, m=kk * kk)) for f in ("sn", "dn"))
            return 2 * mp.atan2(kk * sn, dn)

        with mp.workdps(30):
            for j, u in enumerate(s):
                ref = (mp.diff(lambda kk: theta(u, kk), k),
                       mp.diff(theta, (u, k), (1, 1)),
                       mp.diff(lambda kk: theta(u, kk), k, 2))
                got = (th_k[j], th_sk[j], th_kk[j])
                for a, b in zip(got, ref):
                    assert a == pytest.approx(float(b), rel=1e-11, abs=1e-12)


def _shifted_solve(H, g, delta):
    """Reference: the re-solving loop that _shifted_step replaced, verbatim."""
    evals = np.linalg.eigvalsh(H)
    mu = max(0.0, -float(evals[0])) + 1e-12
    for _ in range(100):
        try:
            d = np.linalg.solve(H + mu * np.eye(7), -g)
        except np.linalg.LinAlgError:
            mu = 2 * mu + 1e-10
            continue
        if np.linalg.norm(d) <= delta:
            return d, mu
        mu = 2 * mu + 1e-10
    return d, mu


def _random_symmetric(rng, n, definite):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = rng.uniform(0.1, 5.0, n) if definite else rng.uniform(-5.0, 5.0, n)
    return (Q * lam) @ Q.T


class TestTrustRegionStep:
    @pytest.mark.parametrize("definite", [True, False])
    def test_shifted_step_matches_resolving_loop(self, definite):
        rng = np.random.default_rng(23 + definite)
        for _ in range(20):
            A = _random_symmetric(rng, 7, definite)
            b = rng.normal(size=7)
            for radius in (1e-3, 0.1, 1.0, 10.0, 1e3):
                y, mu = _shifted_step(A, b, radius)
                d, mu_ref = _shifted_solve(A, b, radius)
                assert mu == pytest.approx(mu_ref, rel=1e-12, abs=1e-24)
                assert np.linalg.norm(y - d) <= 1e-10 * np.linalg.norm(d)
                assert np.linalg.norm(y) <= radius

    @pytest.mark.parametrize("m", [4, 6])
    def test_row_space_gives_lstsq_multipliers(self, m):
        """The pinned fit's multipliers, ||Z^T g|| and J^+ c from the SVD
        equal lstsq's."""
        rng = np.random.default_rng(29 + m)
        for _ in range(20):
            J = rng.normal(size=(m, 7))
            g = rng.normal(size=7)
            c = rng.normal(size=m)
            U, sv, Y, Z = _row_space(J)
            assert np.allclose(Y.T @ Y, np.eye(m)) and Z.shape == (7, 7 - m)
            nu_ls, *_ = np.linalg.lstsq(J.T, -g, rcond=None)
            assert np.linalg.norm(Z.T @ g) == pytest.approx(
                np.linalg.norm(g + J.T @ nu_ls), rel=1e-12)
            assert np.allclose(-U @ ((Y.T @ g) / sv), nu_ls, rtol=1e-10)
            dn, *_ = np.linalg.lstsq(J, -c, rcond=None)
            assert np.allclose(-Y @ ((U.T @ c) / sv), dn, rtol=1e-10)

    def test_row_space_cuts_rank_like_lstsq(self):
        rng = np.random.default_rng(31)
        J = rng.normal(size=(4, 7))
        J[3] = J[0] - 2.0 * J[1]
        c = rng.normal(size=4)
        U, sv, Y, Z = _row_space(J)
        assert len(sv) == 3 and Z.shape == (7, 4)
        dn, *_ = np.linalg.lstsq(J, -c, rcond=None)
        assert np.allclose(-Y @ ((U.T @ c) / sv), dn, rtol=1e-10)
        assert np.allclose(J @ Z, 0.0, atol=1e-12)


class TestFitProblemValidation:
    def test_bad_mode(self):
        tgt = elastica_target(BASE, 64)
        with pytest.raises(DomainError):
            FitProblem(target=tgt, init=BASE, constraints="tangents-only")

    def test_bad_tolerances(self):
        tgt = elastica_target(BASE, 64)
        with pytest.raises(DomainError):
            FitProblem(target=tgt, init=BASE, max_iter=0)
        with pytest.raises(DomainError):
            FitProblem(target=tgt, init=BASE, grad_tol=0.0)


def perturbed(p, rng, frac=0.01):
    vec = p.as_array()
    vec = vec * (1.0 + frac * rng.uniform(-1, 1, size=7))
    return ElasticaParams.from_array(vec)


class TestFitUnconstrained:
    def test_converges_from_perturbed_guess(self):
        rng = np.random.default_rng(5)
        tgt = elastica_target(BASE, 512)
        res = fit(FitProblem(target=tgt, init=perturbed(BASE, rng)))
        assert res.converged
        assert res.objective <= 1e-10
        assert res.grad_norm <= 1e-8
        assert res.iterations <= 50

    def test_descent_contract(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            p0 = random_params(rng)
            tgt = elastica_target(random_params(rng), 128)
            res = fit(FitProblem(target=tgt, init=p0, max_iter=40))
            assert res.objective <= objective(p0, tgt) + 1e-12

    def test_result_respects_safeguards(self):
        rng = np.random.default_rng(13)
        tgt = elastica_target(random_params(rng), 128)
        res = fit(FitProblem(target=tgt, init=random_params(rng), max_iter=60))
        q = res.params
        assert q.w > 0
        assert not 1.0 - 1e-9 < q.k < 1.0 + 1e-9

    def test_fit_nonelastic_bezier(self):
        cur = BezierChain([[[0, 0], [1, 1.2], [2.2, 1.1], [3, 0.2]]])
        tgt = sample(cur, 256)
        from elastica_fit.recovery import initial_guess
        rep = initial_guess(tgt)
        res = fit(FitProblem(target=tgt, init=rep.params))
        assert res.objective <= objective(rep.params, tgt) + 1e-12
        assert residual_r4(res.params, tgt) <= rep.R4


class TestFitConstrained:
    def test_endpoint_constraint_satisfied(self):
        cur = BezierChain([[[0, 0], [1, 1.2], [2.2, 1.1], [3, 0.2]]])
        tgt = sample(cur, 256)
        from elastica_fit.recovery import initial_guess
        rep = initial_guess(tgt)
        res = fit(FitProblem(target=tgt, init=rep.params,
                             constraints="endpoints"))
        assert res.constraint_violation <= 1e-10
        y = ElasticaCurve(res.params)
        assert np.allclose(y.point(0.0), tgt.points[0], atol=1e-9)
        assert np.allclose(y.point(1.0), tgt.points[-1], atol=1e-9)

    def test_tangent_constraint_satisfied(self):
        cur = BezierChain([[[0, 0], [1, 1.2], [2.2, 1.1], [3, 0.2]]])
        tgt = sample(cur, 256)
        from elastica_fit.recovery import initial_guess
        rep = initial_guess(tgt)
        res = fit(FitProblem(target=tgt, init=rep.params,
                             constraints="endpoints+tangents"))
        assert res.constraint_violation <= 1e-10
        if res.converged:
            assert res.grad_norm <= 1e-8

    def test_constrained_objective_dominates_unconstrained(self):
        cur = BezierChain([[[0, 0], [1, 1.2], [2.2, 1.1], [3, 0.2]]])
        tgt = sample(cur, 256)
        from elastica_fit.recovery import initial_guess
        rep = initial_guess(tgt)
        free = fit(FitProblem(target=tgt, init=rep.params))
        pinned = fit(FitProblem(target=tgt, init=rep.params,
                                constraints="endpoints"))
        assert pinned.objective >= free.objective - 1e-12

    def test_exact_elastica_with_constraints(self):
        rng = np.random.default_rng(17)
        tgt = elastica_target(BASE, 512)
        res = fit(FitProblem(target=tgt, init=perturbed(BASE, rng),
                             constraints="endpoints+tangents"))
        assert res.converged
        assert res.objective <= 1e-10
        assert res.constraint_violation <= 1e-10


CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")

#: a closed cubic: both ends at the origin
CLOSED_LOOP = BezierChain([[[0, 0], [2, 2], [-2, 2], [0, 0]]])


def guess_and_fit(cur, constraints, n=256, **kw):
    """The CLI's fit mode: sample, initial guess, fit; (result, target)."""
    from elastica_fit.recovery import initial_guess
    tgt = sample(cur, n)
    rep = initial_guess(tgt)
    if rep.reversed_input:
        tgt = tgt.reversed()
    res = fit(FitProblem(target=tgt, init=rep.params,
                         constraints=constraints, **kw))
    return res, tgt


class TestReducedModel:
    def test_free_matches_reduced_objective(self):
        """B^T g and B^T H B are the gradient and Hessian of
        n -> F(n, l*(n)) at an aligned point, by central differences."""
        rng = np.random.default_rng(37)
        h = 1e-4
        E = h * np.eye(3)
        for _ in range(5):
            tgt = elastica_target(random_params(rng), 256)
            p = _align_similarity(random_params(rng).as_array(), tgt)

            def F(n):
                q = p.copy()
                q[:3] = n
                q = _align_similarity(q, tgt)
                return objective(ElasticaParams.from_array(q), tgt)

            _, gr, A, _ = _reduced_model(p, tgt, "none")
            n0 = p[:3]
            g_fd = np.array([(F(n0 + e) - F(n0 - e)) / (2 * h) for e in E])
            H_fd = np.array([[(F(n0 + a + b) - F(n0 + a - b)
                               - F(n0 - a + b) + F(n0 - a - b)) / (4 * h * h)
                              for b in E] for a in E])
            assert np.linalg.norm(gr - g_fd) <= 1e-5 * np.linalg.norm(g_fd)
            assert np.linalg.norm(A - H_fd) <= 1e-5 * np.linalg.norm(H_fd)


class TestFitOnManifold:
    def test_pinned_shallow_s_converges(self):
        cur = load_curve(os.path.join(CORPUS_DIR, "shallow_s.json"))
        res, _ = guess_and_fit(cur, "endpoints", max_iter=600)
        assert res.converged
        assert res.iterations <= 100
        assert res.constraint_violation <= 1e-10

    def test_hook_with_tangents_converges(self):
        """Near F's rounding floor no step can pass the ratio test; the
        predicted-decrease stop ends the fit there as converged."""
        cur = load_curve(os.path.join(CORPUS_DIR, "hook.json"))
        res, _ = guess_and_fit(cur, "endpoints+tangents")
        assert res.converged
        assert res.constraint_violation <= 1e-10

    def test_restores_small_modulus_guess(self):
        """From a k ~ 0.1 guess, where J is nearly rank-deficient, capped
        Gauss-Newton steps reach the tangent constraints (uncapped ones
        run off to max|c| ~ 55)."""
        cur = BezierChain([
            [[-1.503, -0.943], [-1.293, -0.719], [-1.157, -0.348],
             [-1.023, -0.043]],
            [[-1.023, -0.043], [-0.864, 0.319], [-0.535, 0.548],
             [-0.366, 0.738]],
            [[-0.366, 0.738], [-0.135, 0.999], [0.139, 1.293],
             [0.306, 1.506]]])
        res, _ = guess_and_fit(cur, "endpoints+tangents", max_iter=5)
        assert res.iterations == 5
        assert res.constraint_violation <= 1e-10

    @pytest.mark.parametrize("mode, r4", [
        ("none", 5.818684890075234e-3),
        ("endpoints", 6.410867205730372e-3),
        ("endpoints+tangents", 8.091441105761687e-3)])
    def test_closed_target(self, mode, r4):
        """A closed target fits in every mode, at the R4 that the merit
        function SQP and the free fit before it reached."""
        res, tgt = guess_and_fit(CLOSED_LOOP, mode)
        assert res.converged
        assert residual_r4(res.params, tgt) == pytest.approx(r4, rel=1e-6)
        assert res.constraint_violation <= 1e-10

    def test_ell_zero_trial_is_rejected(self, monkeypatch):
        """A trial with ell == 0 (a step that cancels ell exactly) is not a
        valid ElasticaParams; the loop turns it down like a non-finite
        objective and goes on, so _project needs no ell clamp."""
        rng = np.random.default_rng(41)
        tgt = elastica_target(BASE, 256)
        restored = []
        real = fitting._restore

        def restore(q, target, mode):
            q, cv = real(q, target, mode)
            if len(restored) == 1:
                q[2] = 0.0
            restored.append(q)
            return q, cv

        monkeypatch.setattr(fitting, "_restore", restore)
        res = fit(FitProblem(target=tgt, init=perturbed(BASE, rng)))
        assert restored[1][2] == 0.0 and len(restored) > 2
        assert res.converged and res.objective <= 1e-10

    def test_unrestorable_guess_returns_unconverged(self, monkeypatch):
        """If Gauss-Newton cannot meet the constraints from the guess, fit
        reports the gap instead of raising."""
        tgt = elastica_target(BASE, 256)
        init = dataclasses.replace(BASE, x0=BASE.x0 + 0.3)
        real = fitting._constraint_values_jacobian

        def flat(pvec, target, mode, with_hessians=False):
            out = real(pvec, target, mode, with_hessians)
            return (out[0], np.zeros_like(out[1])) + out[2:]

        monkeypatch.setattr(fitting, "_constraint_values_jacobian", flat)
        res = fit(FitProblem(target=tgt, init=init, constraints="endpoints"))
        assert not res.converged and res.iterations == 0
        assert res.message == "constraints not restored"
        assert res.constraint_violation == pytest.approx(0.3, rel=1e-12)
