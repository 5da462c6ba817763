"""Tests for the L2 objective, its derivatives, and the optimizers."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from elastica_fit.curve import BezierChain, sample
from elastica_fit.elastica import ElasticaCurve, ElasticaParams
from elastica_fit.errors import DomainError
from elastica_fit.fitting import (
    FitProblem,
    FitResult,
    _angle_partials,
    _constraint_values,
    _constraint_values_jacobian,
    _null_space_step,
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
        assert np.array_equal(_constraint_values(pvec, tgt, mode), c)
        assert np.array_equal(_constraint_values_jacobian(pvec, tgt, mode)[1], J)
        h = 1e-6
        for i in range(7):
            e = np.zeros(7)
            e[i] = h
            _, Jp = _constraint_values_jacobian(pvec + e, tgt, mode)
            _, Jm = _constraint_values_jacobian(pvec - e, tgt, mode)
            assert H[:, :, i] == pytest.approx((Jp - Jm) / (2 * h), abs=1e-7)

    @pytest.mark.parametrize("k", [0.3, 0.9, 1.2, 3.0])
    def test_angle_partials_mpmath(self, k):
        """theta_k, theta_sk and theta_kk against mpmath derivatives of
        2 atan2(k sn, dn)."""
        s = np.array([-0.7, 0.0, 0.4, 1.3, 2.9])
        _, _, _, th_k, th_sk, th_kk = _angle_partials(s, k)

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
    def test_null_space_step_matches_kkt_solve(self, m):
        rng = np.random.default_rng(29 + m)
        for trial in range(20):
            W = _random_symmetric(rng, 7, trial % 2 == 0)
            J = rng.normal(size=(m, 7))
            g = rng.normal(size=7)
            c = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 1)
            bases = _row_space(J)
            U, sv, Y, Z = bases
            assert np.allclose(Y.T @ Y, np.eye(m)) and Z.shape == (7, 7 - m)
            # the lstsq results the SQP takes from the SVD instead
            nu_ls, *_ = np.linalg.lstsq(J.T, -g, rcond=None)
            assert np.linalg.norm(Z.T @ g) == pytest.approx(
                np.linalg.norm(g + J.T @ nu_ls), rel=1e-12)
            assert np.allclose(-U @ ((Y.T @ g) / sv), nu_ls, rtol=1e-10)
            dn, *_ = np.linalg.lstsq(J, -c, rcond=None)
            assert np.allclose(-Y @ ((U.T @ c) / sv), dn, rtol=1e-10)
            for delta in (1e-3, 0.1, 1.0, 10.0):
                d, nu, sigma = _null_space_step(W, g, c, bases, delta)
                gamma = min(1.0, 0.8 * delta / np.linalg.norm(dn))

                def kkt(s):
                    A = np.block([[W + s * np.eye(7), J.T],
                                  [J, np.zeros((m, m))]])
                    return np.linalg.solve(A, np.concatenate([-g, -gamma * c]))

                sol = kkt(sigma)
                assert np.linalg.norm(d - sol[:7]) <= \
                    1e-10 * np.linalg.norm(sol[:7])
                assert np.linalg.norm(nu - sol[7:]) <= \
                    1e-10 * np.linalg.norm(sol[7:])
                assert np.linalg.norm(d) <= delta
                # sigma is the first shift of the sequence whose step fits
                lam0 = np.linalg.eigvalsh(Z.T @ W @ Z)[0]
                first = max(0.0, -lam0) + 1e-12
                if sigma > first * (1 + 1e-12):
                    prev = 0.5 * (sigma + 1e-10) - 1e-10
                    assert np.linalg.norm(kkt(prev)[:7]) > delta

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
