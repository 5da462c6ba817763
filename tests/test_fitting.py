"""Tests for the L2 objective, its derivatives, and the optimizers."""

import dataclasses
import math
import os

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastica_fit import elastica, fitting
from elastica_fit.curve import BezierChain, load_curve, sample
from elastica_fit.elastica import (
    K_MIN,
    ElasticaCurve,
    ElasticaParams,
    basic_derivatives,
    basic_point,
    segment_eval_many,
    segment_partials,
)
from elastica_fit.elliptic import _jacobi_E_arr
from elastica_fit.errors import DomainError
from elastica_fit.fitting import (
    FitProblem,
    FitResult,
    _align_similarity,
    _angle_partials,
    _ENDS,
    _constraint_jacobian,
    _constraint_values,
    _jacobi_E_ends,
    _jacobi_E_nodes,
    _reduced_model,
    _restore,
    _row_space,
    _shifted_step,
    _unit_problem,
    fit,
    gradient_hessian,
    objective,
    residual_r4,
)

BASE = ElasticaParams(k=0.8, s0=0.2, ell=3.0, w=1.5, phi=0.7, x0=2.0, y0=-1.0)

#: corpus/hook.json's shape guess (256 samples) with (w, phi) from the affine
#: curvature fit and a least-squares translation: a similarity that is not
#: the aligned one, from which the tangent fit ends at F's rounding floor
HOOK_AFFINE_GUESS = ElasticaParams(
    k=0.8463429304695986, s0=1.1960292140488533, ell=4.2414503453795795,
    w=0.7731451760376826, phi=-0.5125743558755397, x0=-0.48776688138364693,
    y0=-0.44943060845849364)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
CORPUS_NAMES = sorted(os.path.splitext(f)[0] for f in os.listdir(CORPUS_DIR))


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


def _tensor_partials(p, t):
    """Reference: the first and second parameter partials as (n, 7, 2) and
    (n, 7, 7, 2) tensors, assembled node by node from the zeta blocks with
    every second partial written out."""
    w = p.w
    c, s = math.cos(p.phi), math.sin(p.phi)
    R = np.array([[c, -s], [s, c]])
    Q = np.array([[-s, -c], [c, -s]])       # R_(phi + pi/2)
    dy = np.zeros((len(t), 7, 2))
    d2y = np.zeros((len(t), 7, 7, 2))
    for i, ti in enumerate(t):
        sv = p.s0 + p.ell * ti
        z = basic_point(sv, p.k)
        b = basic_derivatives(sv, p.k)
        dy[i] = [w * R @ b.dk, w * R @ b.ds, ti * w * R @ b.ds, R @ z,
                 w * Q @ z, (1.0, 0.0), (0.0, 1.0)]
        for (j, m), v in {
                (0, 0): w * R @ b.dkk, (0, 1): w * R @ b.dsk,
                (0, 2): ti * w * R @ b.dsk, (0, 3): R @ b.dk,
                (0, 4): w * Q @ b.dk, (1, 1): w * R @ b.dss,
                (1, 2): ti * w * R @ b.dss, (1, 3): R @ b.ds,
                (1, 4): w * Q @ b.ds, (2, 2): ti * ti * w * R @ b.dss,
                (2, 3): ti * R @ b.ds, (2, 4): ti * w * Q @ b.ds,
                (3, 4): Q @ z, (4, 4): -w * R @ z}.items():
            d2y[i, j, m] = d2y[i, m, j] = v
    return dy, d2y


def _tensor_gradient_hessian(p, target):
    """Reference: gradient and Hessian of F contracted from the tensors."""
    t = target.s / target.length
    dy, d2y = _tensor_partials(p, t)
    diff = segment_eval_many(p, t) - target.points
    wts = target.weights
    grad = np.einsum("nc,nic,n->i", diff, dy, wts)
    hess = (np.einsum("nic,njc,n->ij", dy, dy, wts)
            + np.einsum("nc,nijc,n->ij", diff, d2y, wts))
    return grad, 0.5 * (hess + hess.T)


def _rel_gap(a, ref):
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


def _corpus_guesses(n=256):
    """(guess, target) for each corpus curve, the target in the guess's
    direction."""
    from elastica_fit.recovery import initial_guess
    out = []
    for name in CORPUS_NAMES:
        tgt = sample(load_curve(os.path.join(CORPUS_DIR, name + ".json")), n)
        rep = initial_guess(tgt)
        out.append((rep.params, tgt.reversed() if rep.reversed_input else tgt))
    return out


class TestHessianContraction:
    """gradient_hessian, the constraint Hessians and segment_partials, all
    contracted through the similarity structure, against the tensors."""

    def test_corpus_guesses(self):
        for p, tgt in _corpus_guesses():
            g, H = gradient_hessian(p, tgt)
            g_ref, H_ref = _tensor_gradient_hessian(p, tgt)
            assert _rel_gap(g, g_ref) <= 1e-12
            assert _rel_gap(H, H_ref) <= 1e-12

    @pytest.mark.parametrize("k", [2 * K_MIN, 0.3, 0.95, 1.05, 3.0])
    def test_random_parameters(self, k):
        rng = np.random.default_rng(43)
        for _ in range(4):
            p = dataclasses.replace(random_params(rng), k=k,
                                    ell=-rng.uniform(0.5, 4.0))
            tgt = elastica_target(random_params(rng), 128)
            g, H = gradient_hessian(p, tgt)
            g_ref, H_ref = _tensor_gradient_hessian(p, tgt)
            assert _rel_gap(g, g_ref) <= 1e-12
            assert _rel_gap(H, H_ref) <= 1e-12
            t = rng.uniform(0.0, 1.0)
            dy, d2y = segment_partials(p, t)
            dy_ref, d2y_ref = _tensor_partials(p, [t])
            assert _rel_gap(dy, dy_ref[0]) <= 1e-12
            assert _rel_gap(d2y, d2y_ref[0]) <= 1e-12

    @pytest.mark.parametrize("mode", ["endpoints", "endpoints+tangents"])
    def test_pinned_lagrangian_hessian(self, mode):
        """Z^T W Z of the pinned model equals the one built from H and the
        position-row Hessians of the tensors, with the model's multipliers;
        the tangent rows keep their own Hessians.  The gap is measured
        against W, since Z^T W Z can be a small difference of its
        entries."""
        for p, tgt in _corpus_guesses()[::3]:
            q = p.as_array()
            J, Hc = _constraint_jacobian(q, mode, True)
            _, d2y = _tensor_partials(p, _ENDS)
            Hc_ref = np.concatenate(
                [d2y.transpose(0, 3, 1, 2).reshape(4, 7, 7), Hc[4:]])
            assert _rel_gap(Hc, Hc_ref) <= 1e-12
            g, H = _tensor_gradient_hessian(p, tgt)
            U, sv, Y, Z = _row_space(J)
            lam = -U @ ((Y.T @ g) / sv)
            W = H + np.einsum("m,mij->ij", lam, Hc_ref)
            _, _, A, B = _reduced_model(q, tgt, mode, _jacobi_E_nodes(q, tgt))
            assert np.array_equal(B, Z)
            assert (np.max(np.abs(A - Z.T @ W @ Z))
                    <= 1e-12 * np.max(np.abs(W)))


class TestConstraintJacobian:
    @pytest.mark.parametrize("mode", ["endpoints", "endpoints+tangents"])
    @pytest.mark.parametrize("k", [0.3, 0.8, 1.4, 2.5])
    def test_central_differences(self, mode, k):
        p = dataclasses.replace(BASE, k=k)
        tgt = elastica_target(dataclasses.replace(p, s0=0.25, phi=0.72), 64)
        pvec = p.as_array()

        def c(q):
            return _constraint_values(q, tgt, mode, _jacobi_E_ends(q))

        J = _constraint_jacobian(pvec, mode)
        assert J.shape == (len(c(pvec)), 7)
        h = 1e-6
        for i in range(7):
            e = np.zeros(7)
            e[i] = h
            assert J[:, i] == pytest.approx((c(pvec + e) - c(pvec - e))
                                            / (2 * h), abs=1e-7)

    @pytest.mark.parametrize("mode", ["endpoints", "endpoints+tangents"])
    @pytest.mark.parametrize("k", [0.3, 0.8, 1.4, 2.5])
    def test_hessians_central_differences(self, mode, k):
        pvec = dataclasses.replace(BASE, k=k).as_array()
        J, H = _constraint_jacobian(pvec, mode, True)
        assert H.shape == (len(J), 7, 7)
        assert np.array_equal(H, np.swapaxes(H, 1, 2))
        assert np.array_equal(_constraint_jacobian(pvec, mode), J)
        h = 1e-6
        for i in range(7):
            e = np.zeros(7)
            e[i] = h
            Jp = _constraint_jacobian(pvec + e, mode)
            Jm = _constraint_jacobian(pvec - e, mode)
            assert H[:, :, i] == pytest.approx((Jp - Jm) / (2 * h), abs=1e-7)

    def test_one_elliptic_evaluation(self, monkeypatch):
        """Position and tangent rows, with their Hessians, share one
        evaluation of sn, cn, dn and E at the end nodes."""
        calls = []

        def counted(s, k):
            calls.append(len(s))
            return _jacobi_E_arr(s, k)

        for mod in (fitting, elastica):
            monkeypatch.setattr(mod, "_jacobi_E_arr", counted, raising=False)
        _constraint_jacobian(BASE.as_array(), "endpoints+tangents", True)
        assert calls == [2]

    @pytest.mark.parametrize("mode", ["endpoints", "endpoints+tangents"])
    def test_model_reads_end_rows(self, mode, monkeypatch):
        """The pinned model builds J and the constraint Hessians from rows
        [0, -1] of the partials its gradient and Hessian come from; they
        equal a stand-alone 2-node evaluation bit for bit."""
        seen = []

        def recorded(pvec, mode, with_hessians=False, ends=None):
            out = _constraint_jacobian(pvec, mode, with_hessians, ends)
            seen.append((ends, out))
            return out

        monkeypatch.setattr(fitting, "_constraint_jacobian", recorded)
        for p, tgt in _corpus_guesses():
            q = p.as_array()
            _reduced_model(q, tgt, mode, _jacobi_E_nodes(q, tgt))
            (ends, out), = seen
            seen.clear()
            assert ends is not None
            ref = _constraint_jacobian(q, mode, True)
            assert len(out) == len(ref) == 2
            for a, b in zip(out, ref):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [0.3, 0.9, 1.2, 3.0])
    def test_angle_partials_mpmath(self, k):
        """theta_k, theta_sk and theta_kk against mpmath derivatives of
        2 atan2(k sn, dn)."""
        s = np.array([-0.7, 0.0, 0.4, 1.3, 2.9])
        _, th_k, _, th_sk, th_kk = _angle_partials(
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


def test_unit_problem_weights():
    """The unit-length target's weights are the target's over its length,
    to the two roundings each side makes."""
    tgt = sample(load_curve(os.path.join(CORPUS_DIR, "loop.json")), 256)
    _, unit = _unit_problem(BASE, tgt)
    np.testing.assert_allclose(unit.weights, tgt.weights / tgt.length,
                               rtol=4 * np.finfo(float).eps, atol=0.0)


class TestFitProblemValidation:
    def test_bad_mode(self):
        tgt = elastica_target(BASE, 64)
        with pytest.raises(DomainError):
            FitProblem(target=tgt, init=BASE, constraints="tangents-only")

    def test_bad_tolerances(self):
        tgt = elastica_target(BASE, 64)
        with pytest.raises(DomainError):
            FitProblem(target=tgt, init=BASE, max_iter=0)


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
            p = random_params(rng).as_array()
            p = _align_similarity(p, tgt, _jacobi_E_nodes(p, tgt))

            def F(n):
                q = p.copy()
                q[:3] = n
                q = _align_similarity(q, tgt, _jacobi_E_nodes(q, tgt))
                return objective(ElasticaParams.from_array(q), tgt)

            _, gr, A, _ = _reduced_model(p, tgt, "none",
                                         _jacobi_E_nodes(p, tgt))
            n0 = p[:3]
            g_fd = np.array([(F(n0 + e) - F(n0 - e)) / (2 * h) for e in E])
            H_fd = np.array([[(F(n0 + a + b) - F(n0 + a - b)
                               - F(n0 - a + b) + F(n0 - a - b)) / (4 * h * h)
                              for b in E] for a in E])
            assert np.linalg.norm(gr - g_fd) <= 1e-5 * np.linalg.norm(g_fd)
            assert np.linalg.norm(A - H_fd) <= 1e-5 * np.linalg.norm(H_fd)


    def test_singular_similarity_block(self):
        """A guess whose shape is one point (s0 = 0, ell = 5e-324) gives w
        and phi no effect, so the similarity block of H is singular and
        solve refuses it.  The model then keeps the similarity fixed,
        B = [I; 0], and the fit still reaches the target."""
        tgt = elastica_target(BASE, 64)
        init = dataclasses.replace(BASE, s0=0.0, ell=5e-324)
        q, _, jacobi_E = _restore(init.as_array(), tgt, "none")
        _, H = gradient_hessian(ElasticaParams.from_array(q), tgt, jacobi_E)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(H[3:, 3:], H[3:, :3])
        _, gr, A, B = _reduced_model(q, tgt, "none", jacobi_E)
        assert np.array_equal(B, np.eye(7, 3))
        assert np.all(np.isfinite(gr)) and np.all(np.isfinite(A))
        res = fit(FitProblem(target=tgt, init=init, max_iter=200))
        assert res.converged
        assert residual_r4(res.params, tgt) <= 1e-9


class TestOneEvaluationPerPoint:
    @pytest.mark.parametrize("mode", ["none", "endpoints+tangents"])
    def test_one_node_evaluation_per_restored_point(self, mode, monkeypatch):
        """Inside fit, sn, cn, dn and E are evaluated at the target's nodes
        once per restored point (the initial one and every trial) and
        nowhere else: objective, gradient_hessian, the alignment and the
        constraint rows read that evaluation.  Two evaluations share
        (k, s) only where the loop restores the same shape twice.  Outside
        _restore, a pinned fit evaluates once more, at the end nodes of the
        mapped-back result."""
        from elastica_fit.recovery import initial_guess
        cur = load_curve(os.path.join(CORPUS_DIR, "s_curve.json"))
        tgt = sample(cur, 256)
        rep = initial_guess(tgt)
        if rep.reversed_input:
            tgt = tgt.reversed()
        full, shapes, outside, inside = [], [], [], []
        ends, zeta_ends, steps, angles = [], [], [], []
        real_blocks = elastica._zeta_blocks

        def counted(s, k):
            if len(s) == len(tgt.t):
                full.append((float(k), np.asarray(s).tobytes()))
            elif inside:
                ends.append(len(s))
            if not inside:
                outside.append(len(s))
            return _jacobi_E_arr(s, k)

        def zeta_blocks(s, k, second, jacobi_E=None):
            if len(s) == 2:
                zeta_ends.append((bool(inside), second))
            return real_blocks(s, k, second, jacobi_E)

        def angle_partials(*args):
            angles.append((bool(inside), args[-1]))
            return _angle_partials(*args)

        def row_space(J):
            if inside:
                steps.append(True)
            return _row_space(J)

        def restore(q, target, mode):
            before = len(full)
            inside.append(True)
            out = _restore(q, target, mode)
            inside.pop()
            assert len(full) == before + 1
            shapes.append(out[0][:3].tobytes())
            return out

        for mod in (fitting, elastica):
            monkeypatch.setattr(mod, "_jacobi_E_arr", counted)
        monkeypatch.setattr(elastica, "_zeta_blocks", zeta_blocks)
        monkeypatch.setattr(fitting, "_row_space", row_space)
        monkeypatch.setattr(fitting, "_angle_partials", angle_partials)
        monkeypatch.setattr(fitting, "_restore", restore)
        res = fit(FitProblem(target=tgt, init=rep.params, constraints=mode))
        assert res.converged and res.iterations >= 3
        assert len(full) == len(shapes) > 3
        assert len(set(full)) == len(set(shapes))
        assert outside == ([] if mode == "none" else [2])
        # Gauss-Newton: one 2-node evaluation per iterate, and first-order
        # 2-node zeta blocks and angle partials (for J) only for a step
        # that is taken; the model's second-order ones come from its nodes
        pinned = mode != "none"
        assert ends == [2] * (len(shapes) + len(steps) if pinned else 0)
        assert zeta_ends == [(True, False)] * len(steps)
        assert len(steps) > 0 if pinned else not steps
        assert angles.count((True, False)) == len(steps)
        assert set(angles) <= {(True, False), (False, True)}


class TestFitOnManifold:
    def test_pinned_shallow_s_converges(self):
        cur = load_curve(os.path.join(CORPUS_DIR, "shallow_s.json"))
        res, _ = guess_and_fit(cur, "endpoints", max_iter=600)
        assert res.converged
        assert res.iterations <= 100
        assert res.constraint_violation <= 1e-10

    def test_hook_with_tangents_converges(self):
        """From HOOK_AFFINE_GUESS the hook's tangent fit ends near F's
        rounding floor, where no step can pass the ratio test; the
        predicted-decrease stop ends the fit there as converged."""
        tgt = sample(load_curve(os.path.join(CORPUS_DIR, "hook.json")), 256)
        res = fit(FitProblem(target=tgt, init=HOOK_AFFINE_GUESS,
                             constraints="endpoints+tangents"))
        assert res.converged
        assert res.message == "predicted decrease below rounding"
        assert res.constraint_violation <= 1e-10

    def test_hook_with_tangents_from_guess_is_short(self):
        """From initial_guess, whose similarity is the closed-form
        alignment, the hook's tangent fit converges within 6 iterations
        (it takes 15 from HOOK_AFFINE_GUESS)."""
        cur = load_curve(os.path.join(CORPUS_DIR, "hook.json"))
        res, _ = guess_and_fit(cur, "endpoints+tangents")
        assert res.converged
        assert res.iterations <= 6
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
            q, cv, jacobi_E = real(q, target, mode)
            if len(restored) == 1:
                q[2] = 0.0
            restored.append(q)
            return q, cv, jacobi_E

        monkeypatch.setattr(fitting, "_restore", restore)
        res = fit(FitProblem(target=tgt, init=perturbed(BASE, rng)))
        assert restored[1][2] == 0.0 and len(restored) > 2
        assert res.converged and res.objective <= 1e-10

    def test_unrestorable_guess_returns_unconverged(self, monkeypatch):
        """If Gauss-Newton cannot meet the constraints from the guess, fit
        reports the gap instead of raising."""
        tgt = elastica_target(BASE, 256)
        init = dataclasses.replace(BASE, x0=BASE.x0 + 0.3)
        real = fitting._constraint_jacobian

        def flat(pvec, mode, with_hessians=False, ends=None):
            out = real(pvec, mode, with_hessians, ends)
            if with_hessians:
                return np.zeros_like(out[0]), out[1]
            return np.zeros_like(out)

        monkeypatch.setattr(fitting, "_constraint_jacobian", flat)
        res = fit(FitProblem(target=tgt, init=init, constraints="endpoints"))
        assert not res.converged and res.iterations == 0
        assert res.message == "constraints not restored"
        assert res.constraint_violation == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("name, mode, repeats", [
        ("hook", "endpoints+tangents", 13), ("shallow_s", "none", 5)])
    def test_repeated_trial_is_not_restored(self, name, mode, repeats,
                                            monkeypatch):
        """A rejection quarters the radius until the rejected step no
        longer fits it, since the step for a radius it fits is the same
        trial.  So every iteration restores a new point.  repeats counts
        the quarterings past the first: under one quarter per rejection,
        each was an iteration that tried the same point again (the hook's
        fit tried one point 14 times in a row)."""
        inputs, steps = [], []
        real = fitting._restore

        def restore(q, target, mode):
            inputs.append(q.tobytes())
            return real(q, target, mode)

        def shifted_step(A, b, radius):
            y, mu = _shifted_step(A, b, radius)
            steps.append((A.tobytes() + b.tobytes(), radius,
                          np.linalg.norm(y)))
            return y, mu

        monkeypatch.setattr(fitting, "_restore", restore)
        monkeypatch.setattr(fitting, "_shifted_step", shifted_step)
        cur = load_curve(os.path.join(CORPUS_DIR, name + ".json"))
        if name == "hook":
            res = fit(FitProblem(target=sample(cur, 256),
                                 init=HOOK_AFFINE_GUESS, constraints=mode))
        else:
            res, _ = guess_and_fit(cur, mode, max_iter=600)
        assert res.converged
        assert len(set(inputs)) == len(inputs)
        stepless = res.message == "predicted decrease below rounding"
        assert res.iterations == len(steps) == len(inputs) - 1 + stepless
        # a rejection leaves the model as it is
        rejected = [(r0, n0, r1) for (m0, r0, n0), (m1, r1, _)
                    in zip(steps, steps[1:]) if m0 == m1]
        assert all(n0 > r1 for _, n0, r1 in rejected)
        assert sum(round(math.log(r0 / r1, 4)) - 1
                   for r0, _, r1 in rejected) == repeats

    @pytest.mark.parametrize("ell, message, iterations", [
        (1e-160, "model not finite", 0),
        (1e-300, "predicted decrease below rounding", 1)])
    def test_near_point_guess_returns(self, ell, message, iterations):
        """A guess whose shape is nearly one point: at ell = 1e-160 the
        alignment scales it by ~1e160 and the Hessian overflows; fit stops
        there, unconverged, without a warning.  At 1e-300 the alignment
        cannot scale it and the fit stops after one step."""
        tgt = elastica_target(BASE, 64)
        init = dataclasses.replace(BASE, s0=0.0, ell=ell)
        res = fit(FitProblem(target=tgt, init=init, max_iter=200))
        assert res.message == message and not res.converged
        assert res.iterations == iterations
        assert math.isfinite(res.objective)


@pytest.mark.parametrize("mode", ["none", "endpoints",
                                  "endpoints+tangents"])
@settings(derandomize=True, deadline=None, max_examples=10, database=None)
@given(name=st.sampled_from(CORPUS_NAMES),
       rho=st.floats(-math.pi, math.pi),
       vx=st.floats(-3.0, 3.0), vy=st.floats(-3.0, 3.0),
       log_c=st.floats(math.log(1e-3), math.log(1e3)))
def test_fit_rigid_motion_equivariance(mode, name, rho, vx, vy, log_c):
    """fit commutes with similarities: the corpus curve scaled by c,
    rotated by rho and moved by v gets the same R4, converges, and has the
    posed parameters (k, s0, ell equal, c w, phi + rho, c R (x0, y0) + v)."""
    c = math.exp(log_c)
    cur = load_curve(os.path.join(CORPUS_DIR, name + ".json"))
    R = np.array([[math.cos(rho), -math.sin(rho)],
                  [math.sin(rho), math.cos(rho)]])
    posed = BezierChain(c * cur.pieces @ R.T + (vx, vy))
    base, tgt0 = guess_and_fit(cur, mode, max_iter=600)
    res, tgt1 = guess_and_fit(posed, mode, max_iter=600)
    assert res.converged
    assert residual_r4(res.params, tgt1) == pytest.approx(
        residual_r4(base.params, tgt0), rel=1e-9)
    q0, q1 = base.params, res.params
    for a, b in ((q1.k, q0.k), (q1.s0, q0.s0), (q1.ell, q0.ell),
                 (q1.w / c, q0.w)):
        assert a == pytest.approx(b, abs=1e-6)
    dphi = (q1.phi - q0.phi - rho + math.pi) % (2 * math.pi) - math.pi
    assert abs(dphi) < 1e-6
    want = c * R @ np.array([q0.x0, q0.y0]) + (vx, vy)
    assert q1.x0 == pytest.approx(want[0], abs=1e-6 * c)
    assert q1.y0 == pytest.approx(want[1], abs=1e-6 * c)


@settings(derandomize=True, deadline=None, max_examples=12, database=None)
@given(name=st.sampled_from(CORPUS_NAMES))
def test_fit_reversal_invariance(name):
    """The free fit of a corpus curve traversed backwards reaches the same
    R4 as the forward fit."""
    cur = load_curve(os.path.join(CORPUS_DIR, name + ".json"))
    fwd, tgt0 = guess_and_fit(cur, "none", max_iter=600)
    bwd, tgt1 = guess_and_fit(BezierChain(cur.pieces[::-1, ::-1]), "none",
                              max_iter=600)
    assert residual_r4(bwd.params, tgt1) == pytest.approx(
        residual_r4(fwd.params, tgt0), rel=1e-9)
