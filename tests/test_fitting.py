"""Tests for the L2 objective, its derivatives, and the optimizers."""

import cmath
import dataclasses
import math
import os

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import NonlinearConstraint, least_squares, minimize

from elastica_fit import elastica, fitting
from elastica_fit.curve import BezierChain, CurveSamples, Polyline, \
    load_curve, sample
from elastica_fit.elastica import (
    K_MIN,
    ElasticaCurve,
    ElasticaParams,
    _angle_partials,
    _basic_zeta,
    basic_derivatives,
    basic_point,
    segment_eval_many,
    segment_partials,
)
from elastica_fit.elliptic import _jacobi_E, _quarter_period
from elastica_fit.errors import DomainError
from elastica_fit.fitting import (
    FitProblem,
    FitResult,
    _align_similarity,
    _ENDS,
    _constraint_jacobian,
    _constraint_values,
    _end_pose,
    _jacobi_E_at,
    _reduced_model,
    _restore,
    _row_space,
    _shifted_step,
    _unit_problem,
    _wrap_angle,
    fit,
    gradient_hessian,
    objective,
    residual_r4,
)

BASE = ElasticaParams(k=0.8, s0=0.2, ell=3.0, w=1.5, phi=0.7, x0=2.0, y0=-1.0)

#: corpus/hook.json's shape guess (256 samples) with (w, phi) from the affine
#: curvature fit and a least-squares translation: a similarity that is not
#: the aligned one
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
    """(guess, target) for each corpus curve."""
    from elastica_fit.recovery import initial_guess
    out = []
    for name in CORPUS_NAMES:
        tgt = sample(load_curve(os.path.join(CORPUS_DIR, name + ".json")), n)
        rep = initial_guess(tgt)
        out.append((rep.params, tgt))
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
            _, _, A, B, _ = _reduced_model(q, tgt, mode,
                                           _jacobi_E_at(q, tgt.tau))
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
            return _constraint_values(q, tgt, mode, _jacobi_E_at(q, _ENDS))

        J = _constraint_jacobian(pvec, mode)
        assert J.shape == (len(c(pvec)), 7)
        h = 1e-6
        for i in range(7):
            e = np.zeros(7)
            e[i] = h
            assert J[:, i] == pytest.approx((c(pvec + e) - c(pvec - e))
                                            / (2 * h), abs=1e-7)

    @pytest.mark.parametrize("mode", ["endpoints", "endpoints+tangents"])
    def test_backward_segment_meets_its_samples(self, mode):
        """At the exact parameters of a segment run backwards (ell < 0), c
        vanishes on the segment's own samples: dy/dt = ell * y_s points
        against y_s, so the tangent angle gains pi."""
        for k in (0.8, 1.3):
            p = dataclasses.replace(BASE, k=k, s0=3.2, ell=-3.0)
            q = p.as_array()
            c = _constraint_values(q, elastica_target(p), mode,
                                   _jacobi_E_at(q, _ENDS))
            assert np.max(np.abs(c)) <= 1e-12

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
            return _jacobi_E(s, k)

        for mod in (fitting, elastica):
            monkeypatch.setattr(mod, "_jacobi_E", counted)
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
            _reduced_model(q, tgt, mode, _jacobi_E_at(q, tgt.tau))
            (ends, out), = seen
            seen.clear()
            assert ends is not None
            ref = _constraint_jacobian(q, mode, True)
            assert len(out) == len(ref) == 2
            for a, b in zip(out, ref):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [0.3, 0.9, 1.2, 3.0])
    def test_angle_partials_mpmath(self, k):
        """theta_s, theta_ss, theta_k, theta_sk and theta_kk against mpmath
        derivatives of 2 atan2(k sn, dn)."""
        s = np.array([-0.7, 0.0, 0.4, 1.3, 2.9])
        th = _angle_partials(s, k, _jacobi_E(s, k))
        assert not th[:, 0].any()

        def theta(u, kk):
            sn, dn = (mp.re(mp.ellipfun(f, u, m=kk * kk)) for f in ("sn", "dn"))
            return 2 * mp.atan2(kk * sn, dn)

        with mp.workdps(30):
            for j, u in enumerate(s):
                ref = (mp.diff(lambda uu: theta(uu, k), u),
                       mp.diff(lambda uu: theta(uu, k), u, 2),
                       mp.diff(lambda kk: theta(u, kk), k),
                       mp.diff(theta, (u, k), (1, 1)),
                       mp.diff(lambda kk: theta(u, kk), k, 2))
                for a, b in zip(th[j, 1:], ref):
                    assert a == pytest.approx(float(b), rel=1e-11, abs=1e-12)


def test_second_k_derivative_below_k_min_raises():
    """Every path to the second k-derivative raises DomainError below K_MIN,
    the pinned constraint Hessians too, from the one check in
    _zeta_blocks; first partials are still evaluated there."""
    p = dataclasses.replace(BASE, k=K_MIN / 2)
    tgt = elastica_target(BASE, 64)
    for call in (lambda: gradient_hessian(p, tgt),
                 lambda: segment_partials(p, 0.3),
                 lambda: basic_derivatives(0.3, p.k),
                 lambda: _constraint_jacobian(p.as_array(),
                                              "endpoints+tangents", True)):
        with pytest.raises(DomainError, match="second k-derivative"):
            call()
    assert segment_partials(p, 0.3, second=False)[1] is None
    assert _constraint_jacobian(p.as_array(), "endpoints+tangents").shape \
        == (6, 7)


def _random_symmetric(rng, n, definite):
    """A random symmetric (n, n) matrix with eigenvalues in [0.1, 5] if
    definite, else in [-5, 5] with one of them below -0.1."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = rng.uniform(0.1, 5.0, n)
    if not definite:
        lam[1:] = rng.uniform(-5.0, 5.0, n - 1)
        lam[0] = -lam[0]
    return (Q * lam) @ Q.T


def _assert_step_optimal(A, b, radius, y, mu):
    """The trust-region step's optimality conditions: (A + mu I) y = -b,
    A + mu I positive semidefinite (mu >= max(0, -lambda_min)), and
    ||y|| <= radius."""
    lam_min = float(np.linalg.eigvalsh(A)[0])
    assert mu >= max(0.0, -lam_min)
    assert np.linalg.norm(A @ y + mu * y + b) <= 1e-10 * np.linalg.norm(b)
    assert np.linalg.norm(y) <= radius * (1 + 1e-9)


class TestTrustRegionStep:
    @pytest.mark.parametrize("n", [3, 4, 7])
    @pytest.mark.parametrize("definite", [True, False])
    def test_shifted_step_is_optimal(self, n, definite):
        """The step solves the trust-region subproblem: no shift (the
        Newton step) when A is positive definite and that step fits, else
        a shift mu > 0 that puts y on the boundary."""
        rng = np.random.default_rng(23 + 2 * n + definite)
        for _ in range(20):
            A = _random_symmetric(rng, n, definite)
            b = rng.normal(size=n)
            for radius in np.logspace(-3, 3, 13):
                y, mu, decrement = _shifted_step(A, b, radius)
                _assert_step_optimal(A, b, radius, y, mu)
                assert decrement == (pytest.approx(
                    0.5 * b @ np.linalg.solve(A, b), rel=1e-10)
                    if definite else math.inf)
                newton_fits = definite and (
                    np.linalg.norm(np.linalg.solve(A, b)) <= radius)
                assert (mu == 0.0) == newton_fits
                if mu > 0:
                    assert np.linalg.norm(y) >= radius * (1 - 1e-3)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_newton_step_from_the_arrays(self, n):
        """A positive definite model whose Newton step fits the radius gets
        that step, mu = 0, from the arrays; y and the decrement agree with
        the secular-equation loop's Python sums, y = -V (c_i / lambda_i) and
        1/2 sum c_i^2 / lambda_i with c = V^T b, to a few ulps, with
        eigenvalues that span up to 12 decades."""
        rng = np.random.default_rng(47 + n)
        for scale in (1.0, 1e-6, 1e6):
            for _ in range(30):
                Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                lam = scale * 10.0 ** rng.uniform(-6.0, 6.0, n)
                A = (Q * lam) @ Q.T
                b = rng.normal(size=n)
                lam, V = np.linalg.eigh(A)
                c = (V.T @ b).tolist()
                y_loop = -V @ np.array([ci / li for ci, li in zip(c, lam)])
                decrement_loop = 0.5 * sum(ci * ci / li
                                           for ci, li in zip(c, lam))
                for radius in (np.linalg.norm(y_loop) * (1.0 + 1e-12), 1e300):
                    y, mu, decrement = _shifted_step(A, b, radius)
                    assert mu == 0.0
                    np.testing.assert_array_max_ulp(y, y_loop, maxulp=4)
                    assert decrement == pytest.approx(
                        decrement_loop, rel=4 * n * np.finfo(float).eps)

    def test_shifted_step_zero_gradient(self):
        """b = 0: the zero step, unshifted when A is positive definite and
        at the first admissible shift max(0, -lambda_min) + 1e-12 when not."""
        rng = np.random.default_rng(31)
        for definite in (True, False):
            A = _random_symmetric(rng, 4, definite)
            y, mu, _ = _shifted_step(A, np.zeros(4), 1.0)
            assert not np.any(y)
            lam_min = float(np.linalg.eigvalsh(A)[0])
            assert mu == (0.0 if definite
                          else pytest.approx(1e-12 - lam_min, rel=1e-12))

    def test_shifted_step_hard_case(self):
        """b orthogonal to the lowest eigenvector: every admissible shift's
        step is shorter than a large radius, so the step is the one at the
        first admissible shift; a small radius is still reached."""
        rng = np.random.default_rng(37)
        for _ in range(10):
            A = _random_symmetric(rng, 5, False)
            lam, V = np.linalg.eigh(A)
            b = V[:, 1:] @ rng.normal(size=4)
            bound = np.linalg.norm(b / (lam[1:] - lam[0]).min())
            y, mu, _ = _shifted_step(A, b, 2.0 * bound)
            _assert_step_optimal(A, b, 2.0 * bound, y, mu)
            assert mu == pytest.approx(1e-12 - lam[0], rel=1e-9)
            assert np.linalg.norm(y) <= bound
            radius = 0.1 * np.linalg.norm(b) / (lam[-1] - lam[0])
            y, mu, _ = _shifted_step(A, b, radius)
            _assert_step_optimal(A, b, radius, y, mu)
            assert np.linalg.norm(y) >= radius * (1 - 1e-3)

    def test_shifted_step_near_point_model(self):
        """The reduced model at a guess of length 1e-300, whose eigenvalues
        span -1e297 to 2e299: the shift that reaches the radius lies within
        1e-2 of -lambda_min, closer than any other double, and A + mu I is
        singular to rounding at the first shift.  So the step is taken at
        its double, as when the shifts doubled: finite, fitting and
        optimal, and it promises no measurable decrease."""
        init, tgt = _unit_problem(dataclasses.replace(BASE, s0=0.0,
                                                      ell=1e-300),
                                  elastica_target(BASE, 64))
        q, _, jacobi_E, _ = _restore(init.as_array(), tgt, "none")
        _, b, A, _, _ = _reduced_model(q, tgt, "none", jacobi_E)
        lam = np.linalg.eigvalsh(A)
        assert lam[0] < -1e296 and lam[-1] > 1e299
        y, mu, _ = _shifted_step(A, b, 1.0)
        assert mu == pytest.approx(-2.0 * lam[0], rel=1e-9)
        assert np.all(np.isfinite(y))
        _assert_step_optimal(A, b, 1.0, y, mu)
        assert -(b @ y + 0.5 * y @ A @ y) < 1e-250

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

    def test_scipy_finds_no_lower_minimum(self):
        """An independent optimizer, scipy's Levenberg-Marquardt on finite
        differences, started at each converged corpus fit, lowers R4 by at
        most 1e-7 relative (the fits' gap is below 1e-10, except the
        near-exact shallow_arc's 2.7e-8)."""
        for p, tgt in _corpus_guesses():
            res = fit(FitProblem(target=tgt, init=p))
            assert res.converged
            q, unit = _unit_problem(res.params, tgt)
            tau = unit.s / unit.length
            root_w = np.sqrt(unit.weights)[:, None]

            def residuals(x):
                y = segment_eval_many(ElasticaParams.from_array(x), tau)
                return (root_w * (y - unit.points)).ravel()

            sol = least_squares(residuals, q.as_array(), method="lm",
                                jac="3-point")
            r4 = residual_r4(res.params, tgt)
            assert np.linalg.norm(sol.fun) >= r4 * (1.0 - 1e-7)


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

    @pytest.mark.filterwarnings("ignore:delta_grad == 0.0:UserWarning")
    @pytest.mark.parametrize("mode", ["endpoints", "endpoints+tangents"])
    def test_scipy_finds_no_lower_constrained_minimum(self, mode):
        """An independent optimizer, scipy's trust-constr with 3-point
        finite differences for the gradient of F and the Jacobian of c,
        started at each converged pinned corpus fit on the unit problem,
        finds no point on the constraints (max|c| <= 1e-10) with F lower
        by more than 1e-9 relative.  Only c comes from the package."""
        for p, tgt in _corpus_guesses():
            res = fit(FitProblem(target=tgt, init=p, constraints=mode))
            assert res.converged
            q, unit = _unit_problem(res.params, tgt)
            tau = unit.s / unit.length

            def F(x):
                d = segment_eval_many(ElasticaParams.from_array(x), tau)
                d -= unit.points
                return 0.5 * float(unit.weights @ np.sum(d * d, axis=1))

            def c(x):
                return _constraint_values(x, unit, mode,
                                          _jacobi_E_at(x, _ENDS))

            x = q.as_array()
            sol = minimize(F, x, method="trust-constr", jac="3-point",
                           constraints=NonlinearConstraint(
                               c, 0.0, 0.0, jac="3-point"),
                           options={"gtol": 1e-14, "xtol": 1e-14})
            assert (np.max(np.abs(c(sol.x))) > 1e-10
                    or F(sol.x) >= F(x) * (1.0 - 1e-9)), (sol.fun, F(x))

    def test_exact_elastica_with_constraints(self):
        rng = np.random.default_rng(17)
        tgt = elastica_target(BASE, 512)
        res = fit(FitProblem(target=tgt, init=perturbed(BASE, rng),
                             constraints="endpoints+tangents"))
        assert res.converged
        assert res.objective <= 1e-10
        assert res.constraint_violation <= 1e-10


class TestEndPose:
    @pytest.mark.parametrize("ell", [3.0, -3.0])
    @pytest.mark.parametrize("k", [0.3, 0.8, 1.3, 3.0])
    def test_matches_scalar_curve(self, k, ell):
        """The end points and tangent angles against ElasticaCurve's scalar
        point and the angle of its derivative, also for a segment run
        backwards (ell < 0)."""
        p = dataclasses.replace(BASE, k=k, ell=ell)
        q = p.as_array()
        points, angles = _end_pose(q, _jacobi_E_at(q, _ENDS))
        cur = ElasticaCurve(p)
        for t, y, a in zip((0.0, 1.0), points, angles):
            ref = cur.point(t)
            assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)
            d = cur.derivative(t)
            assert abs(_wrap_angle(a - math.atan2(d[1], d[0]))) <= 1e-13


#: a closed cubic: both ends at the origin
CLOSED_LOOP = BezierChain([[[0, 0], [2, 2], [-2, 2], [0, 0]]])

#: a Bezier chain whose initial guess has k ~ 0.1, where the tangent
#: constraints' J is nearly rank-deficient; its endpoints+tangents fit walks
#: toward k = 1 (ROADMAP item 4)
SMALL_MODULUS_BEZIER = BezierChain([
    [[-1.503, -0.943], [-1.293, -0.719], [-1.157, -0.348], [-1.023, -0.043]],
    [[-1.023, -0.043], [-0.864, 0.319], [-0.535, 0.548], [-0.366, 0.738]],
    [[-0.366, 0.738], [-0.135, 0.999], [0.139, 1.293], [0.306, 1.506]]])


def guess_and_fit(cur, constraints, n=256, **kw):
    """The CLI's fit mode: sample, initial guess, fit; (result, target)."""
    from elastica_fit.recovery import initial_guess
    tgt = sample(cur, n)
    rep = initial_guess(tgt)
    res = fit(FitProblem(target=tgt, init=rep.params,
                         constraints=constraints, **kw))
    return res, tgt


#: curves of tools/convergence_census.py at seed 1 (curves 15, 0 and 17)
#: whose fit from the guess failed, one per failure class of the census;
#: CENSUS_CRAWL's free fit crawled near k = 1 until its window was kept
#: within one period.  CENSUS_MIRROR (seed 2, curve 86) is a free fit whose
#: model steps to k < 0: while _project clipped such a trial to K_MIN it
#: took the same trial again and collapsed there after 23 iterations at
#: R4 0.119; mirrored it converges in 14 at R4 0.0458
CENSUS_CRAWL = Polyline([
    [-0.3231959257858299, -0.13664959629588416],
    [-0.9879772617816823, -0.6631644364111211],
    [-2.2524700526013945, -0.14437951553315698],
    [-3.394988070253887, -0.8902359137214819],
    [-3.0357434182426823, -0.48766254777694956],
    [-3.4358581692477532, -2.506928358265751],
    [-3.0153448819521778, -2.2473648993736917]])
CENSUS_UNRESTORED = BezierChain([
    [[0.8216181435011584, 0.33043707618338714],
     [-1.303157231604361, 0.9053558666731177],
     [0.4463745723640113, -0.5369532353602852],
     [0.5811181041963531, 0.36457239618607573]],
    [[0.5811181041963531, 0.36457239618607573],
     [0.6754385764789924, 0.9956403382685283],
     [-0.16290994799305278, -0.48211931267997826],
     [0.5988462126346276, 0.03972210748165899]]])
CENSUS_MIRROR = BezierChain([
    [[-0.3528880178783862, -0.5512251103688909],
     [-1.3634700197370142, 0.27403520232532497],
     [0.11465111352550032, -0.078996604649194],
     [0.7430425384537229, -0.6816146057535568]],
    [[0.7430425384537229, -0.6816146057535568],
     [1.1829165359034788, -1.1034472065266108],
     [-0.29052312994818347, 0.3210104390830905],
     [-1.3148454096073832, -1.5342612182390116]]])
CENSUS_COLLAPSE = BezierChain([
    [[-1.6057480583244386, 1.8122301162723733],
     [-0.602658614543728, -1.539659308496411],
     [0.6188421885671495, -0.3548041301011767],
     [0.32485848577290377, -0.33960843062503854]]])


@pytest.mark.parametrize("cur, mode", [
    pytest.param(CENSUS_CRAWL, "none", id="free-crawl-near-one"),
    pytest.param(CENSUS_MIRROR, "none", id="free-collapse-at-k-min"),
    pytest.param(CENSUS_UNRESTORED, "endpoints", id="start-not-restored",
                 marks=pytest.mark.xfail(
                     strict=True, raises=AssertionError, reason=(
                         "ROADMAP item 3: Gauss-Newton leaves the guess at "
                         "max|c| 0.285, 'constraints not restored' after 0 "
                         "iterations"))),
    pytest.param(CENSUS_COLLAPSE, "endpoints+tangents",
                 id="pinned-collapse-near-one", marks=pytest.mark.xfail(
                     strict=True, raises=AssertionError, reason=(
                         "ROADMAP item 4: 'trust region collapsed' at "
                         "k = 0.99999931 after 93 iterations"))),
])
def test_census_curve_converges(cur, mode):
    """A census curve fits from its guess (256 samples, max_iter 1000), as
    the census runs it, to the stop."""
    res, _ = guess_and_fit(cur, mode, max_iter=1000)
    assert res.converged, (res.message, res.iterations, res.params.k)


#: R4 of the corpus fits (256 samples, max_iter 600) in the modes none,
#: endpoints and endpoints+tangents, each within 1e-10 relative of its
#: minimum
CORPUS_R4 = {
    "arc_asym": (0.00019474894025111252, 0.00027593069917236694,
                 0.000894982575248915),
    "deep_arc": (0.0021423481901755117, 0.0026647142496916817,
                 0.005818376955816655),
    "hook": (0.02136630857885178, 0.02912035259045425, 0.08851410449830378),
    "loop": (0.003595695784866678, 0.0036469629238504294,
             0.008001463126840188),
    "loop_wide": (0.012524012063466067, 0.015317319759555298,
                  0.14110722865072195),
    "s_curve": (0.0009248284840746587, 0.001147663578346854,
                0.0021852903541498664),
    "s_curve_deep": (0.001273750544913025, 0.00127420102031579,
                     0.0018094379690696675),
    "shallow_arc": (1.3635137873531476e-06, 1.849278393929299e-06,
                    4.952426254558149e-06),
    "shallow_arc_tilt": (8.824799541644233e-05, 0.00012396855950650397,
                         0.0003951446170982607),
    "shallow_s": (0.0001007143742233323, 0.0001302089244717897,
                  0.0002881792037456923),
    "wave_multi_lobe": (0.026796551608253498, 0.052695131482003985,
                        0.06509867529480398),
    "wave_two_lobe": (0.01011840062498687, 0.013747125459488354,
                      0.02021629188287925),
}


def test_corpus_iteration_budget():
    """Every corpus fit converges to its CORPUS_R4 at 1e-9 relative, and
    each mode's iterations stay within its measured total."""
    budget = {"none": 115, "endpoints": 111, "endpoints+tangents": 38}
    total = dict.fromkeys(budget, 0)
    for name in CORPUS_NAMES:
        cur = load_curve(os.path.join(CORPUS_DIR, name + ".json"))
        for mode, r4 in zip(budget, CORPUS_R4[name]):
            res, _ = guess_and_fit(cur, mode, max_iter=600)
            assert res.converged, (name, mode, res.message)
            assert res.r4 == pytest.approx(r4, rel=1e-9), (name, mode)
            total[mode] += res.iterations
    assert all(total[mode] <= budget[mode] for mode in budget), total


def test_free_fit_from_a_far_window_converges():
    """loop_wide from a guess perturbed by about 30% in shape, its window's
    middle 1.76 periods out: with the window left where the steps take it,
    the free fit crawled to k = 1.000000145 at R4 0.0305 over 2000
    iterations; kept within one period, it reaches the corpus minimum."""
    tgt = sample(load_curve(os.path.join(CORPUS_DIR, "loop_wide.json")), 256)
    init = ElasticaParams(
        k=1.0755940102363262, s0=6.449305481888083, ell=3.0801794867557573,
        w=0.5592313485648029, phi=2.7457821677896925,
        x0=-0.8130396519514714, y0=1.3630345569783493)
    res = fit(FitProblem(target=tgt, init=init, max_iter=2000))
    assert res.converged and res.iterations <= 40, res.iterations
    assert res.r4 == pytest.approx(CORPUS_R4["loop_wide"][0], rel=1e-9)


@pytest.mark.parametrize("j", [-2, 1, 3])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_free_fit_is_period_invariant(name, j):
    """zeta(s + P) = zeta(s) + T, P = 4K and T = 2E(P) - P, so the guess
    with s0 + jP and x0 + i y0 - j w e^(i phi) T is the same segment.  A
    free fit from it takes the same steps to the same points, and reports
    the window whose middle lies within half a period of 0."""
    from elastica_fit.recovery import initial_guess
    cur = load_curve(os.path.join(CORPUS_DIR, name + ".json"))
    base, tgt = guess_and_fit(cur, "none", max_iter=600)
    g = initial_guess(tgt).params
    P = 4.0 * _quarter_period(g.k)
    c = (complex(g.x0, g.y0)
         - j * cmath.rect(g.w, g.phi) * (2.0 * _jacobi_E(P, g.k)[3] - P))
    moved = dataclasses.replace(g, s0=g.s0 + j * P, x0=c.real, y0=c.imag)
    t = np.linspace(0.0, 1.0, 65)
    tol = 1e-9 * tgt.length
    assert np.max(np.abs(segment_eval_many(moved, t)
                         - segment_eval_many(g, t))) <= tol
    res = fit(FitProblem(target=tgt, init=moved, max_iter=600))
    assert res.converged and res.iterations == base.iterations
    assert np.max(np.abs(segment_eval_many(res.params, t)
                         - segment_eval_many(base.params, t))) <= tol
    q = res.params
    assert abs(q.s0 + 0.5 * q.ell) <= 2.0 * _quarter_period(q.k) * (1 + 1e-12)


@pytest.mark.parametrize("q", [
    pytest.param([0.5, math.nan, 1.0, 1.0, 0.0, 0.0, 0.0], id="nan-s0"),
    pytest.param([math.nan, 0.5, 1.0, 1.0, 0.0, 0.0, 0.0], id="nan-k"),
    pytest.param([0.5, 0.5, math.inf, 1.0, 0.0, 0.0, 0.0], id="inf-ell"),
])
def test_free_restore_of_a_non_finite_window_raises_domain_error(q):
    """A point whose window's period count (s0 + ell/2) / P is not finite
    keeps its s0 and reaches the DomainError that fit catches, not a
    ValueError or OverflowError from rounding that count.  An infinite ell
    meets numpy's invalid-value warning on the way."""
    tgt = elastica_target(BASE, 64).unit
    with np.errstate(invalid="ignore"), pytest.raises(DomainError):
        _restore(np.array(q), tgt, "none")


@pytest.mark.parametrize("mode", ["none", "endpoints", "endpoints+tangents"])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_guess_fits_the_samples_as_given(name, mode):
    """initial_guess describes the samples it was given, so a fit of those
    samples from it converges in every mode, on arc_asym too, whose guess
    runs its segment backwards."""
    cur = load_curve(os.path.join(CORPUS_DIR, name + ".json"))
    res, _ = guess_and_fit(cur, mode, max_iter=600)
    assert res.converged
    assert res.constraint_violation <= 1e-10


@pytest.mark.parametrize("points, speed", [
    pytest.param(np.column_stack([np.arange(17.0), np.arange(17.0) ** 2]),
                 0.0, id="zero-speeds"),
    pytest.param(np.zeros((17, 2)), 1.0, id="points-at-origin"),
])
def test_align_similarity_keeps_pvec_without_a_similarity(points, speed):
    """Samples of zero total weight (zero speeds), or whose points are all
    at the origin (the optimal similarity is 0), have no alignment to
    give: _align_similarity returns the very pvec it was given."""
    t = np.linspace(0.0, 1.0, 17)
    smp = CurveSamples(t=t, points=points, speeds=np.full(17, speed),
                       s=t.copy(), theta=np.zeros(17), kappa=np.zeros(17))
    p = BASE.as_array()
    q, z = _align_similarity(p, smp, _jacobi_E_at(p, smp.tau))
    assert q is p
    assert np.all(np.isfinite(z))


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
            p, _ = _align_similarity(p, tgt, _jacobi_E_at(p, tgt.tau))

            def F(n):
                q = p.copy()
                q[:3] = n
                q, _ = _align_similarity(q, tgt, _jacobi_E_at(q, tgt.tau))
                return objective(ElasticaParams.from_array(q), tgt)

            _, gr, A, _, _ = _reduced_model(p, tgt, "none",
                                         _jacobi_E_at(p, tgt.tau))
            n0 = p[:3]
            g_fd = np.array([(F(n0 + e) - F(n0 - e)) / (2 * h) for e in E])
            H_fd = np.array([[(F(n0 + a + b) - F(n0 + a - b)
                               - F(n0 - a + b) + F(n0 - a - b)) / (4 * h * h)
                              for b in E] for a in E])
            assert np.linalg.norm(gr - g_fd) <= 1e-5 * np.linalg.norm(g_fd)
            assert np.linalg.norm(A - H_fd) <= 1e-5 * np.linalg.norm(H_fd)


    @pytest.mark.parametrize("mode", ["endpoints", "endpoints+tangents"])
    @pytest.mark.parametrize("k", [0.6, 1.5])
    def test_pinned_second_order_correction(self, mode, k):
        """At a pinned point c(q) = 0 in the regular chart, a null-space
        step d = Z y leaves c(q + d) = O(|y|^2), and the model's correction
        soc(d) = d - J^+ 1/2 [d^T Hess c_i d]_i leaves O(|y|^3): for
        |y| = h, h/2, h/4, max|c| falls about 4 times per halving without
        it and about 8 times with it.  c is evaluated on its own, so this
        checks the constraint Hessians the correction is built from."""
        rng = np.random.default_rng(53)
        tgt = elastica_target(dataclasses.replace(BASE, k=k, s0=0.4), 64)
        q, cviol, jacobi_E, _ = _restore(
            dataclasses.replace(BASE, k=k).as_array(), tgt, mode, False)
        assert cviol <= 1e-14
        _, _, _, Z, soc = _reduced_model(q, tgt, mode, jacobi_E)
        y = rng.normal(size=Z.shape[1])
        y /= np.linalg.norm(y)

        def c(x):
            return np.max(np.abs(_constraint_values(x, tgt, mode,
                                                    _jacobi_E_at(x, _ENDS))))

        plain, corrected = [], []
        for h in (1e-2, 5e-3, 2.5e-3):
            d = h * (Z @ y)
            plain.append(c(q + d))
            corrected.append(c(q + soc(d)))
        for a, b in zip(plain, plain[1:]):
            assert 3.8 <= a / b <= 4.2, plain
        for a, b in zip(corrected, corrected[1:]):
            assert 7.6 <= a / b <= 8.4, corrected
        assert corrected[0] <= 1e-2 * plain[0]

    def test_singular_similarity_block(self):
        """A guess whose shape is one point (s0 = 0, ell = 5e-324) gives w
        and phi no effect, so the similarity block of H is singular and
        solve refuses it.  The model then keeps the similarity fixed,
        B = [I; 0], and the fit still reaches the target."""
        tgt = elastica_target(BASE, 64)
        init = dataclasses.replace(BASE, s0=0.0, ell=5e-324)
        q, _, jacobi_E, _ = _restore(init.as_array(), tgt, "none")
        _, H = gradient_hessian(ElasticaParams.from_array(q), tgt, jacobi_E)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(H[3:, 3:], H[3:, :3])
        _, gr, A, B, soc = _reduced_model(q, tgt, "none", jacobi_E)
        assert np.array_equal(B, np.eye(7, 3)) and soc is None
        assert np.all(np.isfinite(gr)) and np.all(np.isfinite(A))
        res = fit(FitProblem(target=tgt, init=init, max_iter=200))
        assert res.converged
        assert residual_r4(res.params, tgt) <= 1e-9


@pytest.mark.parametrize("layout", ["fortran", "column_strided",
                                    "row_strided"])
def test_target_points_in_any_layout(layout):
    """The kernels read the target's points as complex numbers.  Points
    that are Fortran-ordered, or a view into a larger array, give bitwise
    the objective, gradient, Hessian, guess and free and pinned fits of
    their C-ordered copy."""
    from elastica_fit.recovery import initial_guess
    tgt = sample(load_curve(os.path.join(CORPUS_DIR, "s_curve.json")), 128)
    if layout == "fortran":
        pts = np.asfortranarray(tgt.points)
    elif layout == "column_strided":
        pts = np.zeros((len(tgt.t), 4))[:, ::2]
        pts[...] = tgt.points
    else:
        pts = np.repeat(tgt.points, 2, axis=0)[::2]
    assert not pts.flags.c_contiguous and np.array_equal(pts, tgt.points)
    odd = dataclasses.replace(tgt, points=pts)
    guess = initial_guess(tgt)
    assert initial_guess(odd) == guess
    p = guess.params
    assert objective(p, odd) == objective(p, tgt)
    for a, b in zip(gradient_hessian(p, odd), gradient_hessian(p, tgt)):
        assert np.array_equal(a, b)
    for mode in ("none", "endpoints+tangents"):
        res = fit(FitProblem(target=odd, init=p, constraints=mode))
        assert res == fit(FitProblem(target=tgt, init=p, constraints=mode))
        assert res.converged


class TestOneEvaluationPerPoint:
    @pytest.mark.parametrize("mode", ["none", "endpoints+tangents"])
    def test_one_node_evaluation_per_restored_point(self, mode, monkeypatch):
        """Inside fit, sn, cn, dn and E are evaluated at the target's nodes
        once per restored point (the initial one and every trial) and
        nowhere else: F, gradient_hessian, the alignment and the
        constraint rows read that evaluation.  Two evaluations share
        (k, s) only where the loop restores the same shape twice.  Outside
        _restore, a pinned fit evaluates once more, at the end nodes of the
        mapped-back result.  _restore returns F with the point: in every
        mode fit calls objective once per restored point, on the basic zeta
        values formed from that point's evaluation.
        A trial restored only to max|c| > 1e-10 is evaluated nowhere."""
        from elastica_fit.recovery import initial_guess
        cur = load_curve(os.path.join(CORPUS_DIR, "s_curve.json"))
        tgt = sample(cur, 256)
        rep = initial_guess(tgt)
        full, shapes, outside, inside = [], [], [], []
        ends, zeta_ends, steps, angles = [], [], [], []
        objectives = []
        real_blocks = elastica._zeta_blocks

        def counted(s, k):
            if len(s) == len(tgt.t):
                full.append((float(k), np.asarray(s).tobytes()))
            elif inside:
                ends.append(len(s))
            if not inside:
                outside.append(len(s))
            return _jacobi_E(s, k)

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

        def counted_objective(*args):
            # inside holds the trial flag of the _restore call running
            objectives.append(inside[-1] if inside else None)
            return objective(*args)

        def restore(q, target, mode, trial=True):
            before = len(full)
            inside.append(trial)
            out = _restore(q, target, mode, trial)
            inside.pop()
            evaluated = out[2] is not None
            assert evaluated == (not trial or out[1] <= 1e-10)
            assert len(full) == before + evaluated and len(out) == 4
            if evaluated:
                shapes.append(out[0][:3].tobytes())
            return out

        for mod in (fitting, elastica):
            monkeypatch.setattr(mod, "_jacobi_E", counted)
        monkeypatch.setattr(elastica, "_zeta_blocks", zeta_blocks)
        monkeypatch.setattr(fitting, "_row_space", row_space)
        monkeypatch.setattr(fitting, "_angle_partials", angle_partials)
        monkeypatch.setattr(fitting, "_restore", restore)
        monkeypatch.setattr(fitting, "objective", counted_objective)
        res = fit(FitProblem(target=tgt, init=rep.params, constraints=mode))
        assert res.converged and res.iterations >= 3
        assert len(full) == len(shapes) > 3
        trials = [True] * (len(shapes) - 1)
        assert objectives == [False] + trials
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

    def test_free_restore_f_is_objective(self):
        """The free _restore's F, objective on the alignment's basic zeta
        values, is objective at the restored point to the last bit: from
        random points against exact and corpus targets, k on both sides of
        1, and with w clamped to 1e-9 by the projection."""
        rng = np.random.default_rng(43)
        targets = [_unit_problem(BASE, sample(load_curve(os.path.join(
            CORPUS_DIR, name + ".json")), 256))[1] for name in CORPUS_NAMES]
        targets += [_unit_problem(BASE, elastica_target(random_params(rng)))[1]
                    for _ in range(8)]
        for tgt in targets:
            for far in (False, True):
                q = random_params(rng).as_array()
                if far:
                    q[2] *= 1e12    # aligned w < 1e-9, which _project clamps
                q, _, jacobi_E, f = _restore(q, tgt, "none")
                assert (q[3] == 1e-9) == far
                p = ElasticaParams.from_array(q)
                z = _basic_zeta(q, tgt.tau, jacobi_E)
                assert f == objective(p, tgt, z) == objective(p, tgt)


class TestFitOnManifold:
    def test_pinned_shallow_s_converges(self):
        cur = load_curve(os.path.join(CORPUS_DIR, "shallow_s.json"))
        res, _ = guess_and_fit(cur, "endpoints", max_iter=600)
        assert res.converged
        assert res.iterations <= 100
        assert res.constraint_violation <= 1e-10

    def test_hook_with_tangents_converges(self):
        """From HOOK_AFFINE_GUESS, a similarity that is not the aligned one,
        the hook's tangent fit converges: its Newton decrement falls below
        what F resolves (4 iterations), before the rounding floor that no
        step's ratio test can pass."""
        tgt = sample(load_curve(os.path.join(CORPUS_DIR, "hook.json")), 256)
        res = fit(FitProblem(target=tgt, init=HOOK_AFFINE_GUESS,
                             constraints="endpoints+tangents"))
        assert res.converged
        assert res.message == "decrement below resolution"
        assert res.constraint_violation <= 1e-10

    def test_hook_with_tangents_from_guess_is_short(self):
        """From initial_guess, whose similarity is the closed-form
        alignment, the hook's tangent fit converges within 6 iterations
        (it takes 4 from HOOK_AFFINE_GUESS)."""
        cur = load_curve(os.path.join(CORPUS_DIR, "hook.json"))
        res, _ = guess_and_fit(cur, "endpoints+tangents")
        assert res.converged
        assert res.iterations <= 6
        assert res.constraint_violation <= 1e-10

    def test_restores_small_modulus_guess(self):
        """From a k ~ 0.1 guess, where J is nearly rank-deficient, capped
        Gauss-Newton steps reach the tangent constraints (uncapped ones
        run off to max|c| ~ 55)."""
        res, _ = guess_and_fit(SMALL_MODULUS_BEZIER, "endpoints+tangents",
                               max_iter=5)
        assert res.iterations == 5
        assert res.constraint_violation <= 1e-10

    def test_small_modulus_restorations_stop(self, monkeypatch):
        """SMALL_MODULUS_BEZIER's tangent fit at 1024 samples walks toward
        k = 1, where its trials cannot be restored to 1e-10.  A trial's
        Gauss-Newton stops once a step does not halve max|c|, so no
        restoration runs all 20 steps, and the fit makes at most 4
        constraint evaluations per restoration (uncorrected trials, stopped
        only when max|c| rose above its start: 32 of 120 restorations ran
        all 20 steps, with 1155 evaluations).  The fit still ends short of
        convergence near k = 1 (ROADMAP item 4)."""
        evaluations, per_restore = [], []
        real_values, real_restore = fitting._constraint_values, _restore

        def constraint_values(*args):
            evaluations.append(1)
            return real_values(*args)

        def restore(*args):
            before = len(evaluations)
            out = real_restore(*args)
            per_restore.append(len(evaluations) - before)
            return out

        monkeypatch.setattr(fitting, "_constraint_values", constraint_values)
        monkeypatch.setattr(fitting, "_restore", restore)
        guess_and_fit(SMALL_MODULUS_BEZIER, "endpoints+tangents", n=1024,
                      max_iter=600)
        assert per_restore.count(21) == 0, per_restore
        assert len(evaluations) <= 4 * len(per_restore), (
            len(evaluations), len(per_restore))

    def test_small_modulus_tangent_fit_ends(self):
        """SMALL_MODULUS_BEZIER's tangent fit at 1024 samples ends, by any
        stop, within 100 of its 600 iterations.  It ran to 'max_iter
        reached' at R4 0.0357431 (ROADMAP item 7) while _project clipped
        k < 0 to K_MIN; mirrored, it collapses near k = 1 after 94 at R4
        0.0357140.  Item 7's accepted decreases below F's resolution are
        not mended by that, and this fit no longer shows them."""
        res, _ = guess_and_fit(SMALL_MODULUS_BEZIER, "endpoints+tangents",
                               n=1024, max_iter=600)
        assert res.iterations <= 100, (res.message, res.iterations, res.r4)

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
        valid ElasticaParams, so _restore raises DomainError for it; the
        loop turns it down like a non-finite objective and goes on, so
        _project needs no ell clamp."""
        rng = np.random.default_rng(41)
        tgt = elastica_target(BASE, 256)
        inputs = []
        real = fitting._restore

        def restore(q, target, mode, trial=True):
            if len(inputs) == 1:
                q = q.copy()
                q[2] = 0.0
            inputs.append((q, target))
            return real(q, target, mode, trial)

        monkeypatch.setattr(fitting, "_restore", restore)
        res = fit(FitProblem(target=tgt, init=perturbed(BASE, rng)))
        q, unit = inputs[1]
        assert q[2] == 0.0 and len(inputs) > 2
        with pytest.raises(DomainError):
            real(q, unit, "none")
        assert res.converged and res.objective <= 1e-10

    @pytest.mark.parametrize("name, mode, init", [
        ("deep_arc", "endpoints", ElasticaParams(
            k=0.59, s0=6.22, ell=2.14, w=1.35, phi=1.73, x0=1.82, y0=-4.35)),
        ("shallow_arc", "endpoints+tangents", ElasticaParams(
            k=0.23, s0=2.48, ell=0.73, w=3.02, phi=0.2, x0=-7.33, y0=-3.43))])
    def test_start_restored_past_a_rising_step(self, name, mode, init,
                                               monkeypatch):
        """Gauss-Newton lowers ||c||_2, not max|c|: from these guesses the
        first step of the start's restoration raises max|c| above its
        start (0.13 -> 0.40 and 0.62 -> 0.64), and later steps bring it
        below 1e-10.  Only a trial's restoration stops at such a step,
        where stopping just rejects the trial; the start's goes on, and the
        fit converges."""
        real = fitting._constraint_values
        seen = []

        def constraint_values(*args):
            c = real(*args)
            seen.append(float(np.max(np.abs(c))))
            return c

        monkeypatch.setattr(fitting, "_constraint_values", constraint_values)
        tgt = sample(load_curve(os.path.join(CORPUS_DIR, name + ".json")), 256)
        res = fit(FitProblem(target=tgt, init=init, constraints=mode))
        assert seen[1] > seen[0]
        assert res.converged and res.constraint_violation <= 1e-10

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

    @pytest.mark.parametrize("name, mode", [
        ("shallow_s", "endpoints"), ("shallow_s", "none")])
    def test_repeated_trial_is_not_restored(self, name, mode, monkeypatch):
        """A rejection sets the radius to a quarter of the shorter of the
        radius and the rejected step, which the step for that radius cannot
        repeat.  So every iteration restores a new point."""
        inputs, steps = [], []
        real = fitting._restore

        def restore(q, target, mode, trial=True):
            inputs.append(q.tobytes())
            return real(q, target, mode, trial)

        def shifted_step(A, b, radius):
            y, mu, decrement = _shifted_step(A, b, radius)
            steps.append((A.tobytes() + b.tobytes(), radius,
                          np.linalg.norm(y)))
            return y, mu, decrement

        monkeypatch.setattr(fitting, "_restore", restore)
        monkeypatch.setattr(fitting, "_shifted_step", shifted_step)
        cur = load_curve(os.path.join(CORPUS_DIR, name + ".json"))
        res, _ = guess_and_fit(cur, mode, max_iter=600)
        assert res.converged
        assert len(set(inputs)) == len(inputs)
        # the final model's step is computed, for its decrement, not taken
        assert res.iterations == len(steps) - 1 == len(inputs) - 1
        # a rejection leaves the model as it is
        rejected = [(r0, n0, r1) for (m0, r0, n0), (m1, r1, _)
                    in zip(steps, steps[1:]) if m0 == m1]
        assert rejected
        assert all(r1 == 0.25 * min(r0, n0) and n0 > r1
                   for r0, n0, r1 in rejected)

    @pytest.mark.parametrize("ell, message, iterations", [
        (1e-160, "model not finite", 0),
        (1e-300, "trust region collapsed", 1)])
    def test_near_point_guess_returns(self, ell, message, iterations):
        """A guess whose shape is nearly one point: at ell = 1e-160 the
        alignment scales it by ~1e160 and the Hessian overflows; fit stops
        there, unconverged, without a warning.  At 1e-300 the alignment
        cannot scale it, and the one step's trial is rejected with a
        radius below 1e-13: unconverged too."""
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
