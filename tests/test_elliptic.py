"""Tests for the elliptic-function layer.

Oracles: an RK4 integration of the defining ODE system for (sn, cn, dn),
adaptive quadrature for the integrals, mpmath for spot values, and
scipy.special's Cephes routines on random draws.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipeinc, ellipj

from elastica_fit.elliptic import (
    K_GUARD_BAND,
    _jacobi_E,
    am,
    incomplete_E,
    incomplete_F,
    jacobi,
    quarter_period,
)
from elastica_fit.errors import DomainError, SingularModulusError

K_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
          1.05, 1.1, 1.2, 1.4, 1.6, 1.8, 2.0]


def rk4_jacobi(u, k, h=1e-5):
    """Integrate sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn from 0 to u."""
    def deriv(y):
        s, c, d = y
        return np.array([c * d, -s * d, -k * k * s * c])

    n = int(round(abs(u) / h))
    h = u / n
    y = np.array([0.0, 1.0, 1.0])
    for _ in range(n):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * h * k1)
        k3 = deriv(y + 0.5 * h * k2)
        k4 = deriv(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


class TestJacobi:
    def test_initial_conditions(self):
        assert jacobi(0.0, 0.3) == (0.0, 1.0, 1.0)

    def test_quarter_period_values(self):
        K = quarter_period(0.7)
        sn, cn, dn = jacobi(K, 0.7)
        assert sn == pytest.approx(1.0, abs=1e-12)
        assert cn == pytest.approx(0.0, abs=1e-12)
        assert dn == pytest.approx(math.sqrt(1 - 0.49), abs=1e-12)

    def test_ode_oracle(self):
        got = np.array(jacobi(2.0, 0.5))
        want = rk4_jacobi(2.0, 0.5)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_extended_domain_identities(self):
        sn, cn, dn = jacobi(1.0, 1.5)
        sni, cni, dni = jacobi(1.5, 1.0 / 1.5)
        assert sn == pytest.approx(sni / 1.5, abs=1e-14)
        assert cn == pytest.approx(dni, abs=1e-14)
        assert dn == pytest.approx(cni, abs=1e-14)

    def test_extended_domain_vs_ode(self):
        # the defining ODE system is modulus-agnostic, so it is also an
        # oracle for k > 1
        got = np.array(jacobi(1.3, 1.4))
        want = rk4_jacobi(1.3, 1.4)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            jacobi(math.nan, 0.5)
        with pytest.raises(DomainError):
            jacobi(1.0, math.inf)

    def test_guard_band(self):
        with pytest.raises(SingularModulusError):
            jacobi(1.0, 1.0)
        with pytest.raises(SingularModulusError):
            jacobi(1.0, 1.0 + 0.5 * K_GUARD_BAND)


class TestAm:
    def test_zero(self):
        assert am(0.0, 0.8) == 0.0

    def test_quarter_period(self):
        assert am(quarter_period(0.6), 0.6) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_roundtrip(self):
        assert am(incomplete_F(1.1, 0.6), 0.6) == pytest.approx(1.1, abs=1e-10)

    def test_monotone_and_periodic(self):
        k = 0.85
        K = quarter_period(k)
        u = np.linspace(-8, 8, 400)
        vals = np.array([am(ui, k) for ui in u])
        assert np.all(np.diff(vals) > 0)
        for ui in (-2.0, 0.3, 5.0):
            assert am(ui + 2 * K, k) == pytest.approx(am(ui, k) + math.pi, abs=1e-10)

    def test_rejects_k_ge_1(self):
        with pytest.raises(DomainError):
            am(1.0, 1.5)


class TestIncompleteF:
    def test_k0_is_identity(self):
        for phi in (-2.0, 0.4, 3.1):
            assert incomplete_F(phi, 0.0) == phi

    def test_complete_value(self):
        for k in (0.3, 0.8):
            assert incomplete_F(math.pi / 2, k) == pytest.approx(
                quarter_period(k), abs=1e-14)

    def test_quadrature_oracle(self):
        want, _ = quad(lambda t: 1 / math.sqrt(1 - 0.81 * math.sin(t) ** 2), 0, 0.8,
                       epsabs=1e-13)
        assert incomplete_F(0.8, 0.9) == pytest.approx(want, abs=1e-10)

    def test_odd(self):
        for phi, k in [(0.7, 0.5), (2.3, 0.9)]:
            assert incomplete_F(-phi, k) == pytest.approx(-incomplete_F(phi, k),
                                                          abs=1e-13)

    def test_rejects_k_ge_1(self):
        with pytest.raises(DomainError):
            incomplete_F(0.5, 1.2)


class TestIncompleteE:
    def test_k0_is_identity(self):
        for u in (-1.0, 0.6, 4.2):
            assert incomplete_E(u, 0.0) == u

    def test_extension_identity(self):
        for u in (0.4, 1.0, 2.7):
            want = 1.4 * incomplete_E(1.4 * u, 1 / 1.4) + u * (1 - 1.96)
            assert incomplete_E(u, 1.4) == pytest.approx(want, abs=1e-12)

    def test_quadrature_oracle(self):
        def dn2(t, k):
            return jacobi(t, k).dn ** 2

        for u, k in [(1.3, 0.7), (2.1, 0.4), (0.9, 1.6)]:
            want, _ = quad(dn2, 0, u, args=(k,), epsabs=1e-13)
            assert incomplete_E(u, k) == pytest.approx(want, abs=1e-10)


class TestQuarterPeriod:
    def test_k0(self):
        assert quarter_period(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_k_above_one_transfer(self):
        assert quarter_period(2.0) == pytest.approx(0.25 * quarter_period(0.5),
                                                    abs=1e-14)

    def test_quadrature_oracle(self):
        want, _ = quad(lambda t: 1 / math.sqrt(1 - 0.25 * math.sin(t) ** 2),
                       0, math.pi / 2, epsabs=1e-13)
        assert quarter_period(0.5) == pytest.approx(want, abs=1e-10)

    def test_guard_band(self):
        with pytest.raises(SingularModulusError):
            quarter_period(1.0 - 1e-10)


class TestIdentityGrid:
    u_grid = np.arange(-10.0, 10.0 + 1e-9, 0.05)

    @pytest.mark.parametrize("k", K_GRID)
    def test_appendix_identities(self, k):
        if abs(k - 1) <= K_GUARD_BAND:
            pytest.skip("guard band")
        for u in self.u_grid:
            sn, cn, dn = jacobi(u, k)
            assert abs(sn * sn + cn * cn - 1) < 1e-12
            assert abs(dn * dn + k * k * sn * sn - 1) < 1e-12
            assert abs(dn * dn - k * k * cn * cn - (1 - k * k)) < 1e-12

    def test_k0_trig_reduction(self):
        for u in self.u_grid:
            sn, cn, dn = jacobi(u, 0.0)
            assert abs(sn - math.sin(u)) < 1e-12
            assert abs(cn - math.cos(u)) < 1e-12
            assert abs(dn - 1.0) < 1e-12

    @pytest.mark.parametrize("k", [0.3, 0.9, 1.1, 1.7])
    def test_cn_periodicity(self, k):
        K = quarter_period(k)
        for u in np.linspace(-5, 5, 41):
            assert jacobi(u + 4 * K, k).cn == pytest.approx(jacobi(u, k).cn,
                                                            abs=1e-10)

    def test_addition_formulas(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u, v = rng.uniform(-4, 4, 2)
            k = rng.uniform(0.05, 0.95)
            su, cu, du = jacobi(u, k)
            sv, cv, dv = jacobi(v, k)
            den = 1 - k * k * su * su * sv * sv
            s2, c2, d2 = jacobi(u + v, k)
            assert s2 == pytest.approx((su * cv * dv + sv * cu * du) / den, abs=1e-10)
            assert c2 == pytest.approx((cu * cv - su * sv * du * dv) / den, abs=1e-10)
            assert d2 == pytest.approx((du * dv - k * k * su * sv * cu * cv) / den,
                                       abs=1e-10)

    def test_derivative_finite_differences(self):
        h = 1e-5
        rng = np.random.default_rng(11)
        for _ in range(30):
            u = rng.uniform(-6, 6)
            k = rng.uniform(0.05, 0.95)
            sn, cn, dn = jacobi(u, k)
            sp = np.array(jacobi(u + h, k))
            sm = np.array(jacobi(u - h, k))
            d = (sp - sm) / (2 * h)
            assert abs(d[0] - cn * dn) < 1e-6
            assert abs(d[1] + sn * dn) < 1e-6
            assert abs(d[2] + k * k * sn * cn) < 1e-6


def _mp_jacobi_E(u, k):
    """sn, cn, dn and E(u) in mpmath; k > 1 by the A&S 16.11 transfer."""
    if k > 1:
        k = mp.mpf(k)
        sn, cn, dn, e = _mp_jacobi_E(k * u, 1 / k)
        return sn / k, dn, cn, k * e + u * (1 - k * k)
    m = mp.mpf(k) ** 2
    sn, cn, dn = (mp.ellipfun(f, u, m) for f in ("sn", "cn", "dn"))
    # amplitude: am(u) = j*pi + am(r) with r = u - 2Kj in [-K, K]
    K = mp.ellipk(m)
    j = mp.nint(u / (2 * K))
    phi = j * mp.pi + mp.asin(mp.ellipfun("sn", u - 2 * K * j, m))
    return sn, cn, dn, mp.ellipe(phi, m)


def test_mpmath_cross_check():
    mp.mp.dps = 30
    for u, k in [(0.7, 0.3), (3.9, 0.9), (-2.2, 0.55)]:
        sn, cn, dn = jacobi(u, k)
        assert sn == pytest.approx(float(mp.ellipfun("sn", u, k * k)), abs=1e-13)
        assert cn == pytest.approx(float(mp.ellipfun("cn", u, k * k)), abs=1e-13)
        assert dn == pytest.approx(float(mp.ellipfun("dn", u, k * k)), abs=1e-13)
    us = [-1e3, -271.3, -31.7, -2.9, -0.37, 0.41, 1.3, 7.9, 63.1, 517.9, 1e3]
    phis = [-1e3, -94.2, -3.3, -0.6, 0.0, 0.25, 1.5, 2.8, 40.1, 733.7, 1e3]
    # the k > 1 transfer is ill-conditioned next to the guard band
    edge = [1 - 2 * K_GUARD_BAND, 1 + 2 * K_GUARD_BAND]
    # 5e-15 .. 2e-14 straddle the AGM's first step (c_0 = k against 1e-15)
    small = [0.0, 1e-15, 5e-15, 1e-14, 2e-14]
    cases = [(small + [0.3, 0.9, 0.999, 1.001, 1.5, 3.0, 9.0], us, 2e-12, 1e-13),
             (edge, [u for u in us if abs(u) <= 25] + [-25.0, 25.0], 1e-9, 1e-10)]
    for ks, args, tol, rel in cases:
        for k in ks:
            # m = k^2 in working precision: rounding k*k to a double moves
            # K by up to 5e-11 next to the guard band
            km = mp.mpf(k)
            if k < 1:
                K = mp.ellipk(km ** 2)
                for phi in phis:
                    f = incomplete_F(phi, k)
                    assert f == pytest.approx(float(mp.ellipf(phi, km ** 2)),
                                              rel=rel, abs=0)
                    assert am(f, k) == pytest.approx(phi, rel=rel, abs=tol)
            else:
                K = mp.ellipk(1 / km ** 2) / (2 * km)
            assert quarter_period(k) == pytest.approx(float(K), rel=rel, abs=0)
            # the array kernel runs one AGM for all arguments
            arr = _jacobi_E(np.array(args), k)
            for u, got in zip(args, zip(*arr)):
                sn, cn, dn, e = (float(v) for v in _mp_jacobi_E(u, k))
                assert jacobi(u, k) == pytest.approx((sn, cn, dn), abs=tol)
                assert incomplete_E(u, k) == pytest.approx(e, rel=rel, abs=0)
                assert tuple(got[:3]) == pytest.approx((sn, cn, dn), abs=tol)
                assert got[3] == pytest.approx(e, rel=rel, abs=0)
                # against the scalar kernel the only difference is rounding
                want = _jacobi_E(u, k)
                assert tuple(got[:3]) == pytest.approx(want[:3], abs=1e-14)
                assert got[3] == pytest.approx(want[3], rel=1e-13, abs=0)


def test_scipy_random_draws():
    """jacobi against ellipj(u, k^2), and incomplete_E against
    ellipeinc(am(u), k^2) with ellipj's amplitude, for k in [0, 0.999)
    and log-uniform |u| in [1e-3, 1e3] of either sign."""
    rng = np.random.default_rng(43)
    n = 2000
    k = rng.uniform(0.0, 0.999, n)
    u = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    sn, cn, dn, phi = ellipj(u, k * k)
    e_ref = ellipeinc(phi, k * k)
    got = np.array([jacobi(a, b) for a, b in zip(u, k)])
    e = np.array([incomplete_E(a, b) for a, b in zip(u, k)])
    err = np.abs(got - np.stack([sn, cn, dn], axis=1)).max(axis=1)
    assert np.all(err <= 1e-13 * (1.0 + np.abs(u)))
    assert np.all(np.abs(e - e_ref) <= 1e-13 * np.abs(e_ref))
