"""Jacobi elliptic functions and elliptic integrals.

Conventions:

* modulus ``k`` (not the parameter ``m = k**2``);
* ``incomplete_F`` takes the amplitude angle, ``incomplete_E`` takes the
  Jacobi argument ``u`` (it is the integral of ``dn**2``);
* the k-domain is extended past 1 via
  ``sn(u,k) = sn(k*u, 1/k)/k``, ``cn(u,k) = dn(k*u, 1/k)``,
  ``dn(u,k) = cn(k*u, 1/k)``, ``E(u,k) = k*E(k*u, 1/k) + u*(1-k^2)``, and
  ``K(k) = K(1/k)/(2k)`` so that cn always has period 4K.

Evaluation is by the arithmetic-geometric mean: descending Landen for K,
the AGM angle recursion for am, ascending Landen for F and E.  sn, cn, dn
and E at one argument all come from a single amplitude.  The descending
AGM (Gauss transformation) depends on k alone, so ``_agm_rows`` builds it
once per call and both recursions reuse it.  Per-point functions are scalar
Python; ``_jacobi_E_arr`` runs the same recursions as numpy expressions over
a whole array of arguments, with one AGM for the shared modulus.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularModulusError

#: half-width of the excluded band around k = 1, where K diverges
K_GUARD_BAND = 1e-9

_TOL = 1e-15
_MAX_AGM = 64


class EllipticTriple(NamedTuple):
    sn: float
    cn: float
    dn: float


# ---------------------------------------------------------------------------
# scalar kernels (k strictly below 1 unless noted); no validation inside

def _agm_K(k):
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    while abs(a - b) > _TOL * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _agm_rows(k):
    # descending AGM of (1, k'): rows (a_n, b_n, c_n) from n = 0 until
    # |c_n| <= _TOL; the Gauss transformation depends on k alone
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    c = k
    rows = [(a, b, c)]
    while abs(c) > _TOL and len(rows) < _MAX_AGM:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        rows.append((a, b, c))
    return rows


def _am_rows(u, rows):
    # AGM angle recursion (backward), valid for all real u
    a = rows[-1][0]
    phi = (2.0 ** (len(rows) - 1)) * a * u
    for a, _, c in reversed(rows[1:]):
        phi = 0.5 * (phi + math.asin(min(max(c / a * math.sin(phi), -1.0), 1.0)))
    return phi


def _am(u, k):
    if k < 1e-14:
        return u
    return _am_rows(u, _agm_rows(k))


def _F_E_rows(phi, k, rows):
    # ascending Landen; returns (F(phi,k), E(phi,k)), amplitude convention
    m = np.rint(phi / math.pi)
    phin = phi - math.pi * m
    csum = 0.5 * k * k
    esum = 0.0
    twon = 1.0
    for (a, b, _), (_, _, c) in zip(rows, rows[1:]):
        base = math.atan2(b * math.sin(phin), a * math.cos(phin))
        phin = phin + base + math.pi * np.rint((phin - base) / math.pi)
        twon *= 2.0
        csum += 0.5 * twon * c * c
        esum += c * math.sin(phin)
    a = rows[-1][0]
    quarter = math.pi / (2.0 * a)
    f_red = phin / (twon * a)
    e_complete = quarter * (1.0 - csum)
    e_red = f_red * (1.0 - csum) + esum
    return f_red + 2.0 * m * quarter, e_red + 2.0 * m * e_complete


def _F_E_legendre(phi, k):
    if k < 1e-14:
        return phi, phi
    return _F_E_rows(phi, k, _agm_rows(k))


def _sn_cn_dn(phi, k):
    # k in [0, 1); phi = am(u, k)
    sn = math.sin(phi)
    cn = math.cos(phi)
    return sn, cn, math.sqrt(1.0 - (k * sn) * (k * sn))


def _jacobi(u, k):
    # sn, cn, dn for any k outside the guard band
    if k > 1.0:
        sni, cni, dni = _sn_cn_dn(_am(k * u, 1.0 / k), 1.0 / k)
        return sni / k, dni, cni
    return _sn_cn_dn(_am(u, k), k)


def _jacobi_E(u, k):
    # sn, cn, dn and E(u) = integral of dn^2 over [0, u] from one amplitude
    # and one AGM, any k outside the guard band
    if k > 1.0:
        sni, cni, dni, e = _jacobi_E(k * u, 1.0 / k)
        return sni / k, dni, cni, k * e + u * (1.0 - k * k)
    if k < 1e-14:
        phi = e = u
    else:
        rows = _agm_rows(k)
        phi = _am_rows(u, rows)
        e = _F_E_rows(phi, k, rows)[1]
    return (*_sn_cn_dn(phi, k), e)


def _quarter_period(k):
    if k > 1.0:
        return _agm_K(1.0 / k) / (2.0 * k)
    return _agm_K(k)


def _jacobi_E_arr(u, k):
    # _jacobi_E over a 1-d array of arguments, as a (4, n) array: one AGM
    # for the shared modulus, then the recursions of _am_rows and _F_E_rows
    # as array expressions
    u = np.asarray(u, dtype=float)
    k = float(k)
    if k > 1.0:
        sni, cni, dni, e = _jacobi_E_arr(k * u, 1.0 / k)
        return np.array([sni / k, dni, cni, k * e + u * (1.0 - k * k)])
    if k < 1e-14:
        phi = e = u
    else:
        rows = _agm_rows(k)
        a = rows[-1][0]
        phi = (2.0 ** (len(rows) - 1)) * a * u
        for a, _, c in reversed(rows[1:]):
            r = np.minimum(np.maximum(c / a * np.sin(phi), -1.0), 1.0)
            phi = 0.5 * (phi + np.arcsin(r))
        m = np.rint(phi / math.pi)
        phin = phi - math.pi * m
        sin_n = np.sin(phin)
        csum = 0.5 * k * k
        esum = 0.0
        twon = 1.0
        for (a, b, _), (_, _, c) in zip(rows, rows[1:]):
            base = np.arctan2(b * sin_n, a * np.cos(phin))
            phin = phin + base + math.pi * np.rint((phin - base) / math.pi)
            sin_n = np.sin(phin)
            twon *= 2.0
            csum += 0.5 * twon * c * c
            esum = esum + c * sin_n
        a = rows[-1][0]
        e_complete = math.pi / (2.0 * a) * (1.0 - csum)
        e = phin / (twon * a) * (1.0 - csum) + esum + 2.0 * m * e_complete
    sn = np.sin(phi)
    return np.array([sn, np.cos(phi), np.sqrt(1.0 - (k * sn) * (k * sn)), e])


# ---------------------------------------------------------------------------
# public surface (validating wrappers)

def _check_finite(*vals):
    for v in vals:
        if not math.isfinite(v):
            raise DomainError(f"non-finite argument: {v!r}")


def _check_modulus(k):
    _check_finite(k)
    if k < 0.0:
        raise DomainError(f"modulus must be nonnegative, got {k}")
    if abs(k - 1.0) <= K_GUARD_BAND:
        raise SingularModulusError(
            f"modulus {k} lies in the guard band around 1 (K diverges)")


def jacobi(u: float, k: float) -> EllipticTriple:
    """sn, cn, dn at argument u and modulus k (extended domain for k > 1)."""
    _check_finite(u)
    _check_modulus(k)
    return EllipticTriple(*_jacobi(u, k))


def am(u: float, k: float) -> float:
    """Elliptic amplitude, the inverse of ``incomplete_F``; requires k < 1."""
    _check_finite(u)
    _check_modulus(k)
    if k >= 1.0:
        raise DomainError(f"am requires modulus < 1, got {k}")
    return _am(u, k)


def incomplete_F(phi: float, k: float) -> float:
    """Incomplete elliptic integral of the first kind; requires k < 1."""
    _check_finite(phi)
    _check_modulus(k)
    if k >= 1.0:
        raise DomainError(f"incomplete_F requires modulus < 1, got {k}")
    return _F_E_legendre(phi, k)[0]


def incomplete_E(u: float, k: float) -> float:
    """Integral of dn(t,k)^2 over [0, u]; valid for all k outside the guard band."""
    _check_finite(u)
    _check_modulus(k)
    return _jacobi_E(u, k)[3]


def quarter_period(k: float) -> float:
    """K(k); for k > 1 the non-analytic extension K(1/k)/(2k)."""
    _check_modulus(k)
    return _quarter_period(k)
