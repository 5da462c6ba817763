"""Jacobi elliptic functions and elliptic integrals.

Conventions:

* modulus ``k`` (not the parameter ``m = k**2``);
* ``incomplete_F`` takes the amplitude angle, ``incomplete_E`` takes the
  Jacobi argument ``u`` (it is the integral of ``dn**2``);
* the k-domain is extended past 1 via
  ``sn(u,k) = sn(k*u, 1/k)/k``, ``cn(u,k) = dn(k*u, 1/k)``,
  ``dn(u,k) = cn(k*u, 1/k)``, ``E(u,k) = k*E(k*u, 1/k) + u*(1-k^2)``, and
  ``K(k) = K(1/k)/(2k)`` so that cn always has period 4K.

Evaluation is by the arithmetic-geometric mean.  One descending AGM of
(1, k') (``_agm_rows``) gives K = pi/(2 a_N) and E/K = 1 - sum 2^(n-1) c_n^2.
One backward amplitude recursion on its rows gives am(u) = phi_0, and the
same loop sums the Jacobi zeta function Z(u) = sum c_n sin(phi_n), so that
E(u) = u E/K + Z(u) (Abramowitz & Stegun 16.4, 17.6; DLMF 22.20).  sn, cn
and dn come from the amplitude.  The recursion runs on a float with
``math`` and on a numpy array with numpy, one AGM for the shared modulus.
Ascending Landen on the same rows gives ``incomplete_F``.
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
# kernels (k strictly below 1 unless noted); no validation inside

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


def _am_E(u, k):
    # am(u) and E(u) for a float or a numpy array u: the backward amplitude
    # recursion phi_(n-1) = (phi_n + asin(c_n/a_n sin phi_n))/2 from
    # phi_N = 2^N a_N u, summing Z(u) = sum c_n sin phi_n on the way;
    # c_n <= a_n keeps the asin argument in [-1, 1]
    sin, asin = (np.sin, np.arcsin) if isinstance(u, np.ndarray) \
        else (math.sin, math.asin)
    rows = _agm_rows(k)
    phi = (2.0 ** (len(rows) - 1)) * rows[-1][0] * u
    zeta = 0.0
    for a, _, c in reversed(rows[1:]):
        s = sin(phi)
        zeta = zeta + c * s
        phi = 0.5 * (phi + asin(c / a * s))
    e_over_k = 1.0 - sum(2.0 ** (n - 1) * c * c
                         for n, (_, _, c) in enumerate(rows))
    return phi, u * e_over_k + zeta


def _jacobi_E(u, k):
    # sn, cn, dn and E(u) = integral of dn^2 over [0, u] from one amplitude
    # and one AGM, any k outside the guard band; u a float or a numpy array
    if k > 1.0:
        sni, cni, dni, e = _jacobi_E(k * u, 1.0 / k)
        return sni / k, dni, cni, k * e + u * (1.0 - k * k)
    phi, e = _am_E(u, k)
    xp = np if isinstance(phi, np.ndarray) else math
    sn = xp.sin(phi)
    return sn, xp.cos(phi), xp.sqrt(1.0 - (k * sn) * (k * sn)), e


def _jacobi_E_arr(u, k):
    # _jacobi_E over a 1-d array of arguments, as a (4, n) array
    return np.array(_jacobi_E(np.asarray(u, dtype=float), float(k)))


def _incomplete_F(phi, k):
    # ascending Landen on the descending AGM rows, amplitude convention
    rows = _agm_rows(k)
    m = round(phi / math.pi)
    phin = phi - math.pi * m
    twon = 1.0
    for a, b, _ in rows[:-1]:
        base = math.atan2(b * math.sin(phin), a * math.cos(phin))
        phin = phin + base + math.pi * round((phin - base) / math.pi)
        twon *= 2.0
    a = rows[-1][0]
    return phin / (twon * a) + 2.0 * m * (math.pi / (2.0 * a))


def _quarter_period(k):
    if k > 1.0:
        return _quarter_period(1.0 / k) / (2.0 * k)
    return math.pi / (2.0 * _agm_rows(k)[-1][0])


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
    return EllipticTriple(*_jacobi_E(u, k)[:3])


def am(u: float, k: float) -> float:
    """Elliptic amplitude, the inverse of ``incomplete_F``; requires k < 1."""
    _check_finite(u)
    _check_modulus(k)
    if k >= 1.0:
        raise DomainError(f"am requires modulus < 1, got {k}")
    return _am_E(u, k)[0]


def incomplete_F(phi: float, k: float) -> float:
    """Incomplete elliptic integral of the first kind; requires k < 1."""
    _check_finite(phi)
    _check_modulus(k)
    if k >= 1.0:
        raise DomainError(f"incomplete_F requires modulus < 1, got {k}")
    return _incomplete_F(phi, k)


def incomplete_E(u: float, k: float) -> float:
    """Integral of dn(t,k)^2 over [0, u]; valid for all k outside the guard band."""
    _check_finite(u)
    _check_modulus(k)
    return _jacobi_E(u, k)[3]


def quarter_period(k: float) -> float:
    """K(k); for k > 1 the non-analytic extension K(1/k)/(2k)."""
    _check_modulus(k)
    return _quarter_period(k)
