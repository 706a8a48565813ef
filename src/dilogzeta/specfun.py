"""Reference special functions: zeta via the accelerated alternating series,
partial sums and their endpoint-corrected variant, and upper incomplete gamma
for complex arguments.

Everything here is independent of the kernel integrals, so it can serve as the
reference side of the cross-checks elsewhere in the package.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.special as sp

from .core import DomainError, EvalResult, PoleError, cpow, kahan_sum

_ETA_ORDER = 50
_ETA_DENOM_GUARD = 1e-12

LN2 = math.log(2.0)


def zeta_partial(s: complex, n_terms: int) -> complex:
    """Exact partial sum sum_{n<=N} n^{-s} with compensated summation."""
    if n_terms < 1:
        raise DomainError("zeta_partial: N must be >= 1")
    s = complex(s)
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    terms = np.exp(-s * np.log(n))
    return kahan_sum(terms.tolist())


def eta_accel(s: complex, order: int = _ETA_ORDER) -> tuple[complex, float]:
    """Dirichlet eta sum_{n>=1} (-1)^{n-1} n^{-s} by fixed-order Chebyshev-style
    acceleration of the alternating series (Cohen-Rodriguez Villegas-Zagier).

    Deterministic work: exactly ``order`` terms.  Returns (value, error estimate).
    The acceleration also evaluates the analytic continuation for Re s <= 0 down
    to moderate negative real part, which the caller may exploit internally.
    """
    s = complex(s)
    d = (3.0 + math.sqrt(8.0)) ** order
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    acc = 0.0 + 0.0j
    for k in range(order):
        c = b - c
        acc += c * cmath.exp(-s * math.log(k + 1))
        b = b * (k + order) * (k - order) / ((k + 0.5) * (k + 1.0))
    value = acc / d
    growth = math.exp(min(600.0, math.pi * abs(s.imag) / 2.0))
    # The truncation term can be absurdly small; the sum of ~order unit-size
    # rounded terms floors the achievable accuracy at ~order*eps.
    err = 4.0 * growth / (3.0 + math.sqrt(8.0)) ** order + 1e-14 * max(1.0, abs(value))
    return value, err


def _eta_denominator(s: complex) -> complex:
    return 1.0 - cpow(2.0, 1.0 - s)


def _zeta_em(s: complex, n_terms: int = 100_000) -> tuple[complex, float]:
    """Euler-Maclaurin evaluation: partial sum plus N^{1-s}/(s-1), -N^{-s}/2 and
    two Bernoulli corrections.  Fallback for the eta-denominator zeros."""
    s = complex(s)
    n = float(n_terms)
    base = zeta_partial(s, n_terms)
    tail = cpow(n, 1.0 - s) / (s - 1.0) - 0.5 * cpow(n, -s)
    b2 = s * cpow(n, -s - 1.0) / 12.0
    b4 = -s * (s + 1.0) * (s + 2.0) * cpow(n, -s - 3.0) / 720.0
    err = abs(s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0)) * n ** (-s.real - 5.0) / 252.0
    return base + tail + b2 + b4, err + 1e-15 * abs(base)


def zeta_eta_path(s: complex) -> tuple[complex, float]:
    """zeta(s) = eta(s) / (1 - 2^{1-s}) without the Re s > 0 domain guard.

    Internal: the acceleration continues eta analytically, which the closed-form
    Mellin identities use on -1 < Re s' translates.  Public callers should go
    through :func:`zeta_ref`.
    """
    s = complex(s)
    denom = _eta_denominator(s)
    if abs(denom) < _ETA_DENOM_GUARD:
        return _zeta_em(s)
    eta, eta_err = eta_accel(s)
    return eta / denom, eta_err / abs(denom)


def zeta_ref(s: complex) -> EvalResult:
    """Reference zeta on Re s > 0 via the accelerated alternating series.

    Near the eta-denominator zeros s = 1 + 2*pi*i*k/ln 2 (k != 0) the evaluation
    switches to an Euler-Maclaurin corrected partial sum instead of failing.
    """
    s = complex(s)
    if s.real <= 0.0:
        raise DomainError(f"zeta_ref: requires Re s > 0, got {s}")
    if s == 1.0:
        raise PoleError("zeta_ref: pole at s = 1")
    denom = _eta_denominator(s)
    if abs(denom) < _ETA_DENOM_GUARD:
        if abs(s - 1.0) < _ETA_DENOM_GUARD:
            raise PoleError("zeta_ref: pole at s = 1")
        value, err = _zeta_em(s)
        return EvalResult(value=value, abs_err=err, work=100_000)
    eta, eta_err = eta_accel(s)
    return EvalResult(value=eta / denom, abs_err=eta_err / abs(denom), work=_ETA_ORDER)


def a_n_approx(s: complex, n_terms: int) -> complex:
    """Endpoint-corrected partial sum zeta_N(s) - N^{1-s}/(1-s) - N^{-s}/2.

    Converges to zeta(s) for Re s > 0; the default validity region tracked by
    callers is |Im s| < 2*pi*N/10.
    """
    s = complex(s)
    if n_terms < 1:
        raise DomainError("a_n_approx: N must be >= 1")
    if s == 1.0:
        raise PoleError("a_n_approx: pole at s = 1")
    n = float(n_terms)
    return zeta_partial(s, n_terms) - cpow(n, 1.0 - s) / (1.0 - s) - 0.5 * cpow(n, -s)


# --- upper incomplete gamma ---------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_U_MAX = 40.0
_N_PANELS = 40


def _composite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-point Gauss-Legendre rule on each of the
    _N_PANELS panels of [0, _U_MAX], built once."""
    edges = np.linspace(0.0, _U_MAX, _N_PANELS + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return u, w


_GL_U, _GL_W = _composite_rule()


def inc_gamma_many(lam: complex, z: np.ndarray) -> np.ndarray:
    """Upper incomplete gamma Gamma(lam, z) on the principal branch, over an
    array of nonzero z.

    Rotates the integration ray to the positive real direction (t = z + u,
    u >= 0) and applies composite Gauss-Legendre quadrature truncated at
    u = 40; valid whenever the ray z + [0, inf) avoids the branch cut, i.e.
    for nonzero imaginary part or nonnegative real part.
    """
    lam = complex(lam)
    z = np.asarray(z, dtype=np.complex128)
    if np.any(z == 0):
        raise DomainError("inc_gamma_many: z must be nonzero")
    if np.any((z.real < 0.0) & (z.imag == 0.0)):
        raise DomainError("inc_gamma_many: ray from the negative real axis crosses the branch cut")
    u, w = _GL_U, _GL_W
    t = z[:, None] + u[None, :]
    vals = np.exp((lam - 1.0) * np.log(t) - u[None, :])
    integral = vals @ w.astype(np.complex128)
    return np.exp(-z) * integral


def inc_gamma(lam: complex, z: complex) -> EvalResult:
    """Gamma(lam, z) for one z by :func:`inc_gamma_many`, with the bound on
    the truncation of the ray at u = 40; Gamma(lam) at z = 0."""
    lam = complex(lam)
    z = complex(z)
    if z == 0:
        if lam.real <= 0.0:
            raise DomainError("inc_gamma: singular at z = 0 for Re lam <= 0")
        return EvalResult(value=complex(sp.gamma(lam)), abs_err=1e-14, work=1)
    value = complex(inc_gamma_many(lam, np.array([z]))[0])
    trunc = abs(cmath.exp(-z - _U_MAX)) * abs(cpow(z + _U_MAX, lam - 1.0)) * 2.0
    return EvalResult(value=value, abs_err=trunc + 1e-14 * abs(value), work=_GL_U.size)
