"""Mellin-type integrals of the periodic kernels over [1, oo).

The central objects are

    D(alpha) = int_1^oo y^alpha p(y) dy        (kernel P)
    E(alpha) = int_1^oo y^alpha q(y) dy        (kernel Q, sawtooth)
    F(alpha) = int_1^oo y^alpha f(y) dy        (kernel Alt, square wave)

each computable by a closed form in terms of zeta, by direct per-period
summation with exact antiderivatives ("PeriodSum", the quadrature oracle that
never touches zeta), and -- for D -- by an incomplete-gamma series and, for the
tail piece above 2*pi, by a binomial/zeta double series.  The redundancy is the
point: the identities are the test suite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, EvalResult, PoleError, cpow
from .kernels import PI2_6, PI2_12, TWO_PI
from .specfun import (
    binom_complex,
    inc_gamma_many,
    zeta_eta_path,
    zeta_partial,
    zeta_ref,
)

ZETA3 = 1.2020569031595942854
ZETA4 = math.pi ** 4 / 90.0

POLE_GUARD = 1e-9

# The fundamental-domain quadratic p(theta) = pi^2/6 - (pi/2) theta + theta^2/4
# has zero mean over a period; the tail acceleration below relies on it.
assert abs(PI2_6 * TWO_PI - (math.pi / 2.0) * TWO_PI ** 2 / 2.0 + TWO_PI ** 3 / 12.0) < 1e-12


class MellinMethod(enum.Enum):
    CLOSED_FORM = "closed"
    PERIOD_SUM = "periods"
    GAMMA_SERIES = "gamma-series"
    BINOMIAL_SERIES = "binomial-series"


@dataclass(frozen=True)
class PeriodSumConfig:
    """Truncation control for the direct per-period evaluations.

    ``n_periods`` is the number of 2*pi periods summed before the tail
    treatment; ``tail_order`` counts integration-by-parts passes applied to the
    tail (0 = crude bound only, 1 and 2 add exact boundary corrections with
    successively smaller error bounds).

    With a ``tolerance`` the sums stop at the smallest N whose tail bound is at
    most tolerance/2, and ``n_periods`` becomes the cap on N; without one, N is
    ``n_periods`` exactly.
    """

    n_periods: int = 100_000
    tail_order: int = 2
    tolerance: float | None = None

    def __post_init__(self):
        if self.n_periods < 2:
            raise DomainError("PeriodSumConfig: n_periods must be >= 2")
        if self.tail_order not in (0, 1, 2):
            raise DomainError("PeriodSumConfig: tail_order must be in {0, 1, 2}")
        if self.tolerance is not None and not (0.0 <= self.tolerance < math.inf):
            raise DomainError("PeriodSumConfig: tolerance must be finite and >= 0")


def _guard_poles(alpha: complex, poles, radius: float = POLE_GUARD) -> None:
    for p in poles:
        if abs(alpha - p) < radius:
            raise PoleError(f"pole of an individual term at alpha = {p}; got {alpha}")


def _require_convergent(alpha: complex) -> None:
    if alpha.real >= -1.0:
        raise DomainError(f"integral diverges for Re alpha >= -1, got {alpha}")


# --- closed forms -------------------------------------------------------------


def i_alpha(alpha: complex) -> complex:
    """The initial-interval integral int_1^{2 pi} y^alpha p(y) dy, exactly."""
    alpha = complex(alpha)
    _guard_poles(alpha, (-1.0, -2.0, -3.0))
    a1, a2, a3 = alpha + 1.0, alpha + 2.0, alpha + 3.0
    return (
        PI2_6 * (cpow(TWO_PI, a1) - 1.0) / a1
        - (math.pi / 2.0) * (cpow(TWO_PI, a2) - 1.0) / a2
        + 0.25 * (cpow(TWO_PI, a3) - 1.0) / a3
    )


def d_n_closed(alpha: complex, n_periods: int) -> complex:
    """Closed form of the truncated integral D_N(alpha) = int_1^{2 pi N} y^alpha p.

    Exact algebra: the per-period antiderivatives telescope into a partial zeta
    sum plus boundary terms, so this must match the direct period sum to
    rounding for every N.
    """
    alpha = complex(alpha)
    if n_periods < 1:
        raise DomainError("d_n_closed: N must be >= 1")
    if alpha.real >= -1.0:
        # D_N is a finite integral, but the representation below is used only
        # on the convergent side; keep the domain uniform with d_closed.
        _require_convergent(alpha)
    _guard_poles(alpha, (-1.0, -2.0, -3.0))
    a1, a2, a3 = alpha + 1.0, alpha + 2.0, alpha + 3.0
    t = TWO_PI * n_periods
    zn = zeta_partial(-2.0 - alpha, n_periods)
    return (
        -PI2_6 / a1
        + (math.pi / 2.0) / a2
        - 0.25 / a3
        - cpow(TWO_PI, a3) * zn / (2.0 * a2 * a1)
        + PI2_6 * cpow(t, a1) / a1
        + (math.pi / 2.0) * cpow(t, a2) / (a2 * a1)
        + 0.5 * cpow(t, a3) / (a3 * a2 * a1)
    )


def d_closed(alpha: complex) -> complex:
    """Closed form of D(alpha) on Re alpha < -1 (analytic continuation of the
    Re alpha < -2 derivation; the period-sum oracle confirms the extension)."""
    alpha = complex(alpha)
    _require_convergent(alpha)
    _guard_poles(alpha, (-1.0, -2.0, -3.0))
    a1, a2, a3 = alpha + 1.0, alpha + 2.0, alpha + 3.0
    zarg = -2.0 - alpha
    if zarg.real > 0.0:
        z = zeta_ref(zarg).value
    else:
        # -2 < Re alpha < -1 puts the zeta argument in Re <= 0; the accelerated
        # alternating series continues eta analytically there.
        z, _ = zeta_eta_path(zarg)
    return (
        -PI2_6 / a1
        + (math.pi / 2.0) / a2
        - 0.25 / a3
        - cpow(TWO_PI, a3) * z / (2.0 * a2 * a1)
    )


def e_closed(alpha: complex) -> complex:
    """Closed form of E(alpha) = int_1^oo y^alpha q(y) dy on Re alpha < -1."""
    alpha = complex(alpha)
    _require_convergent(alpha)
    _guard_poles(alpha, (-1.0, -2.0))
    a1, a2 = alpha + 1.0, alpha + 2.0
    zarg = -1.0 - alpha
    z = zeta_ref(zarg).value
    return (math.pi / 2.0) / a1 - 0.5 / a2 + cpow(TWO_PI, a2) * z / (2.0 * a1)


def f_closed(alpha: complex) -> complex:
    """Closed form of F(alpha) = int_1^oo y^alpha f(y) dy on Re alpha < -1.

    At alpha = -2 the zeta factor hits its pole while (1 - 2^{2+alpha})
    vanishes; the cancellation is not asserted -- the point stays guarded.
    """
    alpha = complex(alpha)
    _require_convergent(alpha)
    _guard_poles(alpha, (-1.0, -2.0))
    a1 = alpha + 1.0
    z = zeta_ref(-1.0 - alpha).value
    return -1.0 / a1 + 2.0 * cpow(TWO_PI, a1) * (1.0 - cpow(2.0, 2.0 + alpha)) * z / a1


# --- direct per-period summation ---------------------------------------------


_GRIDS: tuple[np.ndarray, ...] = ()


def _period_grids(n_periods: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Period indices k = 1..N-1, log(2 pi k) and log1p(1/k), as read-only
    prefix views of one grid that grows to the largest N asked for.  Every
    entry depends on k alone, so a prefix equals a grid built at N."""
    global _GRIDS
    grids = _GRIDS  # one read: another thread may swap in a grid of a different size
    if not grids or grids[0].size < n_periods - 1:
        k = np.arange(1, n_periods, dtype=np.float64)
        grids = (k, np.log(TWO_PI * k), np.log1p(1.0 / k))
        for g in grids:
            g.flags.writeable = False
        _GRIDS = grids
    return tuple(g[: n_periods - 1] for g in grids)


def _cexpm1(w: np.ndarray) -> np.ndarray:
    """expm1 for complex arrays, accurate for small |w| (numpy's expm1 is
    real-only): expm1(x+iy) = expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y."""
    x = w.real
    y = w.imag
    return (np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2) + 1j * (np.exp(x) * np.sin(y))


def _power_increments(beta: complex, loga: np.ndarray, lograt: np.ndarray) -> np.ndarray:
    """int_a^{a(1+1/k)} y^{beta-1} dy = a^beta expm1(beta log(1+1/k)) / beta,
    evaluated without subtracting nearly equal powers."""
    return np.exp(beta * loga) * _cexpm1(beta * lograt) / beta


# Per-kernel tail data at T = 2*pi*N for the integration-by-parts passes:
#   A1 is the mean-zero periodic antiderivative of the kernel, A2 that of A1;
#   M0/M1/M2 bound the kernel, A1 and A2 in absolute value.
#   A1(T), A2(T) are the boundary values entering the exact corrections.
_TAIL_P = dict(m0=PI2_6, m1=ZETA3, m2=ZETA4, a1_at=lambda n: 0.0, a2_at=lambda n: -ZETA4)
_TAIL_Q = dict(m0=math.pi / 2.0, m1=PI2_6, m2=ZETA3, a1_at=lambda n: PI2_6, a2_at=lambda n: 0.0)
_TAIL_F = dict(
    m0=1.0,
    m1=math.pi,
    m2=14.0 * ZETA3 / math.pi,
    a1_at=lambda n: -math.pi * (1.0 if n % 2 == 0 else -1.0),
    a2_at=lambda n: 0.0,
)


def _tail_err(alpha: complex, t: float, order: int, data: dict) -> float:
    """Error bound of the order-``order`` tail treatment at T = t; it has the
    form c * t**(Re alpha + 1 - order), decreasing in t on Re alpha < -1."""
    u = alpha.real
    if order == 0:
        return data["m0"] * t ** (u + 1.0) / abs(u + 1.0)
    if order == 1:
        return abs(alpha) * data["m1"] * t ** u / abs(u)
    return abs(alpha) * abs(alpha - 1.0) * data["m2"] * t ** (u - 1.0) / abs(u - 1.0)


def _tail(alpha: complex, n: int, order: int, data: dict) -> tuple[complex, float]:
    """Exact IBP boundary corrections plus rigorous-style error bound for the
    tail int_{2 pi N}^oo y^alpha * kernel dy."""
    t = TWO_PI * n
    if order == 0:
        corr = 0.0 + 0.0j
    elif order == 1:
        corr = -cpow(t, alpha) * data["a1_at"](n)
    else:
        corr = -cpow(t, alpha) * data["a1_at"](n) + alpha * cpow(t, alpha - 1.0) * data["a2_at"](n)
    return corr, _tail_err(alpha, t, order, data)


def _n_periods(alpha: complex, cfg: PeriodSumConfig, data: dict) -> int:
    """The N to sum: cfg.n_periods without a tolerance; otherwise
    min(cap, max(2, ceil(T_tol / 2 pi))), where T_tol inverts the tail bound
    c * T**e = tolerance/2.  N is not raised to shrink the rounding bound,
    which grows with N."""
    cap = cfg.n_periods
    if not cfg.tolerance:  # None, or 0: no N meets it
        return cap
    half = 0.5 * cfg.tolerance
    order = cfg.tail_order
    c = _tail_err(alpha, 1.0, order, data)
    e = alpha.real + 1.0 - order
    log_n = (math.log(half) - math.log(c)) / e - math.log(TWO_PI)
    if log_n >= math.log(cap):
        return cap
    n = max(2, math.ceil(math.exp(log_n)))
    # Guard the closed-form inversion against rounding in log/exp.
    while n < cap and _tail_err(alpha, TWO_PI * n, order, data) > half:
        n += 1
    return n


def d_quad(alpha: complex, cfg: PeriodSumConfig = PeriodSumConfig()) -> EvalResult:
    """D(alpha) by exact antiderivative sums per period; independent of zeta.

    This is the non-circular route: the zero-scan residuals are built on it.
    """
    alpha = complex(alpha)
    _require_convergent(alpha)
    _guard_poles(alpha, (-1.0, -2.0, -3.0))
    n = _n_periods(alpha, cfg, _TAIL_P)
    k, loga, lograt = _period_grids(n)
    a = TWO_PI * k  # periods [2 pi k, 2 pi (k+1)), k = 1..N-1
    d1 = _power_increments(alpha + 1.0, loga, lograt)
    d2 = _power_increments(alpha + 2.0, loga, lograt)
    d3 = _power_increments(alpha + 3.0, loga, lograt)
    # Moments of theta = y - 2 pi k against y^alpha; the centered combinations
    # keep every summand at the scale of the period integral itself.
    t2 = d2 - a * d1
    t3 = d3 - a * (2.0 * d2 - a * d1)
    body = complex(np.sum(PI2_6 * d1 - (math.pi / 2.0) * t2 + 0.25 * t3))
    rnd = 1e-16 * float(np.sum(np.abs(d3) + a * (2.0 * np.abs(d2) + a * np.abs(d1))))
    total = i_alpha(alpha) + body
    corr, err = _tail(alpha, n, cfg.tail_order, _TAIL_P)
    return EvalResult(value=total + corr, abs_err=err + rnd + 1e-15 * abs(total), work=n)


def e_quad(alpha: complex, cfg: PeriodSumConfig = PeriodSumConfig()) -> EvalResult:
    """E(alpha) by exact per-period sums of the sawtooth kernel."""
    alpha = complex(alpha)
    _require_convergent(alpha)
    _guard_poles(alpha, (-1.0, -2.0))
    n = _n_periods(alpha, cfg, _TAIL_Q)
    k, loga, lograt = _period_grids(n)
    a = TWO_PI * k
    d1 = _power_increments(alpha + 1.0, loga, lograt)
    d2 = _power_increments(alpha + 2.0, loga, lograt)
    # q = (theta - pi)/2 on each period; use the centered theta moment.
    t2 = d2 - a * d1
    body = complex(np.sum(0.5 * (t2 - math.pi * d1)))
    rnd = 1e-16 * float(np.sum(np.abs(d2) + a * np.abs(d1)))
    a1, a2 = alpha + 1.0, alpha + 2.0
    initial = 0.5 * (
        (cpow(TWO_PI, a2) - 1.0) / a2 - math.pi * (cpow(TWO_PI, a1) - 1.0) / a1
    )
    total = initial + body
    corr, err = _tail(alpha, n, cfg.tail_order, _TAIL_Q)
    return EvalResult(value=total + corr, abs_err=err + rnd + 1e-15 * abs(total), work=n)


def f_quad(alpha: complex, cfg: PeriodSumConfig = PeriodSumConfig()) -> EvalResult:
    """F(alpha) by signed per-period sums, pairing consecutive periods so the
    alternating series is summed as an absolutely convergent one."""
    alpha = complex(alpha)
    _require_convergent(alpha)
    _guard_poles(alpha, (-1.0,))
    n = _n_periods(alpha, cfg, _TAIL_F)
    k, loga, lograt = _period_grids(n)
    d1 = _power_increments(alpha + 1.0, loga, lograt)
    signs = np.where(k.astype(np.int64) % 2 == 0, 1.0, -1.0)
    terms = signs * d1
    # Pair adjacent periods before the reduction: each pair nearly cancels.
    m = terms.size - terms.size % 2
    paired = terms[:m:2] + terms[1:m:2]
    body = complex(np.sum(paired)) + (complex(terms[-1]) if terms.size % 2 else 0.0)
    a1 = alpha + 1.0
    initial = (cpow(TWO_PI, a1) - 1.0) / a1
    total = initial + body
    corr, err = _tail(alpha, n, cfg.tail_order, _TAIL_F)
    return EvalResult(value=total + corr, abs_err=err + 1e-15 * abs(total), work=n)


# --- incomplete-gamma series for D -------------------------------------------


def d_gamma_series(alpha: complex, n_terms: int = 2000) -> EvalResult:
    """D(alpha) as the convergent incomplete-gamma series

        sum_n n^{-2} * (1/2) [ (-i n)^{-alpha-1} Gamma(alpha+1, -i n)
                               + (i n)^{-alpha-1} Gamma(alpha+1,  i n) ].

    Terms behave like -sin(n)/n^3; practical accuracy needs Re alpha <= -3
    only in the sense that fewer terms suffice there.
    """
    alpha = complex(alpha)
    _require_convergent(alpha)
    if n_terms < 1:
        raise DomainError("d_gamma_series: n_terms must be >= 1")
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    z_plus = 1j * n
    g_plus = inc_gamma_many(alpha + 1.0, z_plus)
    g_minus = inc_gamma_many(alpha + 1.0, -z_plus)
    w_plus = np.exp((-alpha - 1.0) * np.log(z_plus))
    w_minus = np.exp((-alpha - 1.0) * np.log(-z_plus))
    terms = 0.5 * (w_minus * g_minus + w_plus * g_plus) / n ** 2
    value = complex(np.sum(terms))
    last = np.abs(terms[-10:]) if n_terms >= 10 else np.abs(terms)
    err = 10.0 * float(np.max(last)) + 1e-12
    return EvalResult(value=value, abs_err=err, work=n_terms)


# --- derived integrals and dispatch ------------------------------------------


def _dispatch_d(alpha: complex, method: MellinMethod, cfg: PeriodSumConfig) -> EvalResult:
    if method is MellinMethod.CLOSED_FORM:
        v = d_closed(alpha)
        return EvalResult(value=v, abs_err=1e-13 * max(1.0, abs(v)), work=1)
    if method is MellinMethod.PERIOD_SUM:
        return d_quad(alpha, cfg)
    if method is MellinMethod.GAMMA_SERIES:
        return d_gamma_series(alpha)
    raise DomainError(f"method {method} not available for D")


def d_tilde(
    alpha: complex,
    method: MellinMethod = MellinMethod.CLOSED_FORM,
    cfg: PeriodSumConfig = PeriodSumConfig(),
) -> EvalResult:
    """The shifted-kernel integral int_1^oo y^alpha (p(y) + pi^2/12) dy
    = D(alpha) - (pi^2/12)/(alpha+1)."""
    alpha = complex(alpha)
    _require_convergent(alpha)
    base = _dispatch_d(alpha, method, cfg)
    value = base.value - PI2_12 / (alpha + 1.0)
    return EvalResult(value=value, abs_err=base.abs_err, work=base.work)


def e_val(
    alpha: complex,
    method: MellinMethod = MellinMethod.CLOSED_FORM,
    cfg: PeriodSumConfig = PeriodSumConfig(),
) -> EvalResult:
    if method is MellinMethod.CLOSED_FORM:
        v = e_closed(alpha)
        return EvalResult(value=v, abs_err=1e-13 * max(1.0, abs(v)), work=1)
    if method is MellinMethod.PERIOD_SUM:
        return e_quad(alpha, cfg)
    raise DomainError(f"method {method} not available for E")


def f_val(
    alpha: complex,
    method: MellinMethod = MellinMethod.CLOSED_FORM,
    cfg: PeriodSumConfig = PeriodSumConfig(),
) -> EvalResult:
    if method is MellinMethod.CLOSED_FORM:
        v = f_closed(alpha)
        return EvalResult(value=v, abs_err=1e-13 * max(1.0, abs(v)), work=1)
    if method is MellinMethod.PERIOD_SUM:
        return f_quad(alpha, cfg)
    raise DomainError(f"method {method} not available for F")


# --- binomial/zeta series for the tail piece above 2*pi ----------------------


def _t_integral(alpha: complex, j: int) -> complex:
    """int_0^1 t^{j-1} (1+t)^alpha dt in closed form (binomial expansion of the
    t^{j-1} factor around 1+t)."""
    a1, a2, a3 = alpha + 1.0, alpha + 2.0, alpha + 3.0
    b1 = (cpow(2.0, a1) - 1.0) / a1
    if j == 1:
        return b1
    b2 = (cpow(2.0, a2) - 1.0) / a2
    if j == 2:
        return b2 - b1
    b3 = (cpow(2.0, a3) - 1.0) / a3
    if j == 3:
        return b3 - 2.0 * b2 + b1
    raise DomainError("j must be in {1, 2, 3}")


def binomial_zeta_sum(alpha: complex, j: int, l_max: int = 400, tol: float = 1e-12) -> EvalResult:
    """The regularized evaluation of sum_l C(alpha, l) zeta(l - alpha) / (l + j).

    The raw series diverges for Re alpha < -2 (the binomials grow
    polynomially while zeta(l - alpha) -> 1); splitting zeta = 1 + (zeta - 1)
    leaves an absolutely convergent series plus the closed-form integral
    int_0^1 t^{j-1} (1+t)^alpha dt that the '1' part resums to.
    """
    alpha = complex(alpha)
    if alpha.real >= -1.0:
        raise DomainError("binomial_zeta_sum: requires Re alpha < -1")
    _guard_poles(alpha, (-1.0, -2.0, -3.0))
    if j not in (1, 2, 3):
        raise DomainError("binomial_zeta_sum: j must be in {1, 2, 3}")
    if l_max < 10:
        raise DomainError("binomial_zeta_sum: l_max must be >= 10")
    acc = 0.0 + 0.0j
    coeff = 1.0 + 0.0j
    below = 0
    work = 0
    for l in range(l_max + 1):
        if l > 0:
            coeff *= (alpha - l + 1.0) / l
        term = coeff * (zeta_ref(l - alpha).value - 1.0) / (l + j)
        acc += term
        work = l + 1
        # The terms are not monotone; require a three-term quiet window.
        below = below + 1 if abs(term) < tol / 10.0 else 0
        if below >= 3:
            break
    tail_est = abs(term) * 10.0 + 1e-15
    value = acc + _t_integral(alpha, j)
    return EvalResult(value=value, abs_err=tail_est, work=work)


def a_tilde_j(alpha: complex, j: int) -> complex:
    """Closed forms tying the binomial/zeta sums to plain zeta values:
    sum_l C(alpha, l) zeta(l - alpha)/(l + j) = -1/(alpha + j) + A_j(alpha)
    with A_1 = 0, A_2 = zeta(-alpha-1)/(alpha+1),
    A_3 = zeta(-alpha-1)/(alpha+1) - 2 zeta(-alpha-2)/((alpha+1)(alpha+2))."""
    alpha = complex(alpha)
    if alpha.real >= -2.0:
        raise DomainError("a_tilde_j: requires Re alpha < -2")
    _guard_poles(alpha, (-1.0, -2.0, -3.0))
    if j == 1:
        return 0.0 + 0.0j
    z1 = zeta_ref(-alpha - 1.0).value
    if j == 2:
        return z1 / (alpha + 1.0)
    if j == 3:
        z2 = zeta_ref(-alpha - 2.0).value
        return z1 / (alpha + 1.0) - 2.0 * z2 / ((alpha + 1.0) * (alpha + 2.0))
    raise DomainError("a_tilde_j: j must be in {1, 2, 3}")


def a_tilde_series(alpha: complex, l_max: int = 400) -> EvalResult:
    """The tail integral A(alpha) = int_{2 pi}^oo y^alpha p(y) dy by the
    binomial/zeta series route (substitute y = 2 pi (k + 1 + t) per period and
    expand the quadratic; three regularized sums with j = 1, 2, 3)."""
    alpha = complex(alpha)
    if alpha.real >= -2.0:
        raise DomainError("a_tilde_series: requires Re alpha < -2")
    _guard_poles(alpha, (-1.0, -2.0, -3.0))
    s1 = binomial_zeta_sum(alpha, 1, l_max)
    s2 = binomial_zeta_sum(alpha, 2, l_max)
    s3 = binomial_zeta_sum(alpha, 3, l_max)
    pref = cpow(2.0, alpha) * cpow(math.pi, 3.0 + alpha)
    value = pref * (s1.value / 3.0 - 2.0 * s2.value + 2.0 * s3.value)
    err = abs(pref) * (s1.abs_err / 3.0 + 2.0 * s2.abs_err + 2.0 * s3.abs_err)
    return EvalResult(value=value, abs_err=err, work=s1.work + s2.work + s3.work)


def a_tilde_closed(alpha: complex) -> complex:
    """Closed form of the same tail integral, via the j-sum identities."""
    alpha = complex(alpha)
    if alpha.real >= -2.0:
        raise DomainError("a_tilde_closed: requires Re alpha < -2")
    _guard_poles(alpha, (-1.0, -2.0, -3.0))
    a1, a2, a3 = alpha + 1.0, alpha + 2.0, alpha + 3.0
    z = zeta_ref(-alpha - 2.0).value
    return (
        cpow(2.0, alpha)
        * cpow(math.pi, 3.0 + alpha)
        * (-1.0 / (3.0 * a1) + 2.0 / a2 - 2.0 / a3)
        - cpow(TWO_PI, 3.0 + alpha) * z / (2.0 * a1 * a2)
    )
