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

``kernel_integral(kernel, alpha, method, cfg)`` is the one entry point that
picks the method.  On each period every kernel is a polynomial of degree <= 2
in theta, so one engine, ``_period_sum``, computes all three period sums from
one table row per kernel: the polynomial's coefficients and the tail
constants.  ``d_quad``, ``e_quad``, ``f_quad`` and ``i_alpha`` name its rows.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special as sp

from .core import DomainError, EvalResult, PoleError, cpow
from .kernels import PI2_6, PI2_12, TWO_PI, KernelId
from .specfun import inc_gamma_many, zeta_eta_path, zeta_partial, zeta_ref

ZETA3 = 1.2020569031595942854
ZETA4 = math.pi ** 4 / 90.0

POLE_GUARD = 1e-9
_EPS = 2.0 ** -52
K_MAX = 40  # the highest integration-by-parts order of the period-sum tails
N_MAX = 100_000  # the most periods a chosen N may reach

# The fundamental-domain quadratic p(theta) = pi^2/6 - (pi/2) theta + theta^2/4
# has zero mean over a period; the tail acceleration below relies on it.
assert abs(PI2_6 * TWO_PI - (math.pi / 2.0) * TWO_PI ** 2 / 2.0 + TWO_PI ** 3 / 12.0) < 1e-12


class MellinMethod(enum.Enum):
    CLOSED_FORM = "closed"
    PERIOD_SUM = "periods"
    GAMMA_SERIES = "gamma-series"


@dataclass(frozen=True)
class PeriodSumConfig:
    """Truncation control for the direct per-period evaluations: N, the number
    of 2*pi periods summed before the tail, and K, the number of
    integration-by-parts passes applied to the tail (0 = crude bound only;
    each pass adds an exact boundary correction and lowers the bound by a
    factor of about |alpha|/(2 pi N)).

    An int ``n_periods`` pins N, with K = ``tail_order``, or 2 if unset; the
    tolerance then changes nothing.  With ``n_periods`` None and a
    ``tolerance``, the sums choose the smallest N <= N_MAX that some
    K <= K_MAX brings under tolerance/2, then the smallest K that does; a set
    ``tail_order`` pins K and only N is chosen.  With no tolerance (or 0), N is
    N_MAX and K as when N is pinned.  The results' ``work`` is the N summed.
    """

    n_periods: int | None = None
    tail_order: int | None = None
    tolerance: float | None = None

    def __post_init__(self):
        if self.n_periods is not None and self.n_periods < 2:
            raise DomainError("PeriodSumConfig: n_periods must be >= 2")
        if self.tail_order is not None and self.tail_order not in range(K_MAX + 1):
            raise DomainError(f"PeriodSumConfig: tail_order must be in 0..{K_MAX}")
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


def _d_from_zeta(alpha: complex, z: complex) -> complex:
    """The closed form of D(alpha) with z = zeta(-2 - alpha)."""
    a1, a2, a3 = alpha + 1.0, alpha + 2.0, alpha + 3.0
    return -PI2_6 / a1 + (math.pi / 2.0) / a2 - 0.25 / a3 - cpow(TWO_PI, a3) * z / (2.0 * a2 * a1)


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
    return (
        _d_from_zeta(alpha, zeta_partial(-2.0 - alpha, n_periods))
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
    zarg = -2.0 - alpha
    if zarg.real > 0.0:
        z = zeta_ref(zarg).value
    else:
        # -2 < Re alpha < -1 puts the zeta argument in Re <= 0; the accelerated
        # alternating series continues eta analytically there.
        z, _ = zeta_eta_path(zarg)
    return _d_from_zeta(alpha, z)


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


def _power_increments(betas: list[complex], loga: np.ndarray, lograt: np.ndarray) -> list[np.ndarray]:
    """int_a^{a(1+1/k)} y^{beta-1} dy = a^beta expm1(beta log(1+1/k)) / beta for
    each beta in ``betas``, evaluated without subtracting nearly equal powers.
    All come from one pass over a column of exponents; a single exponent stays
    a scalar, which numpy broadcasts faster."""
    beta = np.array(betas)[:, None] if len(betas) > 1 else betas[0]
    rows = np.exp(beta * loga) * _cexpm1(beta * lograt) / beta
    return list(rows) if len(betas) > 1 else [rows]


def _phase_err(alpha: complex, loga: np.ndarray, lograt: np.ndarray) -> np.ndarray:
    """Relative rounding error of each period's summand.  The powers a^beta
    and (1+1/k)^beta carry the rounding of their exponents, about
    eps |beta| (log a + log(1+1/k)), and share it across the moments of one
    period, since Im beta = Im alpha; 4 eps covers the remaining operations."""
    return _EPS * ((abs(alpha) + 3.0) * (loga + lograt) + 4.0)


# --- integration-by-parts tail -------------------------------------------------
#
# Each kernel is a Fourier series: p = sum cos(jy)/j^2, q = -sum sin(jy)/j and
# f = (4/pi) sum_{j odd} sin(jy/2)/j.  Its k-th mean-zero periodic
# antiderivative A_k is the same series with each term divided by its
# frequency to the k and shifted by k quarter periods, so m_k = sup |A_k| and
# the boundary values A_k(2 pi N) are zeta values at integers:
#
#   P: m_k = zeta(k+2),                   A_k(2 pi N) = cos(k pi/2) zeta(k+2)
#   Q: m_k = zeta(k+1) for k >= 1,        A_k(2 pi N) = sin(k pi/2) zeta(k+1)
#   F: m_k = (4/pi) 2^k lambda(k+1), k >= 1,  A_k(2 pi N) = -(-1)^N sin(k pi/2) m_k
#
# with lambda(n) = (1 - 2^-n) zeta(n); m_0 bounds the kernel itself.

# zeta(n) for n = 0..K_MAX+2 (n < 2 unused).  zeta(2..4) are the module's
# PI2_6, ZETA3 and ZETA4 (pi^4/90, one ulp below the rounded zeta(4)), so the
# orders <= 2 use exactly those constants.
_ZETA = (math.nan, math.inf, PI2_6, ZETA3, ZETA4) + tuple(sp.zeta(np.arange(5.0, K_MAX + 3.0)).tolist())


@dataclass(frozen=True)
class _TailData:
    """One kernel's tail constants for orders k = 0..K_MAX: ``m[k]`` bounds
    |A_k|, and A_k(2 pi N) = parity**N * a[k]."""

    m: tuple[float, ...]
    a: tuple[float, ...]
    parity: float = 1.0
    log_m: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "log_m", np.log(self.m))


def _quarter_turns(m: list[float], phase: int) -> tuple[float, ...]:
    """m[k] * cos((k - phase) pi/2), exactly: the boundary values A_k(2 pi N)."""
    return tuple(x * (1.0, 0.0, -1.0, 0.0)[(k - phase) % 4] for k, x in enumerate(m))


_M_P = list(_ZETA[2:])
_M_Q = [math.pi / 2.0] + list(_ZETA[2:-1])
_M_F = [1.0] + [(2.0 ** (k + 2) - 2.0) * _ZETA[k + 1] / math.pi for k in range(1, K_MAX + 1)]
_TAIL_P = _TailData(tuple(_M_P), _quarter_turns(_M_P, 0))
_TAIL_Q = _TailData(tuple(_M_Q), _quarter_turns(_M_Q, 1))
_TAIL_F = _TailData(tuple(_M_F), _quarter_turns(_M_F, 3), parity=-1.0)
_ORDERS = np.arange(K_MAX + 1.0)
_LOG_TWO_PI = math.log(TWO_PI)
_LOG_N_MAX = math.log(N_MAX)


def _tail_coef(alpha: complex, order: int, data: _TailData) -> float:
    """|alpha (alpha-1) ... (alpha-order+1)| m_order: the tail bound is
    this times t**e / |e| with e = Re alpha + 1 - order < 0."""
    return math.prod(abs(alpha - j) for j in range(order)) * data.m[order]


def _tail_err(alpha: complex, t: float, order: int, data: _TailData) -> float:
    """Error bound after ``order`` IBP passes at T = t, decreasing in t."""
    e = alpha.real + (1 - order)
    return _tail_coef(alpha, order, data) * t ** e / abs(e)


def _tail(alpha: complex, n: int, order: int, data: _TailData) -> tuple[complex, float, float]:
    """The tail int_{2 pi N}^oo y^alpha * kernel dy after ``order`` IBP passes:
    the exact boundary corrections
        sum_{j<order} (-1)^{j+1} alpha (alpha-1) ... (alpha-j+1) T^{alpha-j} A_{j+1}(T),
    the bound on what they leave out, and a bound on the rounding of their sum
    (the exponent of T^{alpha-j} is rounded like those of the period sums)."""
    t = TWO_PI * n
    log_t = cmath.log(t)
    parity = data.parity ** n
    corr = 0.0 + 0.0j
    size = 0.0
    coef = -1.0  # (-1)^{j+1} alpha (alpha-1) ... (alpha-j+1)
    for j in range(order):
        a = data.a[j + 1]
        if a:
            term = coef * cmath.exp((alpha - j) * log_t) * (parity * a)
            corr += term
            size += abs(term)
        coef *= j - alpha
    rnd = _EPS * (abs(alpha) * log_t.real + order + 4.0) * size
    return corr, _tail_err(alpha, t, order, data), rnd


def _n_periods(alpha: complex, half: float, order: int, data: _TailData) -> int:
    """The smallest N whose order-``order`` tail bound is at most ``half``, at
    most N_MAX: min(N_MAX, max(2, ceil(T / 2 pi))) with T inverting c T**e = half."""
    c = _tail_coef(alpha, order, data)
    e = alpha.real + (1 - order)
    log_n = (math.log(half) - math.log(c / abs(e))) / e - _LOG_TWO_PI
    if log_n >= _LOG_N_MAX:
        return N_MAX
    n = max(2, math.ceil(math.exp(log_n)))
    # Guard the closed-form inversion against rounding in log/exp.
    while n < N_MAX and c * (TWO_PI * n) ** e / abs(e) > half:
        n += 1
    return n


def _best_order(alpha: complex, half: float, data: _TailData) -> int:
    """The lowest order whose tail bound reaches ``half`` at the fewest
    periods, or, if none does within N_MAX, the order with the smallest
    bound at N_MAX.  Inverts the bounds of all orders at once, in logs."""
    neg_e = _ORDERS - (alpha.real + 1.0)  # -(exponent of T), > 0
    log_step = np.log(np.abs(alpha - _ORDERS))  # log |alpha - j|, summed below
    log_c = np.cumsum(log_step) - log_step + data.log_m - np.log(neg_e)
    log_t = (log_c - math.log(half)) / neg_e  # log T at which each bound is half
    log_t_cap = _LOG_TWO_PI + _LOG_N_MAX
    lowest = float(log_t.min())
    if lowest >= log_t_cap:
        return int(np.argmin(log_c - neg_e * log_t_cap))
    n = max(2, math.ceil(math.exp(lowest - _LOG_TWO_PI)))
    return int(np.argmax(log_t <= _LOG_TWO_PI + math.log(n)))


def _choose_tail(alpha: complex, cfg: PeriodSumConfig, data: _TailData) -> tuple[int, int]:
    """(N, K): the periods to sum and the tail order, chosen as
    PeriodSumConfig describes.  N is not raised to shrink the rounding bound,
    which grows with N."""
    n, order = cfg.n_periods, cfg.tail_order
    if n is not None or not cfg.tolerance:  # a tolerance of 0: no N meets it
        return N_MAX if n is None else n, 2 if order is None else order
    half = 0.5 * cfg.tolerance
    if order is None:
        order = _best_order(alpha, half, data)
    return _n_periods(alpha, half, order, data), order


@dataclass(frozen=True)
class _PeriodKernel:
    """A row of the period-sum table: on the period [a, a + 2 pi), k = a/2pi,
    the kernel is parity**k * sum_j coef[j] (y - a)^j; ``tail`` holds the
    parity and the integration-by-parts tail constants."""

    coef: tuple[float, ...]
    tail: _TailData


_P = _PeriodKernel((PI2_6, -math.pi / 2.0, 0.25), _TAIL_P)  # pi^2/6 - theta (2 pi - theta)/4
_Q = _PeriodKernel((-math.pi / 2.0, 0.5), _TAIL_Q)  # the sawtooth (theta - pi)/2
_ALT = _PeriodKernel((1.0,), _TAIL_F)  # the square wave (-1)^k


def _scaled(c: float, x):
    """c * x, without an array pass when c is 1."""
    return x if c == 1 else c * x


def _initial_interval(alpha: complex, kernel: _PeriodKernel) -> complex:
    """int_1^{2 pi} y^alpha kernel(y) dy = sum_j coef[j] ((2 pi)^b - 1)/b with
    b = alpha + j + 1, exactly.  Negative coefficients are subtracted, which
    keeps the sign of a zero imaginary part at real alpha."""
    _guard_poles(alpha, [-1.0 - j for j in range(len(kernel.coef))])
    terms = []
    for j, c in enumerate(kernel.coef):
        b = alpha + (j + 1.0)
        term = abs(c) * (cpow(TWO_PI, b) - 1.0) / b
        terms.append(-term if c < 0 else term)
    return sum(terms[1:], terms[0])


def _period_sum(alpha: complex, cfg: PeriodSumConfig, kernel: _PeriodKernel) -> EvalResult:
    """int_1^oo y^alpha kernel(y) dy by exact antiderivatives per period,
    independent of zeta: the initial interval, the periods k = 1..N-1, and the
    integration-by-parts tail beyond 2 pi N, with N and K chosen from ``cfg``."""
    alpha = complex(alpha)
    _require_convergent(alpha)
    initial = _initial_interval(alpha, kernel)
    n, order = _choose_tail(alpha, cfg, kernel.tail)
    k, loga, lograt = _period_grids(n)
    a = TWO_PI * k  # periods [2 pi k, 2 pi (k+1)), k = 1..N-1
    deg = len(kernel.coef) - 1
    d = _power_increments([alpha + (i + 1.0) for i in range(deg + 1)], loga, lograt)
    # Moments of theta = y - a against y^alpha, centred from d[i] (moments of
    # y) by the binomial theorem in Horner form in a; the centred combinations
    # keep every summand at the scale of the period integral itself.
    parts = []
    for j, c in enumerate(kernel.coef):
        moment = d[0]
        for i in range(1, j + 1):
            moment = _scaled(math.comb(j, i), d[i]) - a * moment
        parts.append(_scaled(c, moment))
    summands = sum(parts[1:], parts[0])
    # Rounding: the cancellation in the top centred moment, plus the exponents.
    rnd = 0.0
    if deg:
        size = np.abs(d[0])
        for i in range(1, deg + 1):
            size = _scaled(math.comb(deg, i), np.abs(d[i])) + a * size
        rnd = 1e-16 * float(np.sum(size))
    rnd += float(np.sum(_phase_err(alpha, loga, lograt) * np.abs(summands)))
    if kernel.tail.parity < 0:
        # Alternate the sign by period and pair adjacent periods before the
        # reduction: each pair nearly cancels, so the alternating series is
        # summed as an absolutely convergent one.
        terms = np.where(k.astype(np.int64) % 2 == 0, 1.0, -1.0) * summands
        m = terms.size - terms.size % 2
        paired = terms[:m:2] + terms[1:m:2]
        body = complex(np.sum(paired)) + (complex(terms[-1]) if terms.size % 2 else 0.0)
    else:
        body = complex(np.sum(summands))
    total = initial + body
    corr, err, corr_rnd = _tail(alpha, n, order, kernel.tail)
    return EvalResult(value=total + corr, abs_err=err + rnd + corr_rnd + 1e-15 * abs(total), work=n)


def i_alpha(alpha: complex) -> complex:
    """The initial-interval integral int_1^{2 pi} y^alpha p(y) dy, exactly."""
    return _initial_interval(complex(alpha), _P)


def d_quad(alpha: complex, cfg: PeriodSumConfig = PeriodSumConfig()) -> EvalResult:
    """D(alpha) by exact antiderivative sums per period; independent of zeta.

    This is the non-circular route: the zero-scan residuals are built on it.
    """
    return _period_sum(alpha, cfg, _P)


def e_quad(alpha: complex, cfg: PeriodSumConfig = PeriodSumConfig()) -> EvalResult:
    """E(alpha) by exact per-period sums of the sawtooth kernel."""
    return _period_sum(alpha, cfg, _Q)


def f_quad(alpha: complex, cfg: PeriodSumConfig = PeriodSumConfig()) -> EvalResult:
    """F(alpha) by signed per-period sums of the square wave."""
    return _period_sum(alpha, cfg, _ALT)


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


# --- dispatch -----------------------------------------------------------------


def kernel_integral(
    kernel: KernelId,
    alpha: complex,
    method: MellinMethod = MellinMethod.CLOSED_FORM,
    cfg: PeriodSumConfig = PeriodSumConfig(),
) -> EvalResult:
    """int_1^oo y^alpha kernel(y) dy by ``method``: D for P, E for Q, F for ALT,
    and for PTILDE = P + pi^2/12 the shifted D(alpha) - (pi^2/12)/(alpha+1).

    The closed forms get abs_err 1e-13 max(1, |value|); the period sums take
    N and the tail order from ``cfg``; the gamma series exists for D only.
    """
    alpha = complex(alpha)
    base = KernelId.P if kernel is KernelId.PTILDE else kernel
    # The tables are built per call so that each function is looked up by its
    # module-global name, which tracing and tests may rebind.
    if method is MellinMethod.CLOSED_FORM:
        v = {KernelId.P: d_closed, KernelId.Q: e_closed, KernelId.ALT: f_closed}[base](alpha)
        r = EvalResult(value=v, abs_err=1e-13 * max(1.0, abs(v)), work=1)
    elif method is MellinMethod.PERIOD_SUM:
        r = {KernelId.P: d_quad, KernelId.Q: e_quad, KernelId.ALT: f_quad}[base](alpha, cfg)
    elif method is MellinMethod.GAMMA_SERIES and base is KernelId.P:
        r = d_gamma_series(alpha)
    else:
        raise DomainError(f"method {method} not available for kernel {kernel}")
    if kernel is KernelId.PTILDE:
        r = EvalResult(value=r.value - PI2_12 / (alpha + 1.0), abs_err=r.abs_err, work=r.work)
    return r


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
