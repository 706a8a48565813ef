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
constants.  It evaluates many alpha in one call; ``d_quad_many`` is its batched
entry for D, and ``d_quad``, ``e_quad``, ``f_quad`` and ``i_alpha`` are
single-alpha calls.
"""

from __future__ import annotations

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
_ORDERS = np.arange(K_MAX + 1.0)

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
#
# The period sums take one alpha per row: a 1-d array, or a numpy scalar for a
# single row (d_quad, e_quad, f_quad), whose per-row arithmetic then costs no
# array operations.  The periods k = 0..N-1 of the rows form one flat grid.


_GRIDS: tuple[np.ndarray, ...] = ()


def _period_grids(n_periods: int) -> tuple[np.ndarray, ...]:
    """For the periods k = 0..N-1 with ends a < b: k, 2 pi k, log a, log(b/a),
    log b and (-1)^k, as read-only prefix views of one grid that grows to the
    largest N asked for; a prefix equals a grid built at N.  Period k >= 1 is
    [2 pi k, 2 pi (k+1)); period 0 is [1, 2 pi)."""
    global _GRIDS
    grids = _GRIDS  # one read: another thread may swap in a grid of a different size
    if not grids or grids[0].size < n_periods:
        k = np.arange(n_periods, dtype=np.float64)
        loga, lograt = np.zeros(n_periods), np.full(n_periods, _LOG_TWO_PI)
        loga[1:], lograt[1:] = np.log(TWO_PI * k[1:]), np.log1p(1.0 / k[1:])
        grids = (k, TWO_PI * k, loga, lograt, loga + lograt, 1.0 - 2.0 * (k % 2))
        for g in grids:
            g.flags.writeable = False
        _GRIDS = grids
    return tuple(g[:n_periods] for g in grids)


def _col(v):
    """A per-row value as a column against a row of orders or periods."""
    return v[:, None] if v.ndim else v


def _most(v):
    """The largest per-row value (for booleans: any)."""
    return v.max() if v.ndim else v


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
    |A_k|, and A_k(2 pi N) = parity**N * a[k]; ``a_live[K]`` holds the
    a[1..K] that an order-K tail uses, then zeros."""

    m: tuple[float, ...]
    a: tuple[float, ...]
    parity: float = 1.0
    m_arr: np.ndarray = field(init=False, repr=False, compare=False)
    a_live: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "m_arr", np.array(self.m))
        object.__setattr__(self, "a_live", np.where(_ORDERS[:, None] > _ORDERS[:-1], self.a[1:], 0.0))


def _quarter_turns(m: list[float], phase: int) -> tuple[float, ...]:
    """m[k] * cos((k - phase) pi/2), exactly: the boundary values A_k(2 pi N)."""
    return tuple(x * (1.0, 0.0, -1.0, 0.0)[(k - phase) % 4] for k, x in enumerate(m))


_M_P = list(_ZETA[2:])
_M_Q = [math.pi / 2.0] + list(_ZETA[2:-1])
_M_F = [1.0] + [(2.0 ** (k + 2) - 2.0) * _ZETA[k + 1] / math.pi for k in range(1, K_MAX + 1)]
_TAIL_P = _TailData(tuple(_M_P), _quarter_turns(_M_P, 0))
_TAIL_Q = _TailData(tuple(_M_Q), _quarter_turns(_M_Q, 1))
_TAIL_F = _TailData(tuple(_M_F), _quarter_turns(_M_F, 3), parity=-1.0)
_LOG_TWO_PI = math.log(TWO_PI)
_LOG_T_CAP = _LOG_TWO_PI + math.log(N_MAX)


def _tail_coefs(alpha, data: _TailData) -> np.ndarray:
    """Per row, for K = 0..K_MAX: |alpha (alpha-1) ... (alpha-K+1)| m_K, the c
    of the order-K tail bound c T**e / |e| with e = Re alpha + 1 - K < 0.  The
    product rounds as a left-to-right product of its factors."""
    steps = np.hypot(_col(alpha.real) - (_ORDERS - 1.0), _col(alpha.imag))
    steps[..., 0] = 1.0
    return steps.cumprod(-1) * data.m_arr


def _bound(c, alpha, t, order):
    """The tail bound c T**e / |e| at T = t (float_power rounds as Python's **)."""
    e = alpha.real + (1 - order)
    return c * np.float_power(t, e) / abs(e)


def _pick(table: np.ndarray, order):
    """table[r, order[r]] for each row r."""
    return table[order] if table.ndim == 1 else table[np.arange(order.size), order]


def _tail_err(alpha, t, order, data: _TailData):
    """Error bound after ``order`` IBP passes at T = t, decreasing in t."""
    alpha = np.complex128(alpha)
    return _bound(_pick(_tail_coefs(alpha, data), order), alpha, t, order)


def _corrections(alpha, n, order, data: _TailData):
    """Per row, the exact boundary corrections of the order-K tail beyond T = 2 pi N,
        sum_{j<K} (-1)^{j+1} alpha (alpha-1) ... (alpha-j+1) T^{alpha-j} A_{j+1}(T),
    and a bound on the rounding of their sum (the exponent of T^{alpha-j} is
    rounded like those of the period sums)."""
    log_t = np.log(TWO_PI * n)
    x = _col(alpha) - _ORDERS[: order.max()]  # alpha - j
    power = np.exp(x * _col(log_t))
    coef = np.empty_like(x)  # (-1)^{j+1} alpha (alpha-1) ... (alpha-j+1)
    coef[..., :1] = -1.0
    np.negative(x[..., :-1], out=coef[..., 1:])
    coef = coef.cumprod(-1)
    # coef * power from exact products with its parts: numpy's complex
    # multiply rounds otherwise than Python's, and the orders <= 2 reproduce
    # the fixed-order formulas.
    by_re, by_im = coef * power.real, coef * power.imag
    terms = np.empty_like(x)
    np.subtract(by_re.real, by_im.imag, out=terms.real)
    np.add(by_re.imag, by_im.real, out=terms.imag)
    terms *= data.a_live[order, : x.shape[-1]]
    corr = np.add.reduce(terms, -1)
    if data.parity < 0:
        corr = corr * (1 - 2 * (n % 2))
    return corr, _EPS * (abs(alpha) * log_t + order + 4.0) * np.add.reduce(abs(terms), -1)


def _tail(alpha, n, order, data: _TailData) -> tuple:
    """The tail int_{2 pi N}^oo y^alpha * kernel dy after ``order`` IBP passes,
    for one alpha: the exact boundary corrections, the bound on what they
    leave out, and a bound on the rounding of their sum."""
    alpha, n, order = np.complex128(alpha), np.int64(n), np.int64(order)
    corr, rnd = _corrections(alpha, n, order, data)
    return corr, _tail_err(alpha, TWO_PI * n, order, data), rnd


def _plan(alpha, cfg: PeriodSumConfig, data: _TailData) -> tuple:
    """Per row, (N, K) chosen as PeriodSumConfig describes (N is not raised to
    shrink the rounding bound, which grows with N) and the tail bound there."""
    coefs = _tail_coefs(alpha, data)
    n, order = cfg.n_periods, cfg.tail_order
    if n is not None or not cfg.tolerance:  # a tolerance of 0: no N meets it
        n = np.full(alpha.shape, N_MAX if n is None else n)[()]
        order = np.full(alpha.shape, 2 if order is None else order)[()]
        return n, order, _bound(_pick(coefs, order), alpha, TWO_PI * n, order)
    half = 0.5 * cfg.tolerance
    # Invert the bounds of all orders at once, in logs, for the N >= 2 at which
    # each reaches half: the lowest order of the fewest periods wins, or if
    # none reaches half within N_MAX, the one with the least bound at N_MAX.
    neg_e = _ORDERS - _col(alpha.real + 1.0)  # -(exponent of T), > 0
    log_c = np.log(coefs / neg_e)
    log_t = (log_c - math.log(half)) / neg_e
    periods = np.maximum(2.0, np.ceil(np.exp(np.minimum(log_t, _LOG_T_CAP + 1.0) - _LOG_TWO_PI)))
    order = periods.argmin(-1) if order is None else np.full(alpha.shape, order)[()]
    n = _pick(periods, order)
    if _most(n) > N_MAX:
        if cfg.tail_order is None:
            order = np.where(n > N_MAX, (log_c - neg_e * _LOG_T_CAP).argmin(-1), order)[()]
        n = np.minimum(n, N_MAX)
    n, c = n.astype(np.int64), _pick(coefs, order)
    while True:  # guard the inversion in logs against rounding: the exact bound decides
        err = _bound(c, alpha, TWO_PI * n, order)
        short = (err > half) & (n < N_MAX)
        if not _most(short):
            return n, order, err
        n = n + short


def _choose_tail(alpha, cfg: PeriodSumConfig, data: _TailData) -> tuple:
    """(N, K) for one alpha or an array of them, as ``_plan`` chooses them."""
    return _plan(np.asarray(alpha, dtype=complex)[()], cfg, data)[:2]


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


def _periods(alpha, n, kernel: _PeriodKernel) -> tuple:
    """Per row, int_1^{2 pi N} y^alpha kernel(y) dy as its sum over the periods
    k = 0..N-1, and a bound on its rounding, from one grid laid out flat
    (entry r * width + k for period k of row r) and padded to the largest N."""
    k, a, loga, lograt, logb, sign = _period_grids(int(_most(n)))
    rows, width = alpha.size, k.size
    if rows > 1:  # padded periods get b = a, which makes their increments exactly 0
        lograt = np.where(k < n[:, None], lograt, 0.0).ravel()
        a, loga, logb = (np.tile(g, rows) for g in (a, loga, logb))
    # int_a^b y^{beta-1} dy = a^beta expm1(beta log(b/a)) / beta for
    # beta = alpha+1..alpha+deg+1, without subtracting nearly equal powers.
    beta = (alpha + _ORDERS[1 : len(kernel.coef) + 1, None]).repeat(width, -1)
    if _most(abs(alpha.imag) < POLE_GUARD) and abs(beta).min() < POLE_GUARD:
        j, r = divmod(int(abs(beta).argmin()), beta.shape[-1])
        raise PoleError(f"pole of an individual term at alpha = {-1.0 - j}; got {np.ravel(alpha)[r // width]}")
    d = np.exp(beta * loga[None]) * sp.expm1(beta * lograt[None]) / beta
    # Moments of theta = y - a (a = 0 on period 0) against y^alpha, centred
    # from d[i] by the binomial theorem in Horner form in a, which keeps every
    # summand at the scale of the period integral itself.
    summands = None
    for j, c in enumerate(kernel.coef):
        moment = d[0]
        for i in range(1, j + 1):
            moment = (d[i] if i == j else math.comb(j, i) * d[i]) - a * moment
        part = moment if c == 1.0 else c * moment
        summands = part if summands is None else summands + part
    # Rounding: the exponents carry about eps |beta| log b, shared by the
    # moments of one period since Im beta = Im alpha, and 4 eps covers the
    # remaining operations; the top centred moment adds its cancellation.
    err = (abs(alpha) + 3.0).repeat(width) * logb
    err += 4.0
    err *= np.abs(summands)
    deg = len(kernel.coef) - 1
    if deg:
        mag = np.abs(d)
        size = mag[0]
        for i in range(1, deg + 1):
            size = (mag[i] if i == deg else math.comb(deg, i) * mag[i]) + a * size
        err += (1e-16 / _EPS) * size
    shape = (rows, width) if alpha.ndim else width
    rnd = _EPS * np.add.reduce(err.reshape(shape), -1)
    terms = summands.reshape(shape)
    if kernel.tail.parity > 0:
        return np.add.reduce(terms, -1), rnd
    # Alternate the sign by period and pair adjacent periods before the
    # reduction: each pair nearly cancels, so the alternating series is
    # summed as an absolutely convergent one.
    terms = terms * sign
    m = width - width % 2
    body = np.add.reduce(terms[..., :m:2] + terms[..., 1:m:2], -1)
    return (body + terms[..., -1] if width % 2 else body), rnd


def _period_sum(alpha, cfg: PeriodSumConfig, kernel: _PeriodKernel) -> tuple:
    """int_1^oo y^alpha kernel(y) dy per row by exact antiderivatives per
    period, independent of zeta: the periods k = 0..N-1 and the
    integration-by-parts tail beyond 2 pi N, with N and K chosen from ``cfg``
    per row.  Returns the value, abs_err and N of each row."""
    if _most(alpha.real) >= -1.0:
        _require_convergent(complex(np.ravel(alpha)[alpha.real.argmax()]))
    n, order, err = _plan(alpha, cfg, kernel.tail)
    rows = max(1, N_MAX // int(_most(n)))
    if rows >= alpha.size:
        body, rnd = _periods(alpha, n, kernel)
    else:
        parts = [_periods(alpha[i : i + rows], n[i : i + rows], kernel) for i in range(0, alpha.size, rows)]
        body, rnd = (np.concatenate(p) for p in zip(*parts))
    corr, corr_rnd = _corrections(alpha, n, order, kernel.tail)
    return body + corr, err + rnd + corr_rnd + 1e-15 * abs(body), n


def _one(alpha: complex, cfg: PeriodSumConfig, kernel: _PeriodKernel) -> EvalResult:
    value, abs_err, n = _period_sum(np.complex128(alpha), cfg, kernel)
    return EvalResult(value=complex(value), abs_err=float(abs_err), work=int(n))


def i_alpha(alpha: complex) -> complex:
    """The initial-interval integral int_1^{2 pi} y^alpha p(y) dy: period 0."""
    return complex(_periods(np.complex128(alpha), np.int64(1), _P)[0])


def d_quad(alpha: complex, cfg: PeriodSumConfig = PeriodSumConfig()) -> EvalResult:
    """D(alpha) by exact antiderivative sums per period; independent of zeta."""
    return _one(alpha, cfg, _P)


def d_quad_many(alpha, cfg: PeriodSumConfig = PeriodSumConfig()) -> tuple:
    """D at every alpha of an array in one batched period sum: arrays of the
    value, abs_err and N, flattened.  This is the non-circular route that the
    zero-scan residuals are built on."""
    return _period_sum(np.asarray(alpha, dtype=complex).reshape(-1), cfg, _P)


def e_quad(alpha: complex, cfg: PeriodSumConfig = PeriodSumConfig()) -> EvalResult:
    """E(alpha) by exact per-period sums of the sawtooth kernel."""
    return _one(alpha, cfg, _Q)


def f_quad(alpha: complex, cfg: PeriodSumConfig = PeriodSumConfig()) -> EvalResult:
    """F(alpha) by signed per-period sums of the square wave."""
    return _one(alpha, cfg, _ALT)


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
