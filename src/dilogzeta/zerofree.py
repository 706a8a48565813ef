"""Zero-detection residuals and the zero-free-region certificate.

A zero of zeta at s = u + iv makes the bracket of the D-representation vanish,
so the residual

    R(s) = D(-2-s) - [pi^2/(6(1+s)) - pi/(2s) - 1/(4(1-s))]

is an independent zero detector: D goes through the period-sum route only,
never through a zeta evaluation.  The certificate side bounds c(u) =
-int_1^oo x^{-2-u} ln x p(x) dx by exact sign-split integrals and turns a
sufficient zero-free inequality into a checkable verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, EvalResult
from .kernels import PI2_6, ROOT_HI, ROOT_LO, TWO_PI
from .mellin import PeriodSumConfig, d_quad_many

_PI2 = math.pi ** 2


def _bracket_terms(s: complex) -> complex:
    return _PI2 / (6.0 * (1.0 + s)) - math.pi / (2.0 * s) - 0.25 / (1.0 - s)


def zero_residual(u: float, v, cfg: PeriodSumConfig = PeriodSumConfig()):
    """Complex residual that vanishes exactly when zeta(u + iv) = 0, at one v
    (a complex) or at an array of them (an array, by one batched period sum).

    The bracket is exact, so the residual carries D's error and a tolerance in
    ``cfg`` applies to it unchanged."""
    if not (0.0 < u < 1.0):
        raise DomainError(f"zero_residual: need 0 < u < 1, got {u}")
    v = np.asarray(v, dtype=float)
    if (v == 0.0).any():
        raise DomainError("zero_residual: need v != 0")
    s = u + 1j * v
    d, _, _ = d_quad_many(-2.0 - s, cfg)
    res = d.reshape(s.shape) - _bracket_terms(s)
    return complex(res) if res.ndim == 0 else res


@dataclass(frozen=True)
class ScanReport:
    u: float
    rows: tuple  # ordered (v, re_res, im_res, abs_res) tuples, v increasing
    candidate_zeros: tuple  # refined v locations of sub-threshold local minima


def _golden_min(u: float, lo: np.ndarray, hi: np.ndarray, tol: float, cfg: PeriodSumConfig) -> np.ndarray:
    """Minimise |zero_residual(u, v)| over v in each bracket [lo_i, hi_i], all
    brackets together: each pass samples every bracket at up to 41 points in
    one batched call (no more than the last pass needs to reach ``tol``) and
    narrows each to the two sample intervals around its least |residual|,
    until the brackets are at most ``tol`` wide.  Returns their centres.  It
    replaced a golden-section search and keeps the name by which
    perfbench/spans.py traces the refinement."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    while lo.size and (hi - lo).max() > tol:
        points = min(41, math.ceil(2.0 * (hi - lo).max() / tol) + 1)
        v = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, points)
        best = np.abs(zero_residual(u, v, cfg)).argmin(1)
        rows = np.arange(lo.size)
        lo, hi = v[rows, np.maximum(best - 1, 0)], v[rows, np.minimum(best + 1, points - 1)]
    return 0.5 * (lo + hi)


def scan_line(
    u: float,
    v_min: float,
    v_max: float,
    step: float,
    cfg: PeriodSumConfig = PeriodSumConfig(),
    threshold: float = 1e-3,
) -> ScanReport:
    """Residual scan along Im s with local-minimum zero candidates.

    The whole grid is one batched residual call.  Candidates are interior
    grid minima of |residual| below ``threshold``, refined together by
    ``_golden_min`` to step/100.
    """
    if not (0.0 < u < 1.0):
        raise DomainError("scan_line: need 0 < u < 1")
    if not (0.0 < v_min < v_max) or step <= 0.0:
        raise DomainError("scan_line: need 0 < v_min < v_max and step > 0")
    grid = np.arange(v_min, v_max + 0.5 * step, step)
    res = zero_residual(u, grid, cfg)
    mag = np.hypot(res.real, res.imag)
    rows = tuple(zip(grid.tolist(), res.real.tolist(), res.imag.tolist(), mag.tolist()))
    inner = mag[1:-1]
    i = np.flatnonzero((inner < threshold) & (inner <= mag[:-2]) & (inner <= mag[2:])) + 1
    candidates = _golden_min(u, grid[i - 1], grid[i + 1], step / 100.0, cfg)
    return ScanReport(u=u, rows=rows, candidate_zeros=tuple(candidates.tolist()))


# --- c(u) and its rigorous bracket -------------------------------------------


def _ln_antider(gamma: float, x: np.ndarray) -> np.ndarray:
    """Antiderivative of x^gamma ln x: x^{g+1}(ln x/(g+1) - 1/(g+1)^2), with
    the removable case gamma = -1 -> (ln x)^2 / 2."""
    g1 = gamma + 1.0
    lx = np.log(x)
    if abs(g1) < 1e-12:
        return 0.5 * lx ** 2
    return np.power(x, g1) * (lx / g1 - 1.0 / g1 ** 2)


def _ln_weighted_p_integrals(u: float, lo: np.ndarray, hi: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Exact int_lo^hi x^{-2-u} ln x p(x) dx per interval, where the interval
    [lo_i, hi_i] lies in the period starting at 2 pi k_i."""
    gamma = -2.0 - u
    c0 = PI2_6 + _PI2 * k * (1.0 + k)
    c1 = -(math.pi / 2.0 + math.pi * k)
    out = c0 * (_ln_antider(gamma, hi) - _ln_antider(gamma, lo))
    out += c1 * (_ln_antider(gamma + 1.0, hi) - _ln_antider(gamma + 1.0, lo))
    out += 0.25 * (_ln_antider(gamma + 2.0, hi) - _ln_antider(gamma + 2.0, lo))
    return out


def _ln_tail_integral(u: float, a: float) -> float:
    """int_a^oo x^{-2-u} ln x dx = a^{-1-u} (ln a/(1+u) + 1/(1+u)^2)."""
    u1 = 1.0 + u
    return a ** (-u1) * (math.log(a) / u1 + 1.0 / u1 ** 2)


def _sign_split_pieces(u: float, n_periods: int) -> tuple[float, float]:
    """(c_plus, c_minus): integrals of x^{-2-u} ln x |p(x)| over the regions
    where p <= 0 and p >= 0 respectively, on [1, 2 pi N].  Both nonnegative."""
    k = np.arange(0, n_periods, dtype=np.float64)
    base = TWO_PI * k
    # Region boundaries inside each period: p >= 0 on [0, r_lo] u [r_hi, 2 pi].
    lo1 = np.maximum(base, 1.0)  # clips the first period to start at x = 1
    pos_a = _ln_weighted_p_integrals(u, lo1, base + ROOT_LO, k)
    pos_b = _ln_weighted_p_integrals(u, base + ROOT_HI, base + TWO_PI, k)
    neg = _ln_weighted_p_integrals(u, base + ROOT_LO, base + ROOT_HI, k)
    c_minus = float(np.sum(pos_a) + np.sum(pos_b))
    c_plus = float(-np.sum(neg))
    return c_plus, c_minus


def c_of_u(u: float, n_periods: int = 100) -> EvalResult:
    """c(u) = -int_1^oo x^{-2-u} ln x p(x) dx by exact per-period integration
    truncated at 2 pi N, with the crude kernel-bound tail in abs_err."""
    if u <= 0.0:
        raise DomainError("c_of_u: integral representation needs u > 0")
    if n_periods < 2:
        raise DomainError("c_of_u: N must be >= 2")
    c_plus, c_minus = _sign_split_pieces(u, n_periods)
    tail = PI2_6 * _ln_tail_integral(u, TWO_PI * n_periods)
    return EvalResult(value=complex(c_plus - c_minus), abs_err=tail, work=n_periods)


def c_bracket(n_periods: int = 100, u_range: tuple[float, float] = (0.0, 1.0)) -> tuple[float, float]:
    """Rigorous-style bracket for c(u) uniformly over u in ``u_range``.

    Both sign-split pieces decrease in u, so c_plus(u_hi) - c_minus(u_lo) + m_N
    and c_plus(u_lo) - c_minus(u_hi) + M_N bracket c(u) on the range, where
    m_N/M_N bound the discarded tail via min p = -pi^2/12 and max p = pi^2/6.
    Restricting the range can only tighten the bracket; nothing is asserted
    about how much.
    """
    if n_periods < 2:
        raise DomainError("c_bracket: N must be >= 2")
    u_lo, u_hi = u_range
    if not (0.0 <= u_lo < u_hi):
        raise DomainError("c_bracket: need 0 <= u_lo < u_hi")
    t = _ln_tail_integral(u_lo, TWO_PI * n_periods)
    m_n = -(PI2_6) * t
    big_m_n = (_PI2 / 12.0) * t
    cp_hi, cm_hi = _sign_split_pieces(u_hi, n_periods)
    cp_lo, cm_lo = _sign_split_pieces(u_lo, n_periods)
    return cp_hi - cm_lo + m_n, cp_lo - cm_hi + big_m_n


def c_sign_parts(u: float, n_periods: int = 100) -> tuple[float, float]:
    """Expose (c_plus, c_minus) for monotonicity checks."""
    if u < 0.0:
        raise DomainError("c_sign_parts: u must be >= 0")
    return _sign_split_pieces(u, n_periods)


def im_b(u0: float, v0: float) -> float:
    """Closed form of Im B(u0, v0), where B = bracket/v0:

        -(pi^2/6)/((1+u0)^2+v0^2) + (pi/2)/(u0^2+v0^2) - (1/4)/((1-u0)^2+v0^2).

    Pure algebra against Im(_bracket_terms(s0)/v0); exposed for the identity
    check and the lower-side certificate.
    """
    if v0 == 0.0:
        raise DomainError("im_b: need v0 != 0")
    return (
        -(PI2_6) / ((1.0 + u0) ** 2 + v0 * v0)
        + (math.pi / 2.0) / (u0 * u0 + v0 * v0)
        - 0.25 / ((1.0 - u0) ** 2 + v0 * v0)
    )


def b_bound(u: float, v: float) -> float:
    """(pi^2/3) min{ v^2/(2 (1+u)^4), 1/(1+u)^2 }."""
    if u <= 0.0:
        raise DomainError("b_bound: u must be > 0")
    return (_PI2 / 3.0) * min(v * v / (2.0 * (1.0 + u) ** 4), 1.0 / (1.0 + u) ** 2)


@dataclass(frozen=True)
class Certificate:
    u0: float
    v0: float
    n_periods: int
    c_lower: float
    c_upper: float
    lhs: float
    rhs: float
    holds: bool

    def __post_init__(self):
        if self.c_lower > self.c_upper:
            raise ValueError("certificate bracket inverted")
        if self.holds != (self.lhs > self.rhs):
            raise ValueError("verdict inconsistent with lhs/rhs")


def certify(u0: float, v0: float, n_periods: int = 100, criterion: str = "upper") -> Certificate:
    """Zero-free verdict at s = u0 + i v0.

    ``criterion="upper"`` (the production side): if

        (pi^2/2)/(u0^2+v0^2) > sup c + (pi^2/3) min{v0^2/2, 1}
            + (pi^2/6)/((1+u0)^2+v0^2) + (1/4)/((1-u0)^2+v0^2)

    then zeta(u0 + i v0) != 0.  ``sup c`` is taken as the rigorous upper
    bracket end, keeping the verdict conservative.

    ``criterion="lower"`` is the alternative side Im B < c(u0) - b(u0, v0),
    made conservative with the lower bracket end for c: the Certificate keeps
    the holds = (lhs > rhs) convention by negating both sides, so
    lhs = -Im B and rhs = b_bound - c_lower.  Kept as a flag-gated variant;
    it is not tuned and in practice certifies less than the upper side.
    """
    if not (0.0 < u0 < 1.0):
        raise DomainError("certify: need 0 < u0 < 1")
    if v0 <= 0.0:
        raise DomainError("certify: need v0 > 0")
    if criterion not in ("upper", "lower"):
        raise DomainError("certify: criterion must be 'upper' or 'lower'")
    c_lower, c_upper = c_bracket(n_periods)
    if criterion == "upper":
        lhs = (_PI2 / 2.0) / (u0 * u0 + v0 * v0)
        rhs = (
            c_upper
            + (_PI2 / 3.0) * min(v0 * v0 / 2.0, 1.0)
            + (_PI2 / 6.0) / ((1.0 + u0) ** 2 + v0 * v0)
            + 0.25 / ((1.0 - u0) ** 2 + v0 * v0)
        )
    else:
        lhs = -im_b(u0, v0)
        rhs = b_bound(u0, v0) - c_lower
    return Certificate(
        u0=u0,
        v0=v0,
        n_periods=n_periods,
        c_lower=c_lower,
        c_upper=c_upper,
        lhs=lhs,
        rhs=rhs,
        holds=lhs > rhs,
    )
