"""Three representations of zeta(s) on Re s > 0 through the kernel integrals
D, E, F, plus explicit |zeta| bounds.

Each representation has two modes: with the closed-form integral it is an
algebraic round-trip against the reference evaluator (a consistency check);
with the period-sum integral it is an independent computation of zeta that
never calls a zeta routine.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .core import DomainError, EvalResult, PoleError, cpow
from .mellin import (
    MellinMethod,
    PeriodSumConfig,
    _dispatch_d,
    e_val,
    f_val,
)

_S_MIN = 1e-6


def _check_s(s: complex) -> complex:
    s = complex(s)
    if s.real <= 0.0:
        raise DomainError(f"representations require Re s > 0, got {s}")
    if abs(s) < _S_MIN:
        raise DomainError(f"|s| < {_S_MIN}: prefactor cancellation not certified")
    if abs(s - 1.0) < 1e-9:
        raise PoleError("zeta pole at s = 1")
    return s


def _integral_cfg(cfg: PeriodSumConfig, scale: float) -> PeriodSumConfig:
    """The integral's config for a zeta tolerance: zeta's abs_err is
    scale * (integral's abs_err) + 1e-14, so the integral gets
    (tol - 1e-14) / scale."""
    if cfg.tolerance is None:
        return cfg
    return replace(cfg, tolerance=max(cfg.tolerance - 1e-14, 0.0) / scale)


def zeta_via_d(
    s: complex,
    d_method: MellinMethod = MellinMethod.PERIOD_SUM,
    cfg: PeriodSumConfig = PeriodSumConfig(),
) -> EvalResult:
    """zeta(s) = 2 s (1+s) (2 pi)^{s-1} [pi^2/(6(1+s)) - pi/(2s) - 1/(4(1-s))
    - D(-2-s)], with the prefactor distributed so nothing blows up near s = 0.
    """
    s = _check_s(s)
    pref = 2.0 * cpow(math.pi * 2.0, s - 1.0)
    scale = abs(pref) * abs(s * (1.0 + s))
    d = _dispatch_d(-2.0 - s, d_method, _integral_cfg(cfg, scale))
    bracket = (
        s * math.pi ** 2 / 6.0
        - math.pi * (1.0 + s) / 2.0
        - s * (1.0 + s) / (4.0 * (1.0 - s))
        - s * (1.0 + s) * d.value
    )
    return EvalResult(value=pref * bracket, abs_err=scale * d.abs_err + 1e-14, work=d.work)


def zeta_via_e(
    s: complex,
    method: MellinMethod = MellinMethod.PERIOD_SUM,
    cfg: PeriodSumConfig = PeriodSumConfig(),
) -> EvalResult:
    """zeta(s) = 2 s (2 pi)^{s-1} [-pi/(2s) - 1/(2(1-s)) - E(-1-s)]."""
    s = _check_s(s)
    pref = 2.0 * cpow(math.pi * 2.0, s - 1.0)
    scale = abs(pref) * abs(s)
    e = e_val(-1.0 - s, method, _integral_cfg(cfg, scale))
    bracket = -math.pi / 2.0 - s / (2.0 * (1.0 - s)) - s * e.value
    return EvalResult(value=pref * bracket, abs_err=scale * e.abs_err + 1e-14, work=e.work)


def zeta_via_f(
    s: complex,
    method: MellinMethod = MellinMethod.PERIOD_SUM,
    cfg: PeriodSumConfig = PeriodSumConfig(),
) -> EvalResult:
    """zeta(s) = (1/2) (2 pi)^s / (1 - 2^{1-s}) * [1 - s F(-1-s)]."""
    s = _check_s(s)
    denom = 1.0 - cpow(2.0, 1.0 - s)
    if abs(denom) < 1e-9:
        raise PoleError(f"denominator 1 - 2^(1-s) vanishes at s = {s}")
    pref = 0.5 * cpow(math.pi * 2.0, s) / denom
    scale = abs(pref) * abs(s)
    f = f_val(-1.0 - s, method, _integral_cfg(cfg, scale))
    value = pref * (1.0 - s * f.value)
    return EvalResult(value=value, abs_err=scale * f.abs_err + 1e-14, work=f.work)


def alternating_series_identity(s: complex, method: MellinMethod = MellinMethod.CLOSED_FORM) -> complex:
    """(s/2) (2 pi)^s [1/s - F(-1-s)]; equals the Dirichlet eta sum eta(s)."""
    s = _check_s(s)
    f = f_val(-1.0 - s, method)
    return (s / 2.0) * cpow(math.pi * 2.0, s) * (1.0 / s - f.value)


def zeta_bound_e(s: complex) -> float:
    """(2 pi)^{u-1} [pi |v|/u + 2 pi + 1 + u/|v|]; valid for u > 0, v != 0."""
    s = complex(s)
    u, v = s.real, s.imag
    if u <= 0.0:
        raise DomainError("bound requires Re s > 0")
    if v == 0.0:
        raise DomainError("bound diverges for real s (v = 0)")
    return (2.0 * math.pi) ** (u - 1.0) * (
        math.pi * abs(v) / u + 2.0 * math.pi + 1.0 + u / abs(v)
    )


def zeta_bound_f(s: complex) -> float:
    """((2 pi)^u / 2) (1 + |s|/u) / sqrt(1 + 2^{2-2u} - 2^{2-u} cos(v ln 2))."""
    s = complex(s)
    u, v = s.real, s.imag
    if u <= 0.0:
        raise DomainError("bound requires Re s > 0")
    radicand = 1.0 + 2.0 ** (2.0 - 2.0 * u) - 2.0 ** (2.0 - u) * math.cos(v * math.log(2.0))
    if radicand <= 1e-12:
        raise DomainError("denominator vanishes: 2^{1-u} e^{-i v ln 2} too close to 1")
    return (2.0 * math.pi) ** u / 2.0 * (1.0 + abs(s) / u) / math.sqrt(radicand)
