"""Theta transforms, numeric Mellin transforms, Poisson-summation checks, the
symmetrized Muntz identity, and the incomplete Mellin transform of the
triangle test function's Fourier transform.

The triangle phi(x) = max(0, 1-|x|) is the workhorse: its Fourier transform
(1 - cos 2 pi y)/(2 pi^2 y^2) ties the theta sum directly to the periodic
kernel p, which is what links the Muntz formula to the kernel integrals.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.integrate as integrate
import scipy.special as sp

from .core import DomainError, EvalResult, cpow, kahan_sum
from .kernels import TWO_PI, KernelId, kernel_eval
from .mellin import _TAIL_P, _tail, d_closed, i_alpha
from .specfun import inc_gamma, zeta_ref

_PI2 = math.pi ** 2


def triangle_fourier(y: float) -> float:
    """(1 - cos 2 pi y)/(2 pi^2 y^2), with the removable singularity at 0
    replaced by its 4th-order Taylor polynomial for |y| < 1e-4."""
    z = TWO_PI * y
    if abs(y) < 1e-4:
        z2 = z * z
        return 1.0 - z2 / 12.0 + z2 * z2 / 360.0 - z2 * z2 * z2 / 20160.0
    return (1.0 - math.cos(z)) / (2.0 * _PI2 * y * y)


@dataclass(frozen=True)
class TestFunction:
    """An even test function together with its Fourier transform and the
    analytic tail data the quadratures need.

    ``theta_tail`` and ``fourier_theta_tail`` return
    (int_X^oo x^w Theta(f)(x) dx, error) and the same for Theta(F(f));
    X must be a positive integer so the kernel boundary terms vanish.
    The decay constants assert |f| + |F(f)| <= c/(1+|x|)^{1+delta}.
    """

    name: str
    eval_fn: Callable[[float], float]
    fourier_fn: Callable[[float], float]
    f_at_zero: float
    fourier_at_zero: float
    half_integral: float  # int_0^oo f
    fourier_half_integral: float
    decay_c: float
    decay_delta: float
    theta_tail: Callable[[complex, int], tuple[complex, float]]
    fourier_theta_tail: Callable[[complex, int], tuple[complex, float]]
    # Effective supports: |f| (resp. |F(f)|) is exactly zero or below double
    # rounding beyond these radii; None means only the decay envelope is known.
    support: Optional[float] = None
    fourier_support: Optional[float] = None
    # Closed forms for the theta sums, used on the production paths.
    theta_closed: Optional[Callable[[float], float]] = None
    fourier_theta_closed: Optional[Callable[[float], float]] = None

    def __call__(self, x: float) -> float:
        return self.eval_fn(x)

    def fourier(self, y: float) -> float:
        return self.fourier_fn(y)

    def flipped(self) -> "TestFunction":
        """Swap the roles of f and F(f) (valid because F(F(f)) = f)."""
        return replace(
            self,
            name=self.name + "-flipped",
            eval_fn=self.fourier_fn,
            fourier_fn=self.eval_fn,
            f_at_zero=self.fourier_at_zero,
            fourier_at_zero=self.f_at_zero,
            half_integral=self.fourier_half_integral,
            fourier_half_integral=self.half_integral,
            theta_tail=self.fourier_theta_tail,
            fourier_theta_tail=self.theta_tail,
            support=self.fourier_support,
            fourier_support=self.support,
            theta_closed=self.fourier_theta_closed,
            fourier_theta_closed=self.theta_closed,
        )


def _zero_tail(w: complex, x_cut: int) -> tuple[complex, float]:
    return 0.0 + 0.0j, 0.0


def _triangle_fourier_theta_tail(w: complex, x_cut: int) -> tuple[complex, float]:
    """int_X^oo x^w Theta(F(phi))(x) dx using the closed form
    Theta(F(phi)) = 1/(12 x^2) - p(2 pi x)/(2 pi^2 x^2)."""
    if x_cut < 1:
        raise DomainError("tail cut must be a positive integer")
    mean_part = -(1.0 / 12.0) * cpow(float(x_cut), w - 1.0) / (w - 1.0)
    # int_{2 pi X}^oo y^(w-2) p(y) dy, by two integration-by-parts passes
    p_val, p_err, p_rnd = _tail(w - 2.0, x_cut, 2, _TAIL_P)
    scale = cpow(TWO_PI, 1.0 - w) / (2.0 * _PI2)
    return mean_part - scale * p_val, abs(scale) * (p_err + p_rnd)


def _gaussian_theta_tail(w: complex, x_cut: int) -> tuple[complex, float]:
    # Theta of the Gaussian decays like e^{-pi x^2}; beyond x_cut >= 6 the
    # integral is below double rounding for every exponent used here.
    return 0.0 + 0.0j, 2.0 * x_cut ** (abs(w.real) + 1.0) * math.exp(-math.pi * x_cut ** 2)


def triangle() -> TestFunction:
    return TestFunction(
        name="triangle",
        eval_fn=lambda x: max(0.0, 1.0 - abs(x)),
        fourier_fn=triangle_fourier,
        f_at_zero=1.0,
        fourier_at_zero=1.0,
        half_integral=0.5,
        fourier_half_integral=0.5,
        decay_c=2.5,
        decay_delta=1.0,
        theta_tail=_zero_tail,
        fourier_theta_tail=_triangle_fourier_theta_tail,
        support=1.0,
        fourier_support=None,
        fourier_theta_closed=lambda y: theta_fourier_phi(y),
    )


def gaussian() -> TestFunction:
    g = lambda x: math.exp(-math.pi * x * x)
    return TestFunction(
        name="gaussian",
        eval_fn=g,
        fourier_fn=g,  # self-dual
        f_at_zero=1.0,
        fourier_at_zero=1.0,
        half_integral=0.5,
        fourier_half_integral=0.5,
        decay_c=2.2,
        decay_delta=1.0,
        theta_tail=_gaussian_theta_tail,
        fourier_theta_tail=_gaussian_theta_tail,
        support=11.0,  # e^{-pi x^2} < 1e-160 beyond this
        fourier_support=11.0,
    )


# --- theta transforms ---------------------------------------------------------


def theta(f: TestFunction, x: float, n_terms: int = 20000) -> EvalResult:
    """Theta(f)(x) = sum_{n>=1} f(nx).

    With a known effective support the sum is cut exactly there (tail zero to
    rounding); otherwise the declared-decay tail bound applies, or the closed
    form is used when the function carries one.
    """
    if x <= 0.0:
        raise DomainError("theta: x must be > 0")
    if f.theta_closed is not None:
        return EvalResult(value=complex(f.theta_closed(x)), abs_err=1e-15, work=1)
    n_cut = n_terms
    tail = f.decay_c * x ** (-1.0 - f.decay_delta) * n_terms ** (-f.decay_delta) / f.decay_delta
    if f.support is not None:
        n_cut = min(n_terms, int(f.support / x) + 1)
        tail = 0.0 if n_cut < n_terms else tail
    total = kahan_sum(f(n * x) for n in range(1, n_cut + 1))
    return EvalResult(value=complex(total), abs_err=tail, work=n_cut)


def theta_check(f: TestFunction, x: float, n_terms: int = 20000) -> EvalResult:
    """Theta(f)(x) - (1/x) int_0^oo f."""
    t = theta(f, x, n_terms)
    return EvalResult(value=t.value - f.half_integral / x, abs_err=t.abs_err, work=t.work)


def theta_fourier_phi(y: float) -> float:
    """Closed form Theta(F(phi))(y) = 1/(12 y^2) - p(2 pi y)/(2 pi^2 y^2)."""
    if y <= 0.0:
        raise DomainError("theta_fourier_phi: y must be > 0")
    return 1.0 / (12.0 * y * y) - kernel_eval(KernelId.P, TWO_PI * y) / (2.0 * _PI2 * y * y)


# --- numeric Mellin transforms ------------------------------------------------


def _cquad(fn, lo, hi, **kw) -> tuple[complex, float]:
    # The roundoff warning only restates what the returned error estimate
    # already carries; keep the output clean and trust the estimate.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        re, re_err = integrate.quad(lambda t: fn(t).real, lo, hi, **kw)
        im, im_err = integrate.quad(lambda t: fn(t).imag, lo, hi, **kw)
    return complex(re, im), re_err + im_err


def mellin_numeric(
    g: Callable[[float], float],
    s: complex,
    x_max: float = 30.0,
    tol: float = 1e-11,
    decay: tuple[float, float] = (2.5, 1.0),
    lower_cut: float = 0.0,
) -> EvalResult:
    """M(g)(s) = int_0^oo x^{s-1} g(x) dx by adaptive quadrature: the unit
    interval under x = e^{-t} (so the endpoint singularity becomes exponential
    decay), then [1, x_max] directly, plus a decay-envelope tail bound.

    ``lower_cut >= 1`` declares that g vanishes on (0, lower_cut); the head
    integral is then skipped exactly, which also lifts the Re s > 0
    requirement (needed for truncated-kernel transforms at negative Re s)."""
    s = complex(s)
    if lower_cut >= 1.0:
        head, e1 = 0.0 + 0.0j, 0.0
    else:
        if s.real <= 0.0:
            raise DomainError("mellin_numeric: need Re s > 0")
        head, e1 = _cquad(
            lambda t: cmath.exp(-s * t) * g(math.exp(-t)), 0.0, np.inf,
            epsabs=tol, epsrel=tol, limit=400,
        )
    body, e2 = _cquad(
        lambda x: cpow(x, s - 1.0) * g(x), 1.0, x_max,
        epsabs=tol, epsrel=tol, limit=400,
    )
    c, delta = decay
    u = s.real
    if 1.0 + delta - u <= 0.0:
        raise DomainError("mellin_numeric: tail does not close under declared decay")
    tail = c * x_max ** (u - 1.0 - delta) / (1.0 + delta - u)
    return EvalResult(value=head + body, abs_err=e1 + e2 + tail, work=2)


def mellin_phi_closed(s: complex) -> complex:
    """M(phi)(s) = 1/(s(s+1)) for Re s > 0."""
    s = complex(s)
    if s.real <= 0.0:
        raise DomainError("need Re s > 0")
    return 1.0 / (s * (s + 1.0))


def mellin_fourier_phi(s: complex) -> complex:
    """M(F(phi))(s) = Gamma(s/2) pi^{1/2-s} / Gamma((1-s)/2) / ((1-s)(2-s)).

    The pi exponent is fixed by the functional-equation factor
    zeta(1-s)/zeta(s) = pi^{1/2-s} Gamma(s/2)/Gamma((1-s)/2); at s = 1/2 the
    value must reduce to 1/((1/2)(3/2)) = 4/3, which the quadrature oracle
    reproduces to 1e-12.
    """
    s = complex(s)
    if not (0.0 < s.real < 1.0):
        raise DomainError("mellin_fourier_phi: need 0 < Re s < 1")
    ratio = cmath.exp(sp.loggamma(s / 2.0) - sp.loggamma((1.0 - s) / 2.0))
    return ratio * cpow(math.pi, 0.5 - s) / ((1.0 - s) * (2.0 - s))


def mellin_fourier_phi_numeric(s: complex, x_cut: int = 1000) -> EvalResult:
    """Numeric M(F(phi))(s): the unit interval by substitution, then
    (1/(2 pi^2)) [1/(2-s) - int_1^oo x^{s-3} cos(2 pi x) dx] with the cosine
    integral by oscillatory-weight quadrature plus an exact boundary term."""
    s = complex(s)
    if not (0.0 < s.real < 1.0):
        raise DomainError("need 0 < Re s < 1")
    head, e1 = _cquad(
        lambda t: cmath.exp(-s * t) * triangle_fourier(math.exp(-t)), 0.0, np.inf,
        epsabs=1e-12, epsrel=1e-12, limit=400,
    )
    cos_re, ec1 = integrate.quad(
        lambda x: (cpow(x, s - 3.0)).real, 1.0, float(x_cut),
        weight="cos", wvar=TWO_PI, limit=int(x_cut) + 50,
    )
    cos_im, ec2 = integrate.quad(
        lambda x: (cpow(x, s - 3.0)).imag, 1.0, float(x_cut),
        weight="cos", wvar=TWO_PI, limit=int(x_cut) + 50,
    )
    # int_X^oo x^{s-3} cos(2 pi x) dx with integer X: the sine boundary term
    # vanishes, the next integration by parts gives -(s-3) X^{s-4} / (4 pi^2).
    corr = -(s - 3.0) * cpow(float(x_cut), s - 4.0) / (4.0 * _PI2)
    err_tail = abs((s - 3.0) * (s - 4.0)) * x_cut ** (s.real - 4.0) / (4.0 * _PI2)
    cos_int = complex(cos_re, cos_im) + corr
    value = head + (1.0 / (2.0 * _PI2)) * (1.0 / (2.0 - s) - cos_int)
    return EvalResult(value=value, abs_err=e1 + ec1 + ec2 + err_tail, work=2)


# --- Poisson summation and the Muntz identity --------------------------------


def poisson_check(f: TestFunction, a: float, n_terms: int = 2000) -> tuple[float, float]:
    """Both sides of a sum_k f(a k) = sum_k F(f)(k/a) as symmetric partial sums."""
    if a <= 0.0:
        raise DomainError("poisson_check: a must be > 0")
    lhs = a * (f(0.0) + 2.0 * kahan_sum(f(a * k) for k in range(1, n_terms + 1)))
    rhs = f.fourier(0.0) + 2.0 * kahan_sum(f.fourier(k / a) for k in range(1, n_terms + 1))
    return lhs, rhs


def corollary_5_5_residual(f: TestFunction, x: float, n_terms: int = 20000) -> float:
    """Theta(f)(x) - (1/2)[F(f)(0)/x - f(0)] - (1/x) Theta(F(f))(1/x)."""
    t1 = theta(f, x, n_terms).value.real
    t2 = theta(f.flipped(), 1.0 / x, n_terms).value.real
    return t1 - 0.5 * (f.fourier_at_zero / x - f.f_at_zero) - t2 / x


def _theta_upper(f: TestFunction, w: complex, x_cut: int, n_terms: int) -> tuple[complex, float]:
    """int_1^oo x^w Theta(f)(x) dx: quadrature on [1, x_cut] plus f's
    analytic tail.  Returns (value, error)."""
    body, err = _cquad(
        lambda x: cpow(x, w) * theta(f, x, n_terms).value.real,
        1.0, float(x_cut), epsabs=1e-11, epsrel=1e-11, limit=400,
    )
    tail, tail_err = f.theta_tail(w, x_cut)
    return body + tail, err + tail_err


def i_of(f: TestFunction, s: complex, x_cut: int = 40, n_terms: int = 20000) -> EvalResult:
    """I(f)(s) = int_1^oo x^{s-1} Theta(f) dx + int_1^oo x^{-s} Theta(F(f)) dx."""
    s = complex(s)
    part1, e1 = _theta_upper(f, s - 1.0, x_cut, n_terms)
    part2, e2 = _theta_upper(f.flipped(), -s, x_cut, n_terms)
    return EvalResult(value=part1 + part2, abs_err=e1 + e2 + 1e-12, work=2)


def muntz_lhs_rhs(
    f: TestFunction, s: complex, x_cut: int = 40, n_terms: int = 20000
) -> tuple[complex, complex]:
    """Both sides of the symmetrized Muntz formula
    M(f)(s) zeta(s) = (1/2)[F(f)(0)/(s-1) - f(0)/s] + I(f)(s)."""
    s = complex(s)
    if not (0.0 < s.real < 1.0):
        raise DomainError("muntz_lhs_rhs: need 0 < Re s < 1")
    lhs = mellin_numeric(f, s, decay=(f.decay_c, f.decay_delta)).value * zeta_ref(s).value
    rhs = 0.5 * (f.fourier_at_zero / (s - 1.0) - f.f_at_zero / s) + i_of(f, s, x_cut, n_terms).value
    return lhs, rhs


def mellin_theta_check(
    f: TestFunction, s: complex, x_cut: int = 40, n_terms: int = 20000
) -> EvalResult:
    """M(Theta-check(f))(s) by two-sided quadrature split at x = 1, with the
    x < 1 side mapped to [1, oo) via x -> 1/x."""
    s = complex(s)
    if not (0.0 < s.real < 1.0):
        raise DomainError("mellin_theta_check: need 0 < Re s < 1")
    upper, e1 = _theta_upper(f, s - 1.0, x_cut, n_terms)
    # minus I int_1^oo x^{s-2} dx = I/(s-1) with I = int_0^oo f
    upper_total = upper + f.half_integral / (s - 1.0)
    # Theta(f)(1/x) has corners at integer x (the cutoff count jumps there),
    # so hand the quadrature the breakpoints explicitly.
    lower, e2 = _cquad(
        lambda x: cpow(x, -s - 1.0)
        * (theta(f, 1.0 / x, max(64, int(2.0 * x) + 64)).value.real - f.half_integral * x),
        1.0, float(x_cut), epsabs=1e-11, epsrel=1e-11, limit=400,
        points=list(range(2, int(x_cut))),
    )
    # Beyond the cut, Theta(f)(1/x) - I x -> -f(0)/2 + x Theta(F(f))(x).
    tail_const = -(f.f_at_zero / 2.0) * cpow(float(x_cut), -s) / s
    t2, te2 = f.fourier_theta_tail(-s, x_cut)
    value = upper_total + lower + tail_const + t2
    return EvalResult(value=value, abs_err=e1 + e2 + te2 + 1e-12, work=2)


# --- incomplete Mellin transform and the summation formula -------------------


def incomplete_mellin_phi(s: complex) -> EvalResult:
    """int_0^1 x^{s-1} F(phi)(x) dx in closed form:

        M(F(phi))(s) + 1/(2 pi^2 (s-2))
        - [(2 pi i)^{-s} Gamma(s-2, 2 pi i) + (-2 pi i)^{-s} Gamma(s-2, -2 pi i)].

    The two gamma terms carry their own (+-2 pi i)^{-s} weights; collapsing
    them to a single common factor breaks the identity off the real axis of
    the weights, as the quadrature and power-series oracles confirm.
    """
    s = complex(s)
    if not (0.0 < s.real < 1.0):
        raise DomainError("incomplete_mellin_phi: need 0 < Re s < 1")
    g_plus = inc_gamma(s - 2.0, 2j * math.pi)
    g_minus = inc_gamma(s - 2.0, -2j * math.pi)
    gamma_part = cpow(2j * math.pi, -s) * g_plus.value + cpow(-2j * math.pi, -s) * g_minus.value
    value = mellin_fourier_phi(s) + 1.0 / (2.0 * _PI2 * (s - 2.0)) - gamma_part
    err = abs(cpow(2j * math.pi, -s)) * (g_plus.abs_err + g_minus.abs_err) + 1e-14
    return EvalResult(value=value, abs_err=err, work=g_plus.work + g_minus.work)


def incomplete_mellin_phi_series(s: complex, k_max: int = 60) -> EvalResult:
    """Power-series path (1/(2 pi^2)) sum_k (2 pi)^{2k} (-1)^{k+1} / ((2k)! (s-2+2k)),
    from integrating 1 - cos(2 pi x) termwise on (0, 1]."""
    s = complex(s)
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    acc = 0.0 + 0.0j
    last = 0.0
    for k in range(1, k_max + 1):
        term_pow = TWO_PI ** (2 * k) / math.factorial(2 * k)
        t = term_pow * (-1.0) ** (k + 1) / (s - 2.0 + 2.0 * k)
        acc += t
        last = abs(t)
    return EvalResult(value=acc / (2.0 * _PI2), abs_err=10.0 * last / (2.0 * _PI2) + 1e-16, work=k_max)


def incomplete_mellin_phi_quad(s: complex) -> EvalResult:
    """Direct quadrature oracle for int_0^1 x^{s-1} F(phi)(x) dx."""
    s = complex(s)
    value, err = _cquad(
        lambda t: cmath.exp(-s * t) * triangle_fourier(math.exp(-t)), 0.0, np.inf,
        epsabs=1e-12, epsrel=1e-12, limit=400,
    )
    return EvalResult(value=value, abs_err=err + 1e-13, work=1)


def icing_sum_check(s: complex, k_max: int = 60) -> tuple[complex, complex]:
    """Both sides of the factorial-series summation formula: the power series
    on the left, the Gamma/incomplete-Gamma expression on the right."""
    s = complex(s)
    if not (0.0 < s.real < 1.0):
        raise DomainError("icing_sum_check: need 0 < Re s < 1")
    if k_max < 40:
        raise DomainError("icing_sum_check: k_max must be >= 40")
    lhs = incomplete_mellin_phi_series(s, k_max).value
    rhs = incomplete_mellin_phi(s).value
    return lhs, rhs


def muntz_rederivation_residual(s: complex) -> float:
    """Reproduce M(F(phi))(s) zeta(s) = zeta(1-s)/((1-s)(2-s)) from the
    kernel-integral closed forms: the theta integral splits into a mean part,
    the initial-interval integral and D(s-3).

    The kernel part of the theta integral is
    -(1/(2 pi^2)) int_1^oo x^{s-3} p(2 pi x) dx
    = (1/(pi (2 pi)^{s-1})) [I^{s-3} - D(s-3)],
    since the substituted range [2 pi, oo) is D minus the initial interval;
    the signs follow the minus in front of the whole kernel term.
    """
    s = complex(s)
    if not (0.0 < s.real < 1.0):
        raise DomainError("need 0 < Re s < 1")
    pref = 2.0 * cpow(TWO_PI, -s)  # = 1/(pi (2 pi)^{s-1})
    chain = (
        0.5 / (s * (s - 1.0))
        - (1.0 / 12.0) / (s - 2.0)
        + pref * (i_alpha(s - 3.0) - d_closed(s - 3.0))
    )
    target = zeta_ref(1.0 - s).value / ((1.0 - s) * (2.0 - s))
    return abs(chain - target)


def fourier_numeric(g: Callable[[float], float], y: float, x_cut: int = 2000) -> float:
    """F(g)(y) = 2 int_0^oo g(x) cos(2 pi x y) dx for even g, by
    oscillatory-weight quadrature truncated at an integer cut."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if y == 0.0:
            val, _ = integrate.quad(g, 0.0, float(x_cut), limit=int(x_cut) + 50)
            return 2.0 * val
        val, _ = integrate.quad(
            g, 0.0, float(x_cut), weight="cos", wvar=TWO_PI * y, limit=int(x_cut) + 50
        )
    return 2.0 * val
