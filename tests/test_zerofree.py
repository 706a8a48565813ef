"""Zero-free-region machinery: residual soundness, the oscillatory-integral
oracle for Im D / v, the c(u) bracket, the B-term algebra, and the
certificate at the full-scale reference point."""

import math

import numpy as np
import pytest

from dilogzeta import (
    Certificate,
    DomainError,
    PeriodSumConfig,
    b_bound,
    c_bracket,
    c_of_u,
    certify,
    scan_line,
    zero_residual,
    zeta_ref,
)
from dilogzeta.core import EvalResult
from dilogzeta.kernels import PI2_6, TWO_PI
from dilogzeta.zerofree import _bracket_terms, c_sign_parts, im_b

CFG = PeriodSumConfig(n_periods=100_000, tail_order=2)
FIRST_ZERO_V = 14.134725141734695
# Im of mpmath.zetazero(1..10)
FIRST_TEN_ZEROS = (14.134725141734695, 21.022039638771556, 25.01085758014569, 30.424876125859512,
                   32.93506158773919, 37.586178158825675, 40.9187190121475, 43.327073280915,
                   48.00515088116716, 49.7738324776723)


# An independent oracle for Im D / v: the real integrand summed with exact
# oscillatory antiderivatives per period.


def _osc_antider(beta: float, v: float, x: np.ndarray, use_sin: bool) -> np.ndarray:
    """Antiderivative of x^beta sin(v ln x) (or cos) in closed form."""
    b1 = beta + 1.0
    den = b1 * b1 + v * v
    lx = np.log(x)
    s, c = np.sin(v * lx), np.cos(v * lx)
    xb = np.power(x, b1)
    if use_sin:
        return xb * (b1 * s - v * c) / den
    return xb * (b1 * c + v * s) / den


def im_d_over_v(u: float, v: float, n_periods: int = 100_000) -> EvalResult:
    """Im(D(-2-s)/v) as the real integral -int_1^oo x^{-2-u} sin(v ln x)/v p(x) dx,
    summed with exact oscillatory antiderivatives per period; independent check
    of the complex period-sum output."""
    if u <= 0.0 or v == 0.0:
        raise DomainError("im_d_over_v: need u > 0 and v != 0")
    gamma = -2.0 - u
    k = np.arange(0, n_periods, dtype=np.float64)
    base = TWO_PI * k
    lo = np.maximum(base, 1.0)
    hi = base + TWO_PI
    c0 = PI2_6 + math.pi ** 2 * k * (1.0 + k)
    c1 = -(math.pi / 2.0 + math.pi * k)
    total = 0.0
    for coeff, beta in ((c0, gamma), (c1, gamma + 1.0), (0.25, gamma + 2.0)):
        d = _osc_antider(beta, v, hi, True) - _osc_antider(beta, v, lo, True)
        total += float(np.sum(coeff * d))
    t = TWO_PI * n_periods
    # One integration-by-parts pass: the boundary term vanishes (the mean-zero
    # antiderivative of p is 0 at multiples of 2 pi), leaving a bounded-by-
    # zeta(3) remainder against the derivative of x^{-2-u} sin(v ln x).
    err = 1.2021 * ((2.0 + u) + abs(v)) * t ** (-2.0 - u) / (2.0 + u)
    return EvalResult(value=complex(-total / v), abs_err=err / abs(v), work=n_periods)


class TestZeroResidual:
    def test_vanishes_at_first_zero(self):
        assert abs(zero_residual(0.5, FIRST_ZERO_V, CFG)) < 1e-5

    def test_large_away_from_zeros(self):
        for u, v in ((0.5, 10.0), (0.3, 14.1347), (0.7, 2.0)):
            assert abs(zeta_ref(complex(u, v)).value) > 0.01
            assert abs(zero_residual(u, v, CFG)) > 1e-3

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            zero_residual(0.0, 5.0)
        with pytest.raises(DomainError):
            zero_residual(0.5, 0.0)
        with pytest.raises(DomainError):
            zero_residual(0.5, np.array([3.0, 0.0]))

    def test_an_array_of_v_equals_the_scalar_calls(self):
        cfg = PeriodSumConfig(tolerance=1e-8)
        for u in (0.5, 0.3):
            for g in FIRST_TEN_ZEROS:
                v = np.arange(g - 0.1, g + 0.1 + 0.005, 0.01)
                res = zero_residual(u, v, cfg)
                assert isinstance(zero_residual(u, float(v[0]), cfg), complex)
                assert np.array_equal(res, [zero_residual(u, float(x), cfg) for x in v])
        # Rows of different N are padded to the longest, which may reorder the
        # rounding of a row's sum, not more.
        v = np.linspace(1.0, 100.0, 30)
        res = zero_residual(0.5, v, cfg)
        assert max(abs(r - zero_residual(0.5, float(x), cfg)) for r, x in zip(res, v)) <= 1e-3 * 1e-8


class TestScanLine:
    def test_narrow_window_finds_first_zero(self):
        cfg = PeriodSumConfig(n_periods=20_000, tail_order=2)
        report = scan_line(0.5, 14.0, 14.3, 0.05, cfg=cfg)
        assert len(report.candidate_zeros) == 1
        assert report.candidate_zeros[0] == pytest.approx(FIRST_ZERO_V, abs=1e-3)
        assert len(report.rows) == 7
        vs = [row[0] for row in report.rows]
        assert vs == sorted(vs)

    def test_no_candidates_off_line(self):
        cfg = PeriodSumConfig(n_periods=20_000, tail_order=2)
        report = scan_line(0.3, 14.0, 14.3, 0.05, cfg=cfg)
        assert report.candidate_zeros == ()

    def test_rejects_bad_window(self):
        with pytest.raises(DomainError):
            scan_line(0.5, 5.0, 4.0, 0.1)

    def test_candidates_at_the_first_ten_zeros(self):
        # The zero-scan setting: tolerance 1e-8, step 0.01, 0.2-wide windows,
        # offset so that no grid point falls on the zero.
        cfg = PeriodSumConfig(tolerance=1e-8)
        for g in FIRST_TEN_ZEROS:
            report = scan_line(0.5, g - 0.0963, g + 0.1037, 0.01, cfg=cfg)
            assert len(report.rows) == 21
            assert len(report.candidate_zeros) == 1
            assert abs(report.candidate_zeros[0] - g) <= 0.01 / 100
        for g in FIRST_TEN_ZEROS[:2]:
            assert scan_line(0.3, g - 0.1, g + 0.1, 0.01, cfg=cfg).candidate_zeros == ()


class TestImDOracle:
    def test_matches_complex_period_sum(self):
        for u, v in ((0.3, 1.7), (0.5, 14.1), (0.8, 0.4)):
            oracle = im_d_over_v(u, v)
            direct = (zero_residual(u, v, CFG) + _bracket_terms(complex(u, v))).imag / v
            assert abs(oracle.value.real - direct) <= max(1e-8, oracle.abs_err)

    def test_small_v_limit_is_c(self):
        u = 0.4
        limit = im_d_over_v(u, 1e-4, 10_000).value.real
        c = c_of_u(u, 10_000).value.real
        assert abs(limit - c) < 1e-6


class TestCBracket:
    def test_bounds_c_on_a_grid(self):
        for n in (10, 100, 1000):
            lower, upper = c_bracket(n)
            assert lower < upper
            for u in np.linspace(0.02, 0.98, 20):
                c = c_of_u(float(u), 2000)
                assert lower - c.abs_err - 1e-9 <= c.value.real <= upper + c.abs_err + 1e-9

    def test_full_scale_values(self):
        lower, upper = c_bracket(100)
        assert -0.14 <= lower <= -0.10
        assert 0.34 <= upper <= 0.38

    def test_restriction_tightens(self):
        full = c_bracket(100)
        part = c_bracket(100, u_range=(0.5, 1.0))
        assert full[0] <= part[0] and part[1] <= full[1]

    def test_sign_parts_monotone_in_u(self):
        cp1, cm1 = c_sign_parts(0.1, 500)
        cp2, cm2 = c_sign_parts(0.6, 500)
        assert cp2 <= cp1 and cm2 <= cm1

    def test_rejects_bad_range(self):
        with pytest.raises(DomainError):
            c_bracket(100, u_range=(0.7, 0.2))
        with pytest.raises(DomainError):
            c_bracket(1)


class TestBTermAlgebra:
    def test_im_b_closed_form(self):
        for u0, v0 in ((0.3, 1.7), (0.1, 1.1), (0.9, 0.3)):
            s0 = complex(u0, v0)
            assert im_b(u0, v0) == pytest.approx(
                (_bracket_terms(s0) / v0).imag, abs=1e-13
            )

    def test_b_bound_controls_deviation_from_c(self):
        rng = np.random.RandomState(2024)
        for _ in range(25):
            u = float(rng.uniform(0.05, 0.95))
            v = float(rng.uniform(0.1, 3.0))
            dev = im_d_over_v(u, v, 20_000)
            c = c_of_u(u, 20_000)
            slack = dev.abs_err + c.abs_err + 1e-9
            assert abs(dev.value.real - c.value.real) <= b_bound(u, v) + slack


class TestCertificate:
    def test_reference_point(self):
        cert = certify(0.1, 1.1, 100)
        assert cert.holds
        assert cert.lhs == pytest.approx(4.045, abs=0.02)
        assert cert.rhs == pytest.approx(3.154, abs=0.02)

    def test_certified_points_are_zero_free(self):
        for u0, v0 in ((0.1, 1.1), (0.2, 0.8), (0.05, 1.5)):
            cert = certify(u0, v0, 100)
            if cert.holds:
                assert abs(zeta_ref(complex(u0, v0)).value) > 1e-6

    def test_lower_criterion_is_weaker_here(self):
        cert = certify(0.1, 1.1, 100, criterion="lower")
        assert cert.lhs == pytest.approx(-im_b(0.1, 1.1), abs=1e-12)
        assert not cert.holds

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            certify(1.2, 1.0)
        with pytest.raises(DomainError):
            certify(0.5, -1.0)
        with pytest.raises(DomainError):
            certify(0.5, 1.0, criterion="sideways")

    def test_certificate_consistency_enforced(self):
        with pytest.raises(ValueError):
            Certificate(
                u0=0.1, v0=1.1, n_periods=10, c_lower=0.5, c_upper=-0.5,
                lhs=1.0, rhs=0.0, holds=True,
            )
        with pytest.raises(ValueError):
            Certificate(
                u0=0.1, v0=1.1, n_periods=10, c_lower=-0.5, c_upper=0.5,
                lhs=0.0, rhs=1.0, holds=True,
            )
