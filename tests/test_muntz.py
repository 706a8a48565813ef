"""Theta transforms, Poisson summation, the symmetrized Muntz formula, the
Mellin transforms of the triangle function and its Fourier transform, and the
incomplete-gamma summation identity."""

import cmath
import math

import numpy as np
import pytest

from dilogzeta import (
    DomainError,
    icing_sum_check,
    incomplete_mellin_phi,
    gaussian,
    mellin_fourier_phi,
    mellin_numeric,
    muntz_lhs_rhs,
    poisson_check,
    theta,
    theta_check,
    triangle,
    triangle_fourier,
    zeta_ref,
)
from dilogzeta.muntz import (
    corollary_5_5_residual,
    fourier_numeric,
    incomplete_mellin_phi_quad,
    incomplete_mellin_phi_series,
    mellin_fourier_phi_numeric,
    mellin_phi_closed,
    mellin_theta_check,
    muntz_rederivation_residual,
    theta_fourier_phi,
)

S_SET = [0.3, 0.5, 0.7, 0.5 + 2.0j, 0.5 - 2.0j]


class TestTestFunctions:
    def test_triangle_shape(self):
        tri = triangle()
        assert tri(0.0) == 1.0
        assert tri(0.5) == pytest.approx(0.5, abs=1e-15)
        assert tri(-0.25) == tri(0.25)
        assert tri(1.5) == 0.0
        assert tri.fourier_at_zero == pytest.approx(2.0 * tri.half_integral, abs=1e-15)

    def test_triangle_fourier_closed_form(self):
        # sinc^2, with the removable singularity handled
        for y in (1e-8, 0.3, 1.0, 2.5):
            want = (math.sin(math.pi * y) / (math.pi * y)) ** 2
            assert triangle_fourier(y) == pytest.approx(want, abs=1e-12)
        assert triangle_fourier(0.0) == 1.0

    def test_gaussian_self_dual(self):
        g = gaussian()
        for x in (0.0, 0.7, 2.0):
            assert g.fourier(x) == pytest.approx(g(x), abs=1e-15)

    def test_flip_is_involution(self):
        tri = triangle()
        back = tri.flipped().flipped()
        for x in (0.0, 0.4, 1.2):
            assert back(x) == tri(x)
        assert back.half_integral == tri.half_integral


class TestTheta:
    def test_triangle_theta_exact_formula(self):
        # Theta(phi)(x) = sum_{n <= 1/x} (1 - n x) = m - x m (m+1)/2
        tri = triangle()
        rng = np.random.RandomState(5)
        for x in rng.uniform(0.05, 2.0, 20):
            m = int(math.floor(1.0 / x))
            want = m - x * m * (m + 1) / 2.0
            got = theta(tri, float(x))
            assert got.value.real == pytest.approx(want, abs=1e-12)
            assert got.abs_err == 0.0

    def test_theta_check_subtracts_mean(self):
        tri = triangle()
        t = theta(tri, 0.4).value.real
        assert theta_check(tri, 0.4).value.real == pytest.approx(
            t - tri.half_integral / 0.4, abs=1e-15
        )

    def test_theta_fourier_phi_closed_form(self):
        # against a long direct partial sum of Theta(F(phi))
        n = np.arange(1, 2_000_001, dtype=np.float64)
        for y in (0.3, 0.8, 1.7, 3.2):
            ny = n * y
            direct = float(
                np.sum((1.0 - np.cos(2.0 * math.pi * ny)) / (2.0 * math.pi ** 2 * ny ** 2))
            )
            tail = 1.0 / (math.pi ** 2 * n[-1] * y * y)
            assert abs(theta_fourier_phi(y) - direct) <= tail + 1e-9


class TestPoisson:
    def test_gaussian_identity(self):
        for a in (0.6, 1.0, 1.7):
            lhs, rhs = poisson_check(gaussian(), a, n_terms=60)
            assert abs(lhs - rhs) <= 1e-12

    def test_triangle_identity(self):
        lhs, rhs = poisson_check(triangle(), 0.7, n_terms=2000)
        assert abs(lhs - rhs) <= 1e-4

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(DomainError):
            poisson_check(gaussian(), 0.0)


class TestMuntzFormula:
    @pytest.mark.parametrize("s", S_SET)
    def test_symmetrized_identity_triangle(self, s):
        lhs, rhs = muntz_lhs_rhs(triangle(), s)
        assert abs(lhs - rhs) <= 1e-5

    @pytest.mark.parametrize("s", [0.3, 0.5 + 2.0j])
    def test_symmetrized_identity_gaussian(self, s):
        lhs, rhs = muntz_lhs_rhs(gaussian(), s)
        assert abs(lhs - rhs) <= 1e-5

    @pytest.mark.parametrize("s", [0.5, 0.5 + 2.0j])
    def test_mellin_of_theta_check(self, s):
        # M(Theta-check(f))(s) = M(f)(s) zeta(s)
        got = mellin_theta_check(triangle(), s)
        want = mellin_phi_closed(s) * zeta_ref(s).value
        assert abs(got.value - want) <= 1e-8

    def test_corollary_residual(self):
        rng = np.random.RandomState(11)
        for f in (triangle(), gaussian()):
            for x in rng.uniform(0.1, 5.0, 10):
                assert abs(corollary_5_5_residual(f, float(x))) <= 1e-8

    def test_strip_required(self):
        with pytest.raises(DomainError):
            muntz_lhs_rhs(triangle(), 1.5)


class TestMellinClosedForms:
    def test_mellin_phi(self):
        for s in (0.5, 1.5, 1.0 + 1.0j):
            res = mellin_numeric(triangle(), s)
            assert abs(res.value - mellin_phi_closed(s)) <= max(1e-9, res.abs_err)

    def test_mellin_fourier_phi_central_value(self):
        assert mellin_fourier_phi(0.5) == pytest.approx(4.0 / 3.0, abs=1e-13)

    @pytest.mark.parametrize("s", S_SET)
    def test_mellin_fourier_phi_vs_numeric(self, s):
        res = mellin_fourier_phi_numeric(s)
        assert abs(res.value - mellin_fourier_phi(s)) <= 1e-8

    @pytest.mark.parametrize("s", [0.3, 0.6])
    def test_functional_equation_route(self, s):
        # M(F(phi))(s) zeta(s) = M(phi)(1-s) zeta(1-s)
        lhs = mellin_fourier_phi_numeric(s).value * zeta_ref(s).value
        rhs = mellin_phi_closed(1.0 - s) * zeta_ref(1.0 - s).value
        assert abs(lhs - rhs) <= 1e-6

    @pytest.mark.parametrize("s", [0.3, 0.7, 0.5 + 2.0j])
    def test_kernel_rederivation(self, s):
        assert muntz_rederivation_residual(s) <= 1e-10

    def test_fourier_involution(self):
        # F(F(phi)) = phi; the 1/x^2 envelope of F(phi) limits the cut-off
        # accuracy to ~1/(pi^2 x_cut)
        for y in (0.3, 0.7, 1.5):
            got = fourier_numeric(triangle_fourier, y, x_cut=2000)
            assert abs(got - triangle()(y)) <= 1e-5


class TestIncompleteMellin:
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_summation_formula(self, s):
        lhs, rhs = icing_sum_check(s)
        assert abs(lhs - rhs) <= 1e-8

    def test_series_vs_quadrature_oracle(self):
        s = 0.4
        series = incomplete_mellin_phi_series(s)
        oracle = incomplete_mellin_phi_quad(s)
        assert abs(series.value - oracle.value) <= max(1e-8, oracle.abs_err)

    def test_gamma_side_conjugate_symmetry(self):
        s = 0.5 + 2.0j
        a = incomplete_mellin_phi(s).value
        b = incomplete_mellin_phi(s.conjugate()).value
        assert abs(a - b.conjugate()) < 1e-10

    def test_rejects_outside_strip(self):
        with pytest.raises(DomainError):
            icing_sum_check(1.2)
        with pytest.raises(DomainError):
            incomplete_mellin_phi_series(0.5, k_max=0)
