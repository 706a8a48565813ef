"""Special-function layer: the zeta reference evaluator, endpoint-corrected
partial sums and the incomplete gamma quadrature, each checked against an
independent formula or a quadrature oracle."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate as integrate
from hypothesis import given
from hypothesis import strategies as st

from dilogzeta import (
    DomainError,
    PoleError,
    a_n_approx,
    inc_gamma,
    zeta_partial,
    zeta_ref,
)
from dilogzeta.specfun import eta_accel, inc_gamma_many


class TestZetaRef:
    def test_known_values(self):
        assert zeta_ref(2.0).value == pytest.approx(math.pi ** 2 / 6.0, abs=1e-12)
        assert zeta_ref(4.0).value == pytest.approx(math.pi ** 4 / 90.0, abs=1e-12)
        assert zeta_ref(3.0).value == pytest.approx(1.2020569031595943, abs=1e-12)
        assert zeta_ref(0.5).value == pytest.approx(-1.4603545088095868, abs=1e-10)

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            zeta_ref(1.0)
        with pytest.raises(PoleError):
            zeta_ref(1.0 + 1e-14j)
        with pytest.raises(DomainError):
            zeta_ref(-0.5)
        with pytest.raises(DomainError):
            zeta_ref(0.0 + 3.0j)

    def test_eta_lattice_fallback(self):
        # s = 1 + 2 pi i / ln 2 kills the (1 - 2^{1-s}) denominator; the
        # Euler-Maclaurin fallback must still agree with the corrected sum.
        s = 1.0 + (2.0 * math.pi / math.log(2.0)) * 1j
        res = zeta_ref(s)
        assert abs(res.value - a_n_approx(s, 100_000)) < 1e-6

    @given(
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.1, max_value=30.0),
    )
    def test_conjugate_symmetry(self, sigma, t):
        s = complex(sigma, t)
        assert abs(zeta_ref(s.conjugate()).value - zeta_ref(s).value.conjugate()) < 1e-12

    @given(st.floats(min_value=1.05, max_value=20.0))
    def test_upper_bound_on_real_axis(self, sigma):
        bound = 1.0 + ((sigma + 1.0) / (sigma - 1.0)) * 2.0 ** (-sigma)
        assert zeta_ref(sigma).value.real <= bound + 1e-12

    def test_agrees_with_corrected_partial_sum(self):
        # the corrected-sum error scales like |s| N^{-1-sigma}, so keep
        # sigma away from 0 for the fixed 1e-6 budget
        rng = np.random.RandomState(7)
        for _ in range(10):
            s = complex(rng.uniform(0.3, 0.9), rng.uniform(-15.0, 15.0))
            assert abs(zeta_ref(s).value - a_n_approx(s, 100_000)) < 1e-6


class TestPartialSums:
    def test_zeta_partial_direct(self):
        assert zeta_partial(2.0, 10) == pytest.approx(
            sum(1.0 / n ** 2 for n in range(1, 11)), abs=1e-15
        )

    def test_a_n_single_term(self):
        # N = 1: 1 - 1/(1-s) - 1/2
        s = 0.7 + 0.2j
        assert a_n_approx(s, 1) == pytest.approx(0.5 - 1.0 / (1.0 - s), abs=1e-15)

    def test_a_n_converges(self):
        assert a_n_approx(2.0, 10_000) == pytest.approx(
            math.pi ** 2 / 6.0, abs=1e-6
        )

    def test_a_n_pole(self):
        with pytest.raises(PoleError):
            a_n_approx(1.0, 100)

    def test_eta_value(self):
        val, err = eta_accel(2.0)
        assert val == pytest.approx(math.pi ** 2 / 12.0, abs=1e-12)
        assert err < 1e-12


class TestIncGamma:
    def test_integer_order_closed_forms(self):
        assert inc_gamma(1.0, 1.0).value == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert inc_gamma(2.0, 1.0).value == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
        # Gamma(n, z) = (n-1)! e^{-z} sum_{k<n} z^k / k!
        z = 2.0 + 3.0j
        exact = 2.0 * cmath.exp(-z) * (1.0 + z + z * z / 2.0)
        res = inc_gamma(3.0, z)
        assert abs(res.value - exact) < 1e-10

    def test_z_zero_is_complete_gamma(self):
        assert inc_gamma(3.0, 0.0).value == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(DomainError):
            inc_gamma(-0.5, 0.0)

    def test_branch_cut_rejected(self):
        with pytest.raises(DomainError):
            inc_gamma(0.5, -2.0)

    @given(
        st.floats(min_value=-2.0, max_value=3.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-5.0, max_value=10.0),
        st.floats(min_value=0.5, max_value=10.0),
    )
    def test_recurrence(self, lr, li, zr, zi):
        lam = complex(lr, li)
        z = complex(zr, zi)
        lhs = inc_gamma(lam + 1.0, z).value
        rhs = lam * inc_gamma(lam, z).value + z ** lam * cmath.exp(-z)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_quadrature_oracle_imaginary_argument(self):
        # independent scipy quadrature along the same rotated ray
        lam, z = -1.5 + 0.0j, 2.0j * math.pi

        def integrand(u, part):
            v = cmath.exp(-z) * (z + u) ** (lam - 1.0) * math.exp(-u)
            return v.real if part == "re" else v.imag

        re, _ = integrate.quad(integrand, 0.0, 60.0, args=("re",), limit=300)
        im, _ = integrate.quad(integrand, 0.0, 60.0, args=("im",), limit=300)
        assert abs(inc_gamma(lam, z).value - complex(re, im)) < 1e-10

    def test_vectorized_matches_scalar(self):
        lam = -1.5 + 0.5j
        zs = np.array([1.0 + 1.0j, 2.0j * math.pi, -3.0 + 0.5j, 5.0 - 2.0j])
        many = inc_gamma_many(lam, zs)
        for z, v in zip(zs, many):
            assert abs(v - inc_gamma(lam, complex(z)).value) < 1e-12

    def test_contract_on_the_library_domain(self):
        # muntz.incomplete_mellin_phi evaluates Gamma(s - 2, +-2 pi i) for
        # 0 < Re s < 1; there |value - truth| <= abs_err against a 30-digit
        # oracle, and the scalar routine is one entry of the vectorised one.
        rng = np.random.RandomState(7)
        with mp.workdps(30):
            for _ in range(410):
                lam = complex(rng.uniform(0.0, 1.0), rng.uniform(-20.0, 20.0)) - 2.0
                for z in (2j * math.pi, -2j * math.pi):
                    r = inc_gamma(lam, z)
                    assert r.value == inc_gamma_many(lam, np.array([z]))[0]
                    truth = mp.gammainc(mp.mpc(lam), mp.mpc(z))
                    assert float(abs(mp.mpc(r.value) - truth)) <= r.abs_err

    def test_vectorized_rejects_cut(self):
        with pytest.raises(DomainError):
            inc_gamma_many(0.5, np.array([1.0, -2.0 + 0.0j]))
