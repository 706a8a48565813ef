"""Mellin integrals of the periodic kernels: closed forms vs period
summation vs the incomplete-gamma series, analytic continuation, the tail
error contract, pole guards, and the binomial/zeta tail-series identities."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate as integrate
from hypothesis import given
from hypothesis import strategies as st

from dilogzeta import (
    TWO_PI,
    DomainError,
    KernelId,
    MellinMethod,
    PeriodSumConfig,
    PoleError,
    a_tilde_j,
    a_tilde_series,
    d_closed,
    d_gamma_series,
    d_n_closed,
    d_quad,
    d_tilde,
    e_val,
    f_val,
    i_alpha,
    kernel_eval,
    mellin_numeric,
)
from dilogzeta import mellin
from dilogzeta.mellin import (
    _TAIL_F,
    _TAIL_P,
    _TAIL_Q,
    _period_grids,
    _tail,
    a_tilde_closed,
    binomial_zeta_sum,
    e_closed,
    e_quad,
    f_closed,
    f_quad,
)

CFG = PeriodSumConfig(n_periods=100_000, tail_order=2)


def quad_complex(fn, lo, hi, **kw):
    re, _ = integrate.quad(lambda t: fn(t).real, lo, hi, **kw)
    im, _ = integrate.quad(lambda t: fn(t).imag, lo, hi, **kw)
    return complex(re, im)


class TestInitialInterval:
    def test_i_alpha_against_quadrature(self):
        for alpha in (-4.0, -2.5 + 1.0j):
            oracle = quad_complex(
                lambda t: t ** complex(alpha) * kernel_eval(KernelId.P, t),
                1.0,
                TWO_PI,
                limit=200,
            )
            assert abs(i_alpha(alpha) - oracle) < 1e-10

    def test_single_period_matches_initial_interval(self):
        assert abs(d_n_closed(-4.0, 1) - i_alpha(-4.0)) < 1e-15


class TestDPaths:
    def test_closed_form_reference_value(self):
        expected = (
            math.pi ** 2 / 18.0 - math.pi / 4.0 + 0.25 - math.pi / 144.0
        )
        assert d_closed(-4.0) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("alpha", [-2.5, -4.0 - 1.0j, -2.2 + 10.0j])
    def test_three_paths_agree(self, alpha):
        c = d_closed(alpha)
        q = d_quad(alpha, CFG)
        assert abs(c - q.value) <= max(1e-8, q.abs_err)
        g = d_gamma_series(alpha)
        assert abs(c - g.value) <= 1e-5

    def test_analytic_continuation(self):
        # -2 < Re alpha < -1: closed form runs through the eta-path zeta
        # continuation, the period sum stays a convergent integral.
        q = d_quad(-1.5, CFG)
        assert abs(d_closed(-1.5) - q.value) <= 1e-8

    def test_truncated_closed_form_matches_period_sum(self):
        # d_n_closed is the exact integral over [1, 2 pi N]; the period-sum
        # path with the tail correction switched off computes the same thing.
        for n in (2, 17, 200):
            cfg = PeriodSumConfig(n_periods=n, tail_order=0)
            got = d_quad(-2.5 + 1.0j, cfg).value
            want = d_n_closed(-2.5 + 1.0j, n)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_mellin_transform_of_truncated_kernel(self):
        # D(alpha) = M(p0)(alpha + 1) with p0 the kernel cut off below 1
        def p0(x: float) -> float:
            return kernel_eval(KernelId.P, x) if x >= 1.0 else 0.0

        for alpha in (-4.0, -2.5):
            res = mellin_numeric(
                p0,
                alpha + 1.0,
                x_max=500.0,
                decay=(math.pi ** 2 / 6.0, -1.0),
                lower_cut=1.0,
            )
            assert abs(res.value - d_closed(alpha)) <= max(1e-6, res.abs_err)

    @given(
        st.floats(min_value=-2.9, max_value=-2.1),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_conjugate_symmetry(self, re_a, im_a):
        alpha = complex(re_a, im_a)
        assert abs(d_closed(alpha.conjugate()) - d_closed(alpha).conjugate()) < 1e-12

    def test_tail_contract(self):
        # second-order tail correction beats the zeroth-order error bound by
        # at least a factor N
        alpha = -2.5 - 14.0j
        for n in (1000, 10_000):
            e0 = d_quad(alpha, PeriodSumConfig(n_periods=n, tail_order=0)).abs_err
            e2 = d_quad(alpha, PeriodSumConfig(n_periods=n, tail_order=2)).abs_err
            assert e2 <= e0 / n

    def test_closed_dispatch_evaluates_once(self, monkeypatch):
        calls = []

        def counting(alpha):
            calls.append(alpha)
            return d_closed(alpha)

        monkeypatch.setattr(mellin, "d_closed", counting)
        r = mellin._dispatch_d(-4.0, MellinMethod.CLOSED_FORM, CFG)
        assert len(calls) == 1
        assert r.value == d_closed(-4.0)

    def test_pole_guards(self):
        for bad in (-2.0, -3.0):
            with pytest.raises(PoleError):
                d_closed(bad)
        # at alpha = -1 the integral itself diverges
        with pytest.raises(DomainError):
            d_closed(-1.0)
        with pytest.raises(DomainError):
            d_closed(-0.5)
        with pytest.raises(DomainError):
            d_quad(-0.5 + 2.0j)


class TestEAndF:
    @pytest.mark.parametrize("alpha", [-2.5, -3.0 - 5.0j])
    def test_e_paths_agree(self, alpha):
        q = e_val(alpha, MellinMethod.PERIOD_SUM, CFG)
        assert abs(e_closed(alpha) - q.value) <= max(1e-8, q.abs_err)

    @pytest.mark.parametrize("alpha", [-1.5, -1.2 - 3.0j])
    def test_f_paths_agree(self, alpha):
        q = f_val(alpha, MellinMethod.PERIOD_SUM, CFG)
        assert abs(f_closed(alpha) - q.value) <= max(1e-8, q.abs_err)

    def test_e_quadrature_oracle(self):
        oracle = quad_complex(
            lambda t: t ** (-2.5) * kernel_eval(KernelId.Q, t),
            1.0,
            200.0 * TWO_PI,
            limit=4000,
        )
        assert abs(e_closed(-2.5) - oracle) < 1e-6

    def test_f_pole_guard(self):
        with pytest.raises(PoleError):
            f_closed(-2.0)
        with pytest.raises(DomainError):
            f_closed(-0.9)

    def test_gamma_series_unavailable_for_e_f(self):
        with pytest.raises(DomainError):
            e_val(-2.5, MellinMethod.GAMMA_SERIES)
        with pytest.raises(DomainError):
            f_val(-1.5, MellinMethod.GAMMA_SERIES)


class TestDTilde:
    def test_shift_identity(self):
        want = d_closed(-4.0) + math.pi ** 2 / 36.0
        assert d_tilde(-4.0).value == pytest.approx(want, abs=1e-14)

    def test_section_4_relation(self):
        # (1+s) d_tilde(-2-s) = (1-pi)^2/4 + E(-1-s)
        s = 0.7
        lhs = (1.0 + s) * d_tilde(-2.0 - s).value
        rhs = (1.0 - math.pi) ** 2 / 4.0 + e_val(-1.0 - s).value
        assert abs(lhs - rhs) < 1e-12


class TestTailSeries:
    @pytest.mark.parametrize("alpha", [-2.5, -3.5, -4.0, -4.0 + 2.0j])
    def test_series_matches_closed_form(self, alpha):
        got = a_tilde_series(alpha)
        assert abs(got.value - a_tilde_closed(alpha)) <= 1e-7

    def test_reference_value(self):
        expected = 5.0 / (72.0 * math.pi) - math.pi / 144.0
        assert a_tilde_series(-4.0).value == pytest.approx(expected, abs=1e-9)

    def test_tail_splits_d(self):
        # A(alpha) = D(alpha) - I^alpha
        alpha = -3.5
        assert abs(a_tilde_closed(alpha) - (d_closed(alpha) - i_alpha(alpha))) < 1e-13

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_sum_identities(self, j):
        alpha = -4.0
        got = binomial_zeta_sum(alpha, j).value
        want = -1.0 / (alpha + j) + a_tilde_j(alpha, j)
        assert abs(got - want) <= 1e-9

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            a_tilde_series(-1.5)
        with pytest.raises(DomainError):
            a_tilde_j(-1.5, 2)
        with pytest.raises(DomainError):
            a_tilde_j(-4.0, 4)


def _mp_integrals(s: complex):
    """D(-2-s), E(-1-s), F(-1-s) from their closed forms with mpmath's zeta
    at 30 digits: an oracle independent of the library's zeta_ref."""
    with mp.workdps(30):
        s = mp.mpc(s.real, s.imag)
        z, tp = mp.zeta(s), 2 * mp.pi
        a1, a2, a3 = -1 - s, -s, 1 - s
        d = -mp.pi ** 2 / 6 / a1 + (mp.pi / 2) / a2 - 1 / (4 * a3) - tp ** a3 * z / (2 * a2 * a1)
        a1, a2 = -s, 1 - s
        e = (mp.pi / 2) / a1 - 1 / (2 * a2) + tp ** a2 * z / (2 * a1)
        f = -1 / a1 + 2 * tp ** a1 * (1 - mp.mpf(2) ** (1 - s)) * z / a1
        return d, e, f


class TestToleranceDrivenN:
    @given(
        st.floats(min_value=0.05, max_value=0.95, exclude_min=True, exclude_max=True),
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=-12.0, max_value=-6.0),
        st.sampled_from((0, 1, 2)),
    )
    def test_error_contract_and_tail_budget(self, u, v, log_tol, order):
        s = complex(u, v)
        tol = 10.0 ** log_tol
        cfg = PeriodSumConfig(tail_order=order, tolerance=tol)
        cap = PeriodSumConfig().n_periods
        cases = zip((d_quad, e_quad, f_quad), (-2.0 - s, -1.0 - s, -1.0 - s),
                    _mp_integrals(s), (_TAIL_P, _TAIL_Q, _TAIL_F))
        for fn, alpha, truth, data in cases:
            r = fn(alpha, cfg)
            assert float(abs(mp.mpc(r.value) - truth)) <= r.abs_err
            assert 2 <= r.work <= cap
            if r.work < cap:
                assert _tail(alpha, r.work, order, data)[1] <= tol / 2.0

    def test_no_tolerance_is_unchanged(self):
        # Values of the fixed-N implementation this mode must reproduce.
        pinned = [
            (d_quad, -2.5 - 14.0j, 0.00764547842215186 - 0.022590828516037463j, 6.294716745868975e-13),
            (e_quad, -1.5 + 7.0j, -0.04882009313575735 - 0.34586919666439575j, 3.97479776570883e-13),
            (f_quad, -1.3 - 20.0j, -0.09120906519951426 + 0.03608036052879286j, 4.337016685713421e-11),
        ]
        _period_grids(150_000)  # the default N must read a prefix of a larger grid
        for fn, alpha, value, abs_err in pinned:
            r = fn(alpha, PeriodSumConfig())
            assert r.work == 100_000
            assert abs(r.value - value) <= 1e-14 * abs(value)
            assert r.abs_err == pytest.approx(abs_err, rel=1e-14)
            assert r == fn(alpha, PeriodSumConfig(n_periods=100_000, tolerance=None))

    def test_grid_prefix_matches_fresh_grid(self):
        _period_grids(150_000)
        k, loga, lograt = _period_grids(1000)
        assert np.array_equal(k, np.arange(1, 1000, dtype=np.float64))
        assert np.array_equal(loga, np.log(TWO_PI * k))
        assert np.array_equal(lograt, np.log1p(1.0 / k))
        assert not k.flags.writeable

    def test_tolerance_validated(self):
        with pytest.raises(DomainError):
            PeriodSumConfig(tolerance=-1e-8)
        with pytest.raises(DomainError):
            PeriodSumConfig(tolerance=float("nan"))
