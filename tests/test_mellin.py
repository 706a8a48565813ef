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
    EvalResult,
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
    i_alpha,
    kernel_eval,
    kernel_integral,
    mellin_numeric,
)
from dilogzeta import mellin
from dilogzeta.core import cpow
from dilogzeta.mellin import (
    _TAIL_F,
    _TAIL_P,
    _TAIL_Q,
    _ZETA,
    K_MAX,
    N_MAX,
    _choose_tail,
    _period_grids,
    _tail,
    _tail_err,
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
        r = kernel_integral(KernelId.P, -4.0, MellinMethod.CLOSED_FORM, CFG)
        assert len(calls) == 1
        assert r.value == d_closed(-4.0)

    @pytest.mark.parametrize("kernel,name,method", [
        (KernelId.Q, "e_closed", MellinMethod.CLOSED_FORM),
        (KernelId.ALT, "f_closed", MellinMethod.CLOSED_FORM),
        (KernelId.PTILDE, "d_quad", MellinMethod.PERIOD_SUM),
        (KernelId.Q, "e_quad", MellinMethod.PERIOD_SUM),
        (KernelId.ALT, "f_quad", MellinMethod.PERIOD_SUM),
        (KernelId.P, "d_gamma_series", MellinMethod.GAMMA_SERIES),
    ])
    def test_dispatch_looks_up_module_globals(self, monkeypatch, kernel, name, method):
        # Tracing rebinds these names in the module, so the dispatcher must
        # find them there at call time.
        original = getattr(mellin, name)
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(mellin, name, counting)
        kernel_integral(kernel, -2.5 + 1.0j, method, PeriodSumConfig(n_periods=50))
        assert len(calls) == 1

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
        q = kernel_integral(KernelId.Q, alpha, MellinMethod.PERIOD_SUM, CFG)
        assert abs(e_closed(alpha) - q.value) <= max(1e-8, q.abs_err)

    @pytest.mark.parametrize("alpha", [-1.5, -1.2 - 3.0j])
    def test_f_paths_agree(self, alpha):
        q = kernel_integral(KernelId.ALT, alpha, MellinMethod.PERIOD_SUM, CFG)
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
            kernel_integral(KernelId.Q, -2.5, MellinMethod.GAMMA_SERIES)
        with pytest.raises(DomainError):
            kernel_integral(KernelId.ALT, -1.5, MellinMethod.GAMMA_SERIES)


class TestDTilde:
    def test_shift_identity(self):
        want = d_closed(-4.0) + math.pi ** 2 / 36.0
        assert kernel_integral(KernelId.PTILDE, -4.0).value == pytest.approx(want, abs=1e-14)

    def test_section_4_relation(self):
        # (1+s) D~(-2-s) = (1-pi)^2/4 + E(-1-s), with D~ the PTILDE integral
        s = 0.7
        lhs = (1.0 + s) * kernel_integral(KernelId.PTILDE, -2.0 - s).value
        rhs = (1.0 - math.pi) ** 2 / 4.0 + kernel_integral(KernelId.Q, -1.0 - s).value
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
        cap = N_MAX
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

    @pytest.mark.parametrize("fn,alpha,pins", [
        (d_quad, -2.5 - 14.0j, (
            EvalResult(0.007645478422151777 - 0.022590828516038098j, 7.100489231226121e-12, 800),
            EvalResult(0.007645476673148964 - 0.022590827210228467j, 4.506401804308588e-09, 5),
            EvalResult(0.007645478422151522 - 0.02259082851603831j, 5.209010285333109e-12, 11382),
        )),
        (e_quad, -1.5 + 7.0j, (
            EvalResult(-0.04882009314130188 - 0.34586919666758j, 1.4283161570930822e-08, 800),
            EvalResult(-0.0488200940721954 - 0.3458691974071678j, 3.1581643350570434e-09, 5),
            EvalResult(-0.04882009313575735 - 0.34586919666439575j, 1.5763154478039425e-08, 100_000),
        )),
        (f_quad, -1.3 - 20.0j, (
            EvalResult(-0.09120906661135195 + 0.03608036264842376j, 2.8845836971353456e-06, 800),
            EvalResult(-0.09120906403515519 + 0.03608035900986899j, 4.183730463861785e-09, 14),
            EvalResult(-0.09120906519951426 + 0.03608036052879286j, 1.4044885824552698e-06, 100_000),
        )),
    ])
    def test_exact_results(self, fn, alpha, pins):
        # Results of the separate d/e/f implementations that the shared
        # period-sum engine replaced; it must reproduce them bit for bit.
        cfgs = (PeriodSumConfig(n_periods=800), PeriodSumConfig(tolerance=1e-8),
                PeriodSumConfig(tolerance=1e-11, tail_order=1))
        for cfg, pin in zip(cfgs, pins):
            assert fn(alpha, cfg) == pin

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


_KERNELS = ((d_quad, _TAIL_P, 0), (e_quad, _TAIL_Q, 1), (f_quad, _TAIL_F, 2))


class TestJointTailChoice:
    """The default config with a tolerance chooses N and the tail order K."""

    @given(
        st.floats(min_value=0.05, max_value=0.95, exclude_min=True, exclude_max=True),
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=-12.0, max_value=-6.0),
    )
    def test_error_contract_and_tail_budget(self, u, v, log_tol):
        s = complex(u, v)
        tol = 10.0 ** log_tol
        cfg = PeriodSumConfig(tolerance=tol)
        cap = N_MAX
        truths = _mp_integrals(s)
        for (fn, data, i), alpha in zip(_KERNELS, (-2.0 - s, -1.0 - s, -1.0 - s)):
            r = fn(alpha, cfg)
            assert float(abs(mp.mpc(r.value) - truths[i])) <= r.abs_err
            assert r.abs_err <= tol
            assert 2 <= r.work <= cap
            n, order = _choose_tail(alpha, cfg, data)
            assert n == r.work
            assert _tail(alpha, n, order, data)[1] <= tol / 2.0
            # N is the smallest that any order brings under tol/2 ...
            if n > 2:
                t = TWO_PI * (n - 1)
                assert min(_tail_err(alpha, t, k, data) for k in range(K_MAX + 1)) > tol / 2.0
            # ... and K the lowest order that does so at N.
            assert all(_tail_err(alpha, TWO_PI * n, k, data) > tol / 2.0 for k in range(order))

    @pytest.mark.parametrize("k", range(K_MAX + 1))
    def test_every_order_keeps_the_contract(self, k):
        s = 0.3 + 4.0j
        truths = _mp_integrals(s)
        for (fn, _, i), alpha in zip(_KERNELS, (-2.0 - s, -1.0 - s, -1.0 - s)):
            for n in (3, 40):
                r = fn(alpha, PeriodSumConfig(n_periods=n, tail_order=k))
                assert float(abs(mp.mpc(r.value) - truths[i])) <= r.abs_err

    @pytest.mark.parametrize("s", [0.86 + 74.9j, 0.3 - 60.7j])
    def test_rounding_is_charged(self, s):
        # A high order leaves the rounding of the sums as the whole budget;
        # f's body rounding is mostly that of the exponents of a^beta (about
        # eps |alpha| log a per period), without which f missed by 10-15x.
        cfg = PeriodSumConfig(n_periods=80, tail_order=K_MAX)
        truths = _mp_integrals(s)
        for (fn, _, i), alpha in zip(_KERNELS, (-2.0 - s, -1.0 - s, -1.0 - s)):
            r = fn(alpha, cfg)
            assert float(abs(mp.mpc(r.value) - truths[i])) <= r.abs_err

    def test_higher_orders_shrink_the_bound(self):
        alpha = -1.3 - 30.0j
        for data in (_TAIL_P, _TAIL_Q, _TAIL_F):
            bounds = [_tail_err(alpha, TWO_PI * 50, k, data) for k in range(K_MAX + 1)]
            assert bounds[K_MAX] < 1e-12 * bounds[2]

    def test_pinned_order_keeps_fixed_order_n(self):
        # With a tolerance, a set tail_order chooses N only, as before the
        # joint choice; without one, N is n_periods and K defaults to 2.
        alpha = -2.5 - 14.0j
        for order in (0, 1, 2):
            cfg = PeriodSumConfig(tail_order=order, tolerance=1e-6)
            n, k = _choose_tail(alpha, cfg, _TAIL_P)
            assert k == order and n < N_MAX
            assert _tail_err(alpha, TWO_PI * n, order, _TAIL_P) <= 5e-7
            assert _tail_err(alpha, TWO_PI * (n - 1), order, _TAIL_P) > 5e-7
        assert _choose_tail(alpha, PeriodSumConfig(n_periods=700), _TAIL_P) == (700, 2)
        n, k = _choose_tail(alpha, PeriodSumConfig(tolerance=1e-6), _TAIL_P)
        assert k > 2 and n < 100

    @pytest.mark.parametrize("n", [2, 7, 800])
    def test_int_n_periods_pins_n_under_a_tolerance(self, n):
        # An int n_periods is the N summed whatever the tolerance, and the
        # tolerance then changes nothing; K is tail_order, or 2 if unset.
        alphas = (-2.5 - 14.0j, -1.5 + 7.0j, -1.3 - 20.0j)
        for (fn, _, _), alpha in zip(_KERNELS, alphas):
            for order in (None, 1):
                pinned = fn(alpha, PeriodSumConfig(n_periods=n, tail_order=order))
                assert pinned.work == n
                for tol in (1e-4, 1e-8, 1e-12):
                    assert fn(alpha, PeriodSumConfig(n, order, tol)) == pinned

    def test_tail_order_validated(self):
        PeriodSumConfig(tail_order=K_MAX)
        for bad in (-1, K_MAX + 1):
            with pytest.raises(DomainError):
                PeriodSumConfig(tail_order=bad)


class TestTailTable:
    def test_orders_up_to_two_reproduce_the_fixed_constants(self):
        # m_0..m_2 and A_1(2 pi N), A_2(2 pi N) of the order <= 2 tails, as
        # they were written out before the table.
        zeta3, zeta4, pi2_6 = 1.2020569031595942854, math.pi ** 4 / 90.0, math.pi ** 2 / 6.0
        fixed = (
            (_TAIL_P, (pi2_6, zeta3, zeta4), lambda n: (0.0, -zeta4)),
            (_TAIL_Q, (math.pi / 2.0, pi2_6, zeta3), lambda n: (pi2_6, 0.0)),
            (_TAIL_F, (1.0, math.pi, 14.0 * zeta3 / math.pi),
             lambda n: (-math.pi * (1.0 if n % 2 == 0 else -1.0), 0.0)),
        )
        for data, m, a_at in fixed:
            assert data.m[:3] == m
            for n in (2, 3, 1000, 100_001):
                assert tuple(data.parity ** n * a for a in data.a[1:3]) == a_at(n)

    @given(
        st.floats(min_value=-3.0, max_value=-1.05),
        st.floats(min_value=-100.0, max_value=100.0),
        st.integers(min_value=2, max_value=100_000),
        st.sampled_from((0, 1, 2)),
    )
    def test_tail_matches_the_fixed_order_formulas(self, re_a, im_a, n, order):
        alpha = complex(re_a, im_a)
        u, t = alpha.real, TWO_PI * n
        zeta3, zeta4, pi2_6 = 1.2020569031595942854, math.pi ** 4 / 90.0, math.pi ** 2 / 6.0
        fixed = (
            (_TAIL_P, (pi2_6, zeta3, zeta4), 0.0, -zeta4),
            (_TAIL_Q, (math.pi / 2.0, pi2_6, zeta3), pi2_6, 0.0),
            (_TAIL_F, (1.0, math.pi, 14.0 * zeta3 / math.pi),
             -math.pi * (1.0 if n % 2 == 0 else -1.0), 0.0),
        )
        for data, (m0, m1, m2), a1, a2 in fixed:
            if order == 0:
                corr, err = 0.0 + 0.0j, m0 * t ** (u + 1.0) / abs(u + 1.0)
            elif order == 1:
                corr, err = -cpow(t, alpha) * a1, abs(alpha) * m1 * t ** u / abs(u)
            else:
                corr = -cpow(t, alpha) * a1 + alpha * cpow(t, alpha - 1.0) * a2
                err = abs(alpha) * abs(alpha - 1.0) * m2 * t ** (u - 1.0) / abs(u - 1.0)
            got_corr, got_err, rnd = _tail(alpha, n, order, data)
            assert got_corr == corr or abs(corr) == 0.0 == abs(got_corr)
            assert got_err == err
            assert 0.0 <= rnd <= 1e-12 * abs(corr)

    def test_zeta_table_matches_mpmath(self):
        assert len(_ZETA) == K_MAX + 3
        with mp.workdps(30):
            for n in range(2, K_MAX + 3):
                assert _ZETA[n] == pytest.approx(float(mp.zeta(n)), rel=4e-16)
            for k in range(1, K_MAX + 1):
                assert _TAIL_P.m[k] == _ZETA[k + 2]
                assert _TAIL_Q.m[k] == _ZETA[k + 1]
                lam = (1 - mp.mpf(2) ** -(k + 1)) * mp.zeta(k + 1)
                assert _TAIL_F.m[k] == pytest.approx(float(4 / mp.pi * 2 ** k * lam), rel=1e-15)
