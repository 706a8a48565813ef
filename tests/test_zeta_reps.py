"""The three kernel representations of zeta on the right half-plane: mutual
agreement, the alternating-series identity, the explicit upper bounds, and
the simple-pole behaviour at s = 1."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilogzeta import (
    DomainError,
    MellinMethod,
    PeriodSumConfig,
    zeta_bound_e,
    zeta_bound_f,
    zeta_ref,
    zeta_via_d,
    zeta_via_e,
    zeta_via_f,
)
from dilogzeta.mellin import _TAIL_F, _TAIL_P, _TAIL_Q, N_MAX, _choose_tail, _tail
from dilogzeta.zeta_reps import _integral_cfg, alternating_series_identity

CFG = PeriodSumConfig(n_periods=100_000, tail_order=2)
POINTS = [0.5, 0.3 + 5.0j, 0.9 - 10.0j, 0.1 + 1.0j]


class TestRepresentationAgreement:
    @pytest.mark.parametrize("s", POINTS)
    def test_period_sum_paths(self, s):
        ref = zeta_ref(s).value
        for fn in (zeta_via_d, zeta_via_e, zeta_via_f):
            got = fn(s, MellinMethod.PERIOD_SUM, CFG).value
            assert abs(got - ref) <= 1e-4

    @pytest.mark.parametrize("s", POINTS)
    def test_closed_form_paths(self, s):
        ref = zeta_ref(s).value
        for fn in (zeta_via_d, zeta_via_e, zeta_via_f):
            got = fn(s, MellinMethod.CLOSED_FORM).value
            assert abs(got - ref) <= 1e-12

    @given(
        st.floats(min_value=0.05, max_value=0.95, exclude_min=True, exclude_max=True),
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=-12.0, max_value=-6.0),
    )
    def test_tolerance_driven_period_sums(self, u, v, log_tol):
        s = complex(u, v)
        tol = 10.0 ** log_tol
        cfg = PeriodSumConfig(tolerance=tol)
        cap = N_MAX
        with mp.workdps(30):
            truth = mp.zeta(mp.mpc(u, v))
        # zeta's abs_err is scale * (the integral's abs_err) + 1e-14
        pref = abs(2.0 * (2.0 * math.pi) ** (s - 1.0))
        cases = (
            (zeta_via_d, -2.0 - s, _TAIL_P, pref * abs(s * (1.0 + s))),
            (zeta_via_e, -1.0 - s, _TAIL_Q, pref * abs(s)),
            (zeta_via_f, -1.0 - s, _TAIL_F,
             abs(0.5 * (2.0 * math.pi) ** s / (1.0 - 2.0 ** (1.0 - s))) * abs(s)),
        )
        for fn, alpha, data, scale in cases:
            r = fn(s, MellinMethod.PERIOD_SUM, cfg)
            assert float(abs(mp.mpc(r.value) - truth)) <= r.abs_err
            # Below ~1e-10 the rounding of the period sums, which no N
            # lowers, can exceed the tolerance by itself at |Im s| ~ 100.
            if tol >= 1e-10:
                assert r.abs_err <= tol
            assert 2 <= r.work <= cap
            if r.work < cap:
                _, order = _choose_tail(alpha, _integral_cfg(cfg, scale), data)
                assert scale * _tail(alpha, r.work, order, data)[1] <= tol / 2.0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            zeta_via_d(0.0)
        with pytest.raises(DomainError):
            zeta_via_e(-0.3 + 2.0j)


class TestAlternatingIdentity:
    @pytest.mark.parametrize("s", [0.3, 0.5 + 3.0j, 0.9])
    def test_matches_eta(self, s):
        s = complex(s)
        eta = (1.0 - cmath.exp((1.0 - s) * math.log(2.0))) * zeta_ref(s).value
        assert abs(alternating_series_identity(s) - eta) <= 1e-8


class TestBounds:
    def test_bounds_dominate_reference(self):
        rng = np.random.RandomState(99)
        for _ in range(40):
            s = complex(rng.uniform(0.05, 0.95), rng.uniform(-20.0, 20.0))
            ref = abs(zeta_ref(s).value)
            assert zeta_bound_e(s) >= ref
            assert zeta_bound_f(s) >= ref

    def test_bounds_positive(self):
        assert zeta_bound_e(0.5 + 14.0j) > 0.0
        assert zeta_bound_f(0.5 + 14.0j) > 0.0


class TestPoleBehaviour:
    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
    def test_unit_residue(self, eps):
        # (s - 1) zeta(s) = 1 + gamma (s - 1) + O((s-1)^2)
        s = 1.0 + eps
        euler_gamma = 0.5772156649015329
        assert abs((s - 1.0) * zeta_ref(s).value - 1.0) <= 1.1 * euler_gamma * eps
