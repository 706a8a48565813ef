"""Independent reference values at 30 significant digits, from mpmath.

Nothing here imports dilogzeta.  zeta(s) and its zeros come from
``mpmath.zeta`` and ``mpmath.zetazero``; the kernel integrals D, E, F and the
constant c(u) come from their closed forms in terms of zeta, evaluated in
mpmath.  Values are kept as mpmath numbers so that a deviation can be measured
below double rounding.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import mpmath as mp

DPS = 30
# Bump when a formula or the cache layout changes, so stale caches are ignored.
VERSION = 2


def _mpc(z: complex) -> mp.mpc:
    return mp.mpc(z.real, z.imag)


def zeta(s: complex) -> mp.mpc:
    with mp.workdps(DPS):
        return mp.zeta(_mpc(s))


def zeta_zeros(count: int) -> list[mp.mpf]:
    """Ordinates of the first ``count`` nontrivial zeros."""
    with mp.workdps(DPS):
        return [mp.zetazero(n).imag for n in range(1, count + 1)]


def _d(alpha: mp.mpc, z: mp.mpc) -> mp.mpc:
    """D(alpha) = int_1^oo y^alpha p(y) dy, given z = zeta(-2 - alpha)."""
    pi = mp.pi
    a1, a2, a3 = alpha + 1, alpha + 2, alpha + 3
    return (-(pi ** 2 / 6) / a1 + (pi / 2) / a2 - 1 / (4 * a3)
            - (2 * pi) ** a3 * z / (2 * a2 * a1))


def mellin(kernel: str, alpha: complex) -> mp.mpc:
    """D, E or F at alpha (kernel "p", "q" or "f"), Re alpha < -1."""
    with mp.workdps(DPS):
        a = _mpc(alpha)
        pi = mp.pi
        if kernel == "p":
            return _d(a, mp.zeta(-2 - a))
        z = mp.zeta(-1 - a)
        if kernel == "q":
            return (pi / 2) / (a + 1) - 1 / (2 * (a + 2)) + (2 * pi) ** (a + 2) * z / (2 * (a + 1))
        if kernel == "f":
            return -1 / (a + 1) + 2 * (2 * pi) ** (a + 1) * (1 - mp.mpf(2) ** (2 + a)) * z / (a + 1)
    raise ValueError(f"unknown kernel {kernel!r}")


def residual_from_zeta(s: complex, z: mp.mpc) -> mp.mpc:
    """The zero-scan residual R(s) = D(-2-s) - [pi^2/(6(1+s)) - pi/(2s) - 1/(4(1-s))]
    reduces to -(2 pi)^(1-s) zeta(s) / (2 s (1+s))."""
    with mp.workdps(DPS):
        m = _mpc(s)
        return -(2 * mp.pi) ** (1 - m) * z / (2 * m * (1 + m))


def c_of_u(u: float) -> mp.mpf:
    """c(u) = -int_1^oo x^(-2-u) ln x p(x) dx = -D'(-2-u), for 0 < u < 1."""
    with mp.workdps(DPS):
        return -mp.diff(lambda a: _d(a, mp.zeta(-2 - a)), mp.mpf(-2) - mp.mpf(u)).real


def certify_rhs_floor(u0: float, v0: float, c_u0: mp.mpf) -> mp.mpf:
    """The right-hand side of the upper certificate with the true c(u0) in
    place of the bracket end; a sound certificate reports at least this."""
    with mp.workdps(DPS):
        u, v = mp.mpf(u0), mp.mpf(v0)
        pi2 = mp.pi ** 2
        return (c_u0 + (pi2 / 3) * min(v * v / 2, 1) + (pi2 / 6) / ((1 + u) ** 2 + v * v)
                + mp.mpf(1) / 4 / ((1 - u) ** 2 + v * v))


def certify_lhs(u0: float, v0: float) -> mp.mpf:
    with mp.workdps(DPS):
        u, v = mp.mpf(u0), mp.mpf(v0)
        return (mp.pi ** 2 / 2) / (u * u + v * v)


def deviation(value: complex, truth) -> float:
    """|value - truth| evaluated at the oracle's precision."""
    with mp.workdps(DPS):
        return float(abs(_mpc(value) - truth))


# --- cache -------------------------------------------------------------------


def _encode(x):
    if isinstance(x, mp.mpc):
        return ["c", mp.nstr(x.real, DPS), mp.nstr(x.imag, DPS)]
    if isinstance(x, mp.mpf):
        return ["r", mp.nstr(x, DPS)]
    if isinstance(x, list):
        return ["l", [_encode(v) for v in x]]
    raise TypeError(type(x))


def _decode(x):
    with mp.workdps(DPS):
        if x[0] == "c":
            return mp.mpc(mp.mpf(x[1]), mp.mpf(x[2]))
        if x[0] == "r":
            return mp.mpf(x[1])
        return [_decode(v) for v in x[1]]


def _round(s: complex) -> tuple:
    return round(s.real, 9), round(s.imag, 9)


class Truth:
    """Reference values keyed by their inputs.  The benchmark fills the table
    before timing and stores it per workload and seed at ``path``, so a
    repeated run reads it back; inputs it did not foresee (the points a
    refinement visits) are computed on demand."""

    ZEROS = 11  # every zero below the top scan window (zero 11 is at 52.97)

    def __init__(self, path: Path | None = None):
        self.path = path
        self.values: dict = {}
        self._near: dict = {}  # zeta values by s rounded to 9 decimals
        self._dirty = False
        if path is not None and path.is_file():
            try:
                raw = json.loads(path.read_text())
            except (OSError, ValueError):
                raw = {}
            if raw.get("version") == VERSION:
                self.values = {k: _decode(v) for k, v in raw["values"].items()}
        for key, value in self.values.items():
            if key.startswith("zeta:"):
                x, y = (float(t) for t in key[5:].split(","))
                self._near[_round(complex(x, y))] = (complex(x, y), value)

    def _get(self, key: str, compute):
        if key not in self.values:
            self.values[key] = compute()
            self._dirty = True
        return self.values[key]

    def zeta(self, s: complex) -> mp.mpc:
        value = self._get(f"zeta:{s.real!r},{s.imag!r}", lambda: zeta(s))
        self._near[_round(s)] = (s, value)
        return value

    def zeta_near(self, s: complex, within: float = 1e-12) -> mp.mpc:
        """zeta at a point known to within ``within`` of s, else at s itself.
        Callers use it only against tolerances far above within * |zeta'|."""
        hit = self._near.get(_round(s))
        if hit is not None and abs(hit[0] - s) <= within:
            return hit[1]
        return self.zeta(s)

    def residual(self, s: complex) -> mp.mpc:
        return residual_from_zeta(s, self.zeta(s))

    def mellin(self, kernel: str, alpha: complex) -> mp.mpc:
        return self._get(f"mellin:{kernel}:{alpha.real!r},{alpha.imag!r}",
                         lambda: mellin(kernel, alpha))

    def zeros(self) -> list:
        return self._get("zeros", lambda: zeta_zeros(self.ZEROS))

    def c(self, u: float) -> mp.mpf:
        return self._get(f"c:{u!r}", lambda: c_of_u(u))

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        payload = {"version": VERSION, "values": {k: _encode(v) for k, v in self.values.items()}}
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, self.path)
        self._dirty = False
