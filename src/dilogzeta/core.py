"""Shared numeric plumbing: result containers, error types, stable sums, complex powers."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Argument outside the domain of validity of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or too close to) a pole."""


@dataclass(frozen=True)
class EvalResult:
    """A computed complex value with an absolute-error estimate and a work counter.

    ``work`` counts the dominant unit of effort (series terms or periods summed).
    """

    value: complex
    abs_err: float
    work: int

    def __post_init__(self):
        if math.isfinite(abs(self.value)) and not (self.abs_err >= 0.0 and math.isfinite(self.abs_err)):
            raise ValueError("abs_err must be finite and nonnegative")


def cpow(base: complex, expo: complex) -> complex:
    """Principal-branch power exp(expo * Log(base))."""
    if base == 0:
        raise DomainError("cpow: zero base")
    return cmath.exp(expo * cmath.log(base))


def kahan_sum(terms) -> float | complex:
    """Compensated sum of a real or complex iterable in fixed (given) order.
    A complex first term turns the running sums complex, exactly as if they
    had started at 0j."""
    s = 0.0
    c = 0.0
    for t in terms:
        y = t - c
        tmp = s + y
        c = (tmp - s) - y
        s = tmp
    return s


def require_finite(x: float, name: str = "x") -> None:
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
