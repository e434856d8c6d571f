"""Truncated Taylor (jet) arithmetic for exact-to-roundoff high-order
derivatives of composed univariate functions.

A jet stores coefficients a_0..a_M with a_m = f^{(m)}(x0)/m!, so the
m-th normalized derivative used by derivative codes is literally a_m.
Supported closed operations: +, -, *, reciprocal, and log (of a jet whose
constant term is > 0); the jet of e^x itself is exp_jet.

Coefficients are floats, or numpy arrays of one shape holding the jets of
many expansion points at once; every operation acts elementwise on them, so
each element equals the float computation at that point.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


class Jet:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[float]):
        self.coeffs = list(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, m: int) -> float:
        """f^{(m)}(x0)/m!."""
        self._check_coefficient(m)
        return self.coeffs[m]

    def _check_coefficient(self, m: int) -> None:
        if not 0 <= m <= self.order:
            raise ValueError(f"a jet of order {self.order} has no coefficient {m}")

    def _check_order(self, other: "Jet") -> None:
        # zip would silently cut the longer jet to the shorter one's order
        if other.order != self.order:
            raise ValueError(f"jets of orders {self.order} and {other.order} do not combine")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_order(other)
            return Jet([a + b for a, b in zip(self.coeffs, other.coeffs)])
        out = self.coeffs.copy()
        out[0] = out[0] + other  # not +=, which would write into a shared array
        return Jet(out)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet([a * other for a in self.coeffs])
        self._check_order(other)
        return Jet([self.product_coefficient(other, m) for m in range(self.order + 1)])

    __rmul__ = __mul__

    def product_coefficient(self, other: "Jet", m: int):
        """Coefficient m of self * other, which __mul__ forms for every m:
        the sum of a_i b_(m-i) over i = 0..m in order, from the float 0.0,
        skipping an exact-zero scalar a_i."""
        self._check_coefficient(m)
        out = 0.0
        for i, ai in enumerate(self.coeffs[: m + 1]):
            if not isinstance(ai, np.ndarray) and ai == 0.0:
                continue
            out += ai * other.coeffs[m - i]
        return out

    def reciprocal(self) -> "Jet":
        a = self.coeffs
        if np.any(a[0] == 0.0):
            raise ZeroDivisionError("reciprocal of a jet with zero constant term")
        M = self.order
        b = [0.0] * (M + 1)
        b[0] = 1.0 / a[0]
        for n in range(1, M + 1):
            b[n] = -sum(a[k] * b[n - k] for k in range(1, n + 1)) / a[0]
        return Jet(b)

    def log(self) -> "Jet":
        a = self.coeffs
        if np.any(a[0] <= 0.0):
            raise ValueError("log of a jet with non-positive constant term")
        M = self.order
        l = [0.0] * (M + 1)
        l[0] = np.log(a[0])
        for n in range(1, M + 1):
            s = a[n]
            for k in range(1, n):
                s = s - (k / n) * l[k] * a[n - k]
            l[n] = s / a[0]
        return Jet(l)


# the largest m whose m! is a finite float
_FACTORIAL_FLOAT_MAX = 170


def exp_jet(x0: float, order: int) -> Jet:
    """Jet of e^x at x0: coefficients e^{x0}/m!, and past m =
    _FACTORIAL_FLOAT_MAX, where m! leaves the float range, coefficient m-1
    over m."""
    ex = np.exp(x0)
    coeffs = [ex / math.factorial(m) for m in range(min(order, _FACTORIAL_FLOAT_MAX) + 1)]
    for m in range(_FACTORIAL_FLOAT_MAX + 1, order + 1):
        coeffs.append(coeffs[m - 1] / m)
    return Jet(coeffs)
