"""Truncated Taylor (jet) arithmetic for exact-to-roundoff high-order
derivatives of composed univariate functions.

A jet stores coefficients a_0..a_M with a_m = f^{(m)}(x0)/m!, so the
m-th normalized derivative used by derivative codes is literally a_m.
Supported closed operations: +, -, *, reciprocal, exp, log(1+.), powers.

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

    @staticmethod
    def variable(x0: float, order: int) -> "Jet":
        c = [x0] + [0.0] * order
        if order >= 1:
            c[1] = 1.0
        return Jet(c)

    def derivative(self, m: int) -> float:
        """f^{(m)}(x0) = m! a_m."""
        if m > self.order:
            raise ValueError(f"jet order {self.order} < requested derivative {m}")
        return self.coeffs[m] * math.factorial(m)

    def coefficient(self, m: int) -> float:
        """f^{(m)}(x0)/m!."""
        if m > self.order:
            raise ValueError(f"jet order {self.order} < requested coefficient {m}")
        return self.coeffs[m]

    def __add__(self, other):
        if isinstance(other, Jet):
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
        M = self.order
        out = [0.0] * (M + 1)
        for i, ai in enumerate(self.coeffs):
            if not isinstance(ai, np.ndarray) and ai == 0.0:
                continue
            for k in range(M + 1 - i):
                out[i + k] += ai * other.coeffs[k]
        return Jet(out)

    __rmul__ = __mul__

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

    def exp(self) -> "Jet":
        a = self.coeffs
        M = self.order
        e = [0.0] * (M + 1)
        e[0] = np.exp(a[0])
        for n in range(1, M + 1):
            e[n] = sum(k * a[k] * e[n - k] for k in range(1, n + 1)) / n
        return Jet(e)

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


def exp_jet(x0: float, order: int) -> Jet:
    """Jet of e^x at x0: coefficients e^{x0}/m!."""
    ex = np.exp(x0)
    return Jet([ex / math.factorial(m) for m in range(order + 1)])
