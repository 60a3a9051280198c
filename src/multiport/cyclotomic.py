"""Exact arithmetic with integer combinations of n-th roots of unity.

Values are represented by an integer coefficient vector (c_0, ..., c_{n-1})
standing for sum(c_k * w**k) with w = exp(2*pi*i/n).  The representation is
redundant: the element is zero exactly when the coefficient polynomial is
divisible by the n-th cyclotomic polynomial, which is what is_zero tests.
All coefficients are Python integers, so no magnitude limit applies.  The
brute-force phase histogram (scattering.ck_decomposition) is the only
producer of these vectors; it needs their reduction, not ring arithmetic.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from typing import Sequence


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by dividing x**n - 1 by the cyclotomic polynomials of the
    proper divisors of n; the division is exact over the integers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 64:
        raise ValueError("cyclotomic_polynomial supports n <= 64")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    """Divide two integer polynomials known to divide exactly (monic divisor)."""
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coeff = num[shift + len(den) - 1]
        out[shift] = coeff
        if coeff:
            for i, d in enumerate(den):
                num[shift + i] -= coeff * d
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


def poly_mod(coeffs: Sequence[int], modulus: Sequence[int]) -> tuple[int, ...]:
    """Remainder of an integer polynomial modulo a monic integer polynomial."""
    if not modulus or modulus[-1] != 1:
        raise ValueError("modulus must be monic")
    rem = list(coeffs)
    deg_m = len(modulus) - 1
    for shift in range(len(rem) - deg_m - 1, -1, -1):
        coeff = rem[shift + deg_m]
        if coeff:
            for i in range(deg_m + 1):
                rem[shift + i] -= coeff * modulus[i]
    rem = rem[:deg_m]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


class CyclotomicVector:
    """An element of Z[w], w = exp(2*pi*i/n), as an n-entry coefficient vector."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[int]):
        if len(coefficients) == 0:
            raise ValueError("need at least one coefficient")
        self.coefficients = tuple(int(c) for c in coefficients)

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def reduce(self) -> tuple[int, ...]:
        """Canonical form: remainder modulo the n-th cyclotomic polynomial.

        The result has fewer than phi(n) entries; the empty tuple is zero.
        """
        return poly_mod(self.coefficients, cyclotomic_polynomial(self.order))

    def is_zero(self) -> bool:
        return self.reduce() == ()

    def as_integer(self) -> int | None:
        """The value as a plain integer if it is one, else None."""
        rem = self.reduce()
        if rem == ():
            return 0
        if len(rem) == 1:
            return rem[0]
        return None

    def to_complex(self) -> complex:
        """Floating-point value sum(c_k * w**k)."""
        n = self.order
        return sum(
            c * cmath.exp(2j * cmath.pi * (k % n) / n)
            for k, c in enumerate(self.coefficients)
            if c
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicVector):
            return NotImplemented
        return self.order == other.order and self.reduce() == other.reduce()

    def __hash__(self) -> int:
        return hash((self.order, self.reduce()))

    def __repr__(self) -> str:
        return f"CyclotomicVector({list(self.coefficients)!r})"
