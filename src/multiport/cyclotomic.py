"""Exact arithmetic with integer combinations of n-th roots of unity.

Values are represented by an integer coefficient vector (c_0, ..., c_{n-1})
standing for sum(c_k * w**k) with w = exp(2*pi*i/n).  The representation is
redundant: the element is zero exactly when the coefficient polynomial is
divisible by the n-th cyclotomic polynomial, and an integer exactly when
its remainder modulo that polynomial is a constant; as_integer reads both.
All coefficients are Python integers, so no magnitude limit applies.  The
brute-force phase histogram (scattering.ck_decomposition) is the only
producer of these vectors; it needs their reduction, not ring arithmetic.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .errors import CYCLOTOMIC_LIMIT, check_size


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by dividing x**n - 1 by the cyclotomic polynomials of the
    proper divisors of n; the division is exact over the integers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_size("cyclotomic_polynomial", n, CYCLOTOMIC_LIMIT)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _divmod(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("polynomial division left a remainder")
    return tuple(poly)


def _divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of two integer polynomials, constant term first; den is monic.

    The remainder has len(den) - 1 coefficients, or len(num) if fewer.
    """
    rem = list(num)
    deg = len(den) - 1
    quot = [0] * max(len(rem) - deg, 0)
    for shift in range(len(quot) - 1, -1, -1):
        coeff = quot[shift] = rem[shift + deg]
        if coeff:
            for i, d in enumerate(den):
                rem[shift + i] -= coeff * d
    return quot, rem[:deg]


class CyclotomicVector:
    """An element of Z[w], w = exp(2*pi*i/n), as an n-entry coefficient vector."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[int]):
        if len(coefficients) == 0:
            raise ValueError("need at least one coefficient")
        self.coefficients = tuple(int(c) for c in coefficients)

    def reduce(self) -> tuple[int, ...]:
        """Canonical form: remainder modulo the n-th cyclotomic polynomial.

        The result has fewer than phi(n) entries; the empty tuple is zero.
        """
        rem = _divmod(self.coefficients, cyclotomic_polynomial(len(self.coefficients)))[1]
        while rem and rem[-1] == 0:
            rem.pop()
        return tuple(rem)

    def as_integer(self) -> int | None:
        """The value as a plain integer if it is one, else None."""
        rem = self.reduce()
        if rem == ():
            return 0
        if len(rem) == 1:
            return rem[0]
        return None

    def __repr__(self) -> str:
        return f"CyclotomicVector({list(self.coefficients)!r})"
