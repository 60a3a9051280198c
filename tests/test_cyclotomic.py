import cmath
import math

import pytest

from multiport.cyclotomic import CyclotomicVector, cyclotomic_polynomial, poly_mod


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    @pytest.mark.parametrize(
        "n,coeffs",
        [
            (1, (-1, 1)),
            (2, (1, 1)),
            (3, (1, 1, 1)),
            (4, (1, 0, 1)),
            (6, (1, -1, 1)),
            (12, (1, 0, -1, 0, 1)),
        ],
    )
    def test_known_values(self, n, coeffs):
        assert cyclotomic_polynomial(n) == coeffs

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 8, 12, 30, 64])
    def test_product_over_divisors(self, n):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected

    @pytest.mark.parametrize("n", range(1, 31))
    def test_degree_is_totient(self, n):
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert len(cyclotomic_polynomial(n)) - 1 == phi

    def test_root_is_primitive_root_of_unity(self):
        for n in (5, 7, 12):
            w = cmath.exp(2j * cmath.pi / n)
            value = sum(c * w**k for k, c in enumerate(cyclotomic_polynomial(n)))
            assert abs(value) < 1e-12


class TestPolyMod:
    def test_exact_reduction(self):
        # x^2 mod (x^2 + x + 1) = -x - 1
        assert poly_mod((0, 0, 1), (1, 1, 1)) == (-1, -1)

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            poly_mod((1, 2, 3), (2, 2))


class TestCyclotomicVector:
    def test_sum_of_all_roots_vanishes(self):
        for n in range(2, 13):
            assert CyclotomicVector((1,) * n).is_zero()

    def test_order_one_is_plain_integer(self):
        assert CyclotomicVector((5,)).as_integer() == 5
        assert CyclotomicVector((0,)).is_zero()

    def test_equality_is_ring_equality(self):
        # 1 + w + w^2 == 0 for n = 3, so (2, 1, 1) == (1, 0, 0)
        assert CyclotomicVector((2, 1, 1)) == CyclotomicVector((1, 0, 0))
        assert CyclotomicVector((2, 1, 1)).as_integer() == 1

    def test_reduce_recognizes_hidden_integers(self):
        # 3w + 3w^2 = -3 for n = 3
        v = CyclotomicVector((0, 3, 3))
        assert v.as_integer() == -3
        assert abs(v.to_complex() - (-3)) < 1e-12

    def test_non_integer_reduction(self):
        v = CyclotomicVector((1, 1, 0, 0, 0))
        assert v.as_integer() is None
        assert not v.is_zero()
