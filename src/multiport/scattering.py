"""Transition amplitudes and probabilities for the Fourier multiport.

The n-port device maps input mode a_k to outputs with the unitary
U[j, k] = exp(2*pi*i*j*k/n) / sqrt(n) (0-based indices).  With one particle
per input port, the amplitude for the output arrangement s is the permanent
of the matrix whose rows are the rows of U selected by the port assignment
of s, divided by sqrt(prod s_j!).

Because every entry of the unnormalized matrix is a power of w = exp(2*pi*i/n),
the unnormalized permanent is an integer combination of w powers and can be
carried exactly; exact_amplitude does so via inclusion-exclusion with cyclic
convolutions, and is_suppressed_exact turns it into a tolerance-free zero test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arrangements import port_assignment, validate_arrangement
from .cyclotomic import CyclotomicVector
from .errors import ResourceLimitError

NAIVE_PERMANENT_LIMIT = 9
RYSER_PERMANENT_LIMIT = 24
BATCH_FLOAT_LIMIT = 16
CK_BRUTE_FORCE_LIMIT = 9
EXACT_AMPLITUDE_LIMIT = 14

# |amplitude|^2 below zero_threshold(n) counts as zero on the float path.
FLOAT_ZERO_SCALE = 1e-10


@lru_cache(maxsize=32)
def fourier_unitary(n: int) -> np.ndarray:
    """The n x n Fourier matrix, entries exp(2*pi*i*j*k/n)/sqrt(n).

    The exponent j*k is reduced mod n before the angle is formed, keeping
    phase error bounded for large n.  The returned array is read-only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    j = np.arange(n)
    phase = (np.outer(j, j) % n) * (2.0 * np.pi / n)
    u = np.exp(1j * phase) / math.sqrt(n)
    u.setflags(write=False)
    return u


def permanent_naive(matrix: np.ndarray) -> complex:
    """Permanent by direct summation over all permutations (reference oracle)."""
    m = np.asarray(matrix)
    size = m.shape[0]
    if m.shape != (size, size):
        raise ValueError("matrix must be square")
    if size > NAIVE_PERMANENT_LIMIT:
        raise ResourceLimitError(f"naive permanent limited to size {NAIVE_PERMANENT_LIMIT}")
    rows = range(size)
    total = 0j
    for perm in itertools.permutations(range(size)):
        p = 1.0 + 0j
        for r in rows:
            p *= m[r, perm[r]]
        total += p
    return complex(total)


def permanent_ryser(matrix: np.ndarray) -> complex:
    """Permanent via Ryser's inclusion-exclusion in O(m * 2^m).

    Subsets are visited in Gray-code order so each step updates the running
    row sums with a single column add or subtract; iteration order is fixed,
    making the accumulated value reproducible bit for bit.
    """
    m = np.asarray(matrix, dtype=complex)
    size = m.shape[0]
    if m.shape != (size, size):
        raise ValueError("matrix must be square")
    if size > RYSER_PERMANENT_LIMIT:
        raise ResourceLimitError(f"Ryser permanent limited to size {RYSER_PERMANENT_LIMIT}")
    if size == 0:
        return 1.0 + 0j
    rowsums = np.zeros(size, dtype=complex)
    total = 0j
    subset_size = 0
    for i in range(1, 1 << size):
        bit = (i & -i).bit_length() - 1
        if (i ^ (i >> 1)) >> bit & 1:
            rowsums += m[:, bit]
            subset_size += 1
        else:
            rowsums -= m[:, bit]
            subset_size -= 1
        term = np.prod(rowsums)
        if (size - subset_size) % 2:
            total -= term
        else:
            total += term
    return complex(total)


def classical_probability(s: Sequence[int]) -> Fraction:
    """Probability of arrangement s for distinguishable particles.

    Exact value n!/(n^n * prod s_j!); take float() of the result for the
    floating view.
    """
    t = validate_arrangement(s)
    n = len(t)
    denom = n**n
    for x in t:
        denom *= math.factorial(x)
    return Fraction(math.factorial(n), denom)


def suppression_Q(s: Sequence[int]) -> int:
    """Sum of the port assignment modulo n.

    A nonzero value certifies that the quantum amplitude vanishes; zero is
    inconclusive (see is_suppressed_exact for the authoritative test).
    """
    t = validate_arrangement(s)
    n = len(t)
    return sum(j * x for j, x in enumerate(t, start=1)) % n


@dataclass(frozen=True)
class Amplitude:
    """Transition amplitude, optionally with its exact unnormalized form.

    When exact is present, value equals sum(c_k w^k) * normalization up to
    float rounding, with normalization = 1 / (n^(n/2) * sqrt(prod s_j!)).
    """

    value: complex
    exact: CyclotomicVector | None
    normalization: float


def quantum_amplitude(s: Sequence[int], with_exact: bool = False) -> Amplitude:
    """Amplitude for arrangement s from one particle in each input port."""
    t = validate_arrangement(s)
    n = len(t)
    d = port_assignment(t)
    u = fourier_unitary(n)
    m = u[[p - 1 for p in d], :]
    repeat_factor = 1.0
    for x in t:
        repeat_factor *= math.factorial(x)
    value = permanent_ryser(m) / math.sqrt(repeat_factor)
    exact = exact_amplitude(t) if with_exact else None
    normalization = 1.0 / (n ** (n / 2.0) * math.sqrt(repeat_factor))
    return Amplitude(value=value, exact=exact, normalization=normalization)


def quantum_probability(s: Sequence[int]) -> float:
    """|amplitude|^2, in [0, 1]."""
    return abs(quantum_amplitude(s).value) ** 2


def zero_threshold(n: int, scale: float = FLOAT_ZERO_SCALE) -> float:
    """Probability below which the float path treats an event as suppressed.

    Scaled to the bunching probability n!/n^n, the natural size of the
    largest single-event probability.
    """
    return scale * math.factorial(n) / n**n


@lru_cache(maxsize=4)
def _all_permutations(n: int) -> np.ndarray:
    """All permutations of range(n) as an (n!, n) int array (n <= 9)."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def ck_decomposition(s: Sequence[int]) -> CyclotomicVector:
    """Histogram of the n! permutation terms by their phase class.

    Each permutation contributes w**theta to the unnormalized permanent,
    with theta = sum_l (d_l - 1) * (sigma(l) - 1) mod n.  Entry k of the
    result counts the permutations with theta = k, so the entries are
    non-negative, sum to n!, and sum(c_k w^k) is exactly the unnormalized
    permanent of the root-of-unity matrix.
    """
    t = validate_arrangement(s)
    n = len(t)
    if n > CK_BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(
            f"brute-force decomposition limited to n <= {CK_BRUTE_FORCE_LIMIT} (n! terms)"
        )
    d0 = np.array(port_assignment(t), dtype=np.int64) - 1
    theta = (_all_permutations(n) @ d0) % n
    counts = np.bincount(theta, minlength=n)
    return CyclotomicVector(tuple(int(c) for c in counts))


def verify_gamma_shift(s: Sequence[int]) -> bool:
    """Check that the phase histogram is periodic under index shift by Q.

    Shift invariance by Q implies invariance by every multiple a*Q, so a
    single-shift comparison covers all a.  Vacuously true when Q = 0.
    """
    t = validate_arrangement(s)
    n = len(t)
    q = suppression_Q(t)
    c = ck_decomposition(t).coefficients
    return all(c[(r + q) % n] == c[r] for r in range(n))


@lru_cache(maxsize=4)
def _subset_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared inclusion-exclusion tables for order n.

    Returns (row_sums, signs, conv_index) where row_sums[r][S, c] counts the
    columns k in subset S with r*k = c (mod n), signs[S] = (-1)^(n - |S|)
    with the empty subset zeroed out, and conv_index[i, j] = (j - i) mod n
    drives the batched cyclic convolution.
    """
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)) & 1  # (2^n, n)
    popcount = bits.sum(axis=1)
    signs = np.where((n - popcount) % 2 == 0, 1, -1).astype(np.int64)
    signs[0] = 0
    row_sums = np.empty((n, size, n), dtype=np.int64)
    for r in range(n):
        residues = (r * np.arange(n)) % n
        indicator = np.zeros((n, n), dtype=np.int64)
        indicator[np.arange(n), residues] = 1
        row_sums[r] = bits @ indicator
    j = np.arange(n)
    conv_index = (j[None, :] - j[:, None]) % n
    return row_sums, signs, conv_index


def _exact_coefficient_bound(n: int) -> int:
    """Worst-case magnitude of any intermediate integer in the exact path."""
    return sum(math.comb(n, k) * k**n for k in range(1, n + 1))


def exact_amplitude(s: Sequence[int]) -> CyclotomicVector:
    """Unnormalized permanent of the root-of-unity matrix, exactly.

    The matrix has entries w^((d_j - 1) * k) for k = 0..n-1; the permanent
    is evaluated by inclusion-exclusion over column subsets, with the
    products of row sums carried as integer coefficient vectors and
    multiplied by cyclic convolution.  Relates to the float amplitude by
    the normalization stored on Amplitude.

    Intermediate magnitudes are pre-bounded and checked against the
    working integer width, so an unrepresentable case raises instead of
    wrapping around.
    """
    t = validate_arrangement(s)
    n = len(t)
    if n > EXACT_AMPLITUDE_LIMIT:
        raise ResourceLimitError(f"exact amplitude limited to n <= {EXACT_AMPLITUDE_LIMIT}")
    bound = _exact_coefficient_bound(n)
    if bound > np.iinfo(np.int64).max:
        raise ResourceLimitError(
            f"exact-path coefficient bound {bound} exceeds the 64-bit accumulator"
        )
    row_sums, signs, conv_index = _subset_tables(n)
    rows = np.array(port_assignment(t), dtype=np.int64) - 1
    acc = row_sums[rows[0]].copy()
    for r in rows[1:]:
        other = row_sums[r]
        acc = np.einsum("si,sij->sj", acc, other[:, conv_index])
    coeffs = signs @ acc
    return CyclotomicVector(tuple(int(c) for c in coeffs))


def is_suppressed_exact(s: Sequence[int]) -> bool:
    """Tolerance-free suppression verdict: is the exact amplitude zero?"""
    return exact_amplitude(s).is_zero()


def exact_integer_amplitude(s: Sequence[int]) -> int:
    """The unnormalized permanent as a plain integer.

    For the Fourier matrix the permanent is fixed by every Galois
    automorphism w -> w^a with gcd(a, n) = 1 (such a map only permutes the
    matrix columns), so it is a rational integer.  A non-integer reduction
    would mean a broken invariant and raises.
    """
    z = exact_amplitude(s).as_integer()
    if z is None:
        raise ArithmeticError(f"amplitude of {tuple(s)} did not reduce to an integer")
    return z


def exact_quantum_probability(s: Sequence[int]) -> Fraction:
    """Quantum probability as an exact rational, z^2 / (n^n * prod s_j!)."""
    t = validate_arrangement(s)
    n = len(t)
    z = exact_integer_amplitude(t)
    denom = n**n
    for x in t:
        denom *= math.factorial(x)
    return Fraction(z * z, denom)


@lru_cache(maxsize=4)
def _float_subset_sums(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row subset sums of the Fourier matrix and the Ryser signs.

    row_sums[r, S] = sum over columns k in S of U[r, k]; the permanent of
    a row-repeated Fourier matrix is then signs @ prod-over-rows, which is
    what batch_quantum_probability exploits.
    """
    u = fourier_unitary(n)
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64)
    popcount = bits.sum(axis=1)
    signs = np.where((n - popcount) % 2 == 0, 1.0, -1.0)
    signs[0] = 0.0
    row_sums = np.ascontiguousarray((bits @ u.T).T)  # (n, 2^n)
    return row_sums, signs


def batch_quantum_probability(s: Sequence[int]) -> float:
    """Float quantum probability via shared subset tables.

    Matches permanent_ryser to machine precision but amortizes the
    inclusion-exclusion across arrangements, which is what the full-table
    sweeps need.  The shared tables take n * 2^n complex entries, hence the
    tighter cap; quantum_probability has no table and reaches n = 24.
    """
    t = validate_arrangement(s)
    n = len(t)
    if n > BATCH_FLOAT_LIMIT:
        raise ResourceLimitError(
            f"batched float path limited to n <= {BATCH_FLOAT_LIMIT} (table memory)"
        )
    row_sums, signs = _float_subset_sums(n)
    rows = [p - 1 for p in port_assignment(t)]
    perm = signs @ np.prod(row_sums[rows], axis=0)
    repeat_factor = 1.0
    for x in t:
        repeat_factor *= math.factorial(x)
    return float(abs(perm) ** 2 / repeat_factor)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR factorization of a Gaussian matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
