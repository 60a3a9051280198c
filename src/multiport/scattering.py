"""Transition amplitudes and probabilities for the Fourier multiport.

The n-port device maps input mode a_k to outputs with the unitary
U[j, k] = exp(2*pi*i*j*k/n) / sqrt(n) (0-based indices).  With one particle
per input port, the amplitude for the output arrangement s is the permanent
of the matrix whose rows are the rows of U selected by the port assignment
of s, divided by sqrt(prod s_j!).

Every entry of the unnormalized matrix is a power of w = exp(2*pi*i/n), and
its permanent z is an integer by construction: Ryser's formula, grouped by
how many copies of each repeated row a subset takes, writes z as a signed
sum of resultants Res(x(t), t^n - 1).  exact_integer_amplitude evaluates
that sum modulo primes q = 1 (mod n) and rebuilds z by the Chinese
remainder theorem; a redundant prime guards the reconstruction.  Every
probability the package reports is z^2 / (n^n * prod s_j!), exactly or
rounded once to float, so suppression verdicts (z == 0) carry no
tolerance.  The float permanents (permanent_naive, permanent_ryser and
quantum_probability built on them) stay as independent oracles.
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
CK_BRUTE_FORCE_LIMIT = 9
EXACT_AMPLITUDE_LIMIT = 14


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
    return Fraction(math.factorial(len(t)), _denominator(t))


def _denominator(t: Sequence[int]) -> int:
    """n^n * prod s_j!, the denominator of both probabilities of t."""
    return len(t) ** len(t) * math.prod(map(math.factorial, t))


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

    When exact is present, it is the integer z and value equals
    z * normalization up to float rounding, with
    normalization = 1 / (n^(n/2) * sqrt(prod s_j!)).
    """

    value: complex
    exact: int | None
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
    exact = exact_integer_amplitude(t) if with_exact else None
    normalization = 1.0 / (n ** (n / 2.0) * math.sqrt(repeat_factor))
    return Amplitude(value=value, exact=exact, normalization=normalization)


def quantum_probability(s: Sequence[int]) -> float:
    """|amplitude|^2, in [0, 1]."""
    return abs(quantum_amplitude(s).value) ** 2


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


# Names the exact kernel in cache keys, so results of another kernel are
# never served from the cache.
EXACT_KERNEL_TAG = "ryser-crt"


def _is_prime(q: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5 and 7, exact for q < 3,215,031,751."""
    if q < 11 or q % 2 == 0:
        return q in (2, 3, 5, 7)
    d, r = q - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, q)
        if x == 1:
            continue
        for _ in range(r):
            if x == q - 1:
                break
            x = x * x % q
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _kernel_tables(n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Primes for the exact kernel of order n and their root-power tables.

    The primes are the largest q = 1 (mod n) below 2^31, as many as the
    bunched arrangement (n, 0, ..., 0), the largest bound, needs, plus one
    spare.  powers[i, p, k] = w^(p*k) mod q_i, with w of exact order n in
    F_{q_i}.  Residues below 2^31 keep a product of two inside int64.
    """
    need = 2 * math.isqrt(n**n * math.factorial(n)) + 2
    primes: list[int] = []
    powers = []
    q = 2**31 - 1 - (2**31 - 2) % n
    while math.prod(primes[:-1]) <= need:
        if _is_prime(q):
            for a in itertools.count(2):
                table = [pow(a, (q - 1) // n * e, q) for e in range(n)]
                if len(set(table)) == n:  # w = table[1] has exact order n
                    break
            primes.append(q)
            powers.append(np.array(table, dtype=np.int64)[np.outer(np.arange(n), np.arange(n)) % n])
        q -= n
    tables = np.array(powers)
    tables.setflags(write=False)
    return tuple(primes), tables


def _ryser_residues(t: Sequence[int], primes: Sequence[int], powers: np.ndarray) -> list[int]:
    """z mod q for each prime, from Ryser's formula over repeated rows.

    Row p of the matrix repeats s_p times, so Ryser's row subsets group by
    the number x_p of copies of each row they take:

        z = sum_{0 <= x <= s} (-1)^(n - |x|) prod_p C(s_p, x_p) prod_k x(w^k)

    with x(w^k) = sum_p x_p w^(p*k).  The grid of x spans the occupied
    ports only, so a class costs prod(s_p + 1) * n operations per prime.
    """
    n = len(t)
    q = np.array(primes, dtype=np.int64)[:, None]
    # sums[i, k, g] = x(w^k) at grid point g, below n * 2^31 until reduced
    sums = np.zeros((len(primes), n, 1), dtype=np.int64)
    coeffs = np.ones(1, dtype=np.int64)  # (-1)^(n - |x|) prod C(s_p, x_p)
    for p, sp in enumerate(t):
        if sp:
            step = powers[:, p, :, None] * np.arange(sp + 1)
            sums = (sums[:, :, :, None] + step[:, :, None, :]).reshape(len(primes), n, -1)
            signed = [(-1) ** (sp - j) * math.comb(sp, j) for j in range(sp + 1)]
            coeffs = np.multiply.outer(coeffs, np.array(signed, dtype=np.int64)).ravel()
    sums %= q[:, :, None]
    prod = sums[:, 0]
    for k in range(1, n):
        prod = prod * sums[:, k] % q
    # sum |coeffs| = 2^n, so the dot product stays below 2^(n + 31)
    return [int(r) for r in (prod @ coeffs) % q[:, 0]]


def exact_integer_amplitude(s: Sequence[int]) -> int:
    """The unnormalized permanent z of the root-of-unity matrix, exactly.

    Each Ryser term prod_k x(w^k) is the resultant of x(t) and t^n - 1, so
    z is an integer by construction, and any w of exact order n gives it.
    It is evaluated mod primes q = 1 (mod n) whose product exceeds 2|z| + 1
    and rebuilt by the Chinese remainder theorem as a symmetric residue.
    One spare prime guards the reconstruction: if its residue disagrees
    with z, ArithmeticError is raised rather than a wrong z returned.
    """
    t = validate_arrangement(s)
    n = len(t)
    if n > EXACT_AMPLITUDE_LIMIT:
        raise ResourceLimitError(f"exact amplitude limited to n <= {EXACT_AMPLITUDE_LIMIT}")
    primes, powers = _kernel_tables(n)
    # z^2 / _denominator(t) is a probability, so 2|z| + 1 < bound
    bound = 2 * math.isqrt(_denominator(t)) + 2
    used = 1
    while math.prod(primes[:used]) <= bound:
        used += 1
    residues = _ryser_residues(t, primes[: used + 1], powers[: used + 1])
    z, m = 0, 1
    for r, q in zip(residues[:used], primes):
        z += m * ((r - z) * pow(m, -1, q) % q)
        m *= q
    if 2 * z > m:
        z -= m
    if (z - residues[used]) % primes[used]:
        raise ArithmeticError(f"amplitude of {t}: residues disagree with the spare prime")
    return z


def is_suppressed_exact(s: Sequence[int]) -> bool:
    """Tolerance-free suppression verdict: is the exact amplitude zero?"""
    return exact_integer_amplitude(s) == 0


def exact_quantum_probability(s: Sequence[int]) -> Fraction:
    """Quantum probability as an exact rational, z^2 / (n^n * prod s_j!)."""
    t = validate_arrangement(s)
    z = exact_integer_amplitude(t)
    return Fraction(z * z, _denominator(t))


def batch_quantum_probability(s: Sequence[int]) -> float:
    """Quantum probability as a float, exact_quantum_probability rounded once.

    The name dates from a float kernel that batched Ryser's subset sums;
    the benchmark in perfbench/ still calls the function by it.  Exact
    zeros come out as 0.0.
    """
    return float(exact_quantum_probability(s))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR factorization of a Gaussian matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
