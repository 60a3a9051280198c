"""Transition amplitudes and probabilities for the Fourier multiport.

The n-port device maps input mode a_k to outputs with the unitary
U[j, k] = exp(2*pi*i*j*k/n) / sqrt(n) (0-based indices).  With one particle
per input port, the amplitude for the output arrangement s is the permanent
of the matrix whose rows are the rows of U selected by the port assignment
of s, divided by sqrt(prod s_j!).

Every entry of the unnormalized matrix is a power of w = exp(2*pi*i/n), so
its permanent z is an algebraic integer, and it is rational: Glynn's
formula (D. G. Glynn, Eur. J. Combin. 31, 1887 (2010)), grouped by how many
copies of each repeated row a sign vector negates, writes 2^(n-1) z as a
signed sum of resultants Res(y(t), t^n - 1).  So z is an integer.
exact_integer_amplitudes, the one exact kernel, evaluates that sum modulo
the constant primes _PRIMES, the same for every n, all q = 1
(mod 360360), 360360 being lcm(1..EXACT_AMPLITUDE_LIMIT), with roots
_ROOTS of order 360360 modulo them (test_kernel_primes checks both),
divides by 2^(n-1) there, and rebuilds z by the Chinese remainder
theorem; a redundant prime guards the reconstruction.  The arrangements
of one occupancy profile, sorted(s), share the Glynn grid and its
coefficients, into which the factor at t = 1, the same for all of them,
is folded, so it evaluates them in one numpy pipeline.  Every
probability the package reports is z^2 / (n^n * prod s_j!), exactly or
rounded once to float, so suppression verdicts (z == 0) carry no
tolerance.  The float permanents (permanent_naive, permanent_ryser and
quantum_probability built on them) stay as independent oracles.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from ._numpy import np
from .arrangements import Arrangement, port_assignment, validate_arrangement
from .cyclotomic import CyclotomicVector
from .errors import BRUTE_FORCE_LIMIT, EXACT_AMPLITUDE_LIMIT, RYSER_PERMANENT_LIMIT, check_size


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
    check_size("naive permanent", size, BRUTE_FORCE_LIMIT)
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
    check_size("Ryser permanent", size, RYSER_PERMANENT_LIMIT)
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
    inconclusive (exact_integer_amplitude(s) == 0 is the authoritative test).
    """
    t = validate_arrangement(s)
    n = len(t)
    return sum(j * x for j, x in enumerate(t, start=1)) % n


def quantum_amplitude(s: Sequence[int]) -> complex:
    """Amplitude for arrangement s from one particle in each input port.

    It equals exact_integer_amplitude(s) / sqrt(n^n * prod s_j!) up to
    float rounding.
    """
    t = validate_arrangement(s)
    n = len(t)
    d = port_assignment(t)
    m = fourier_unitary(n)[[p - 1 for p in d], :]
    return permanent_ryser(m) / math.sqrt(math.prod(map(math.factorial, t)))


def quantum_probability(s: Sequence[int]) -> float:
    """|amplitude|^2, in [0, 1]."""
    return abs(quantum_amplitude(s)) ** 2


@lru_cache(maxsize=4)
def _all_permutations(n: int) -> np.ndarray:
    """All permutations of range(n) as an (n!, n) int array (n <= BRUTE_FORCE_LIMIT)."""
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
    check_size("brute-force decomposition", n, BRUTE_FORCE_LIMIT)
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
EXACT_KERNEL_TAG = "glynn-crt"


# One set of primes serves every n.  Each n the kernel takes divides
# _ORDER = lcm(1..EXACT_AMPLITUDE_LIMIT), so each prime of _PRIMES, the
# largest q = 1 (mod _ORDER) below 2^31, holds a root of unity of every
# order n: _ROOTS[i] has exact order _ORDER mod _PRIMES[i].  There are as
# many primes as the bunched arrangement of n = EXACT_AMPLITUDE_LIMIT, the
# largest bound of any n, needs, plus one spare.  test_kernel_primes
# (tests/test_scattering.py) checks every property the kernel relies on.
_ORDER = math.lcm(*range(1, EXACT_AMPLITUDE_LIMIT + 1))
_PRIMES = (2147024881, 2146304161, 2145943801)
_ROOTS = (952664204, 1293753973, 1989996470)


@lru_cache(maxsize=None)
def _kernel_tables(n: int) -> tuple[tuple[int, ...], np.ndarray, tuple[int, ...]]:
    """The exact kernel's primes, their root-power tables for order n and
    the inverses of 2^(n-1) modulo them.

    The primes are _PRIMES, the same for every n.  powers[i, p, k] =
    w^(p*k) mod q_i, with w = _ROOTS[i]^(_ORDER/n) of exact order n in
    F_{q_i}.  Residues below 2^31 keep a product of two inside int64.
    """
    step = _ORDER // n
    table = np.array([[pow(r, step * e, q) for e in range(n)] for q, r in zip(_PRIMES, _ROOTS)], dtype=np.int64)
    tables = table[:, np.outer(np.arange(n), np.arange(n)) % n]
    tables.setflags(write=False)
    return _PRIMES, tables, tuple(pow(2, 1 - n, q) for q in _PRIMES)


@lru_cache(maxsize=None)
def _glynn_weights(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The row sums m - 2j and the signed binomials (-1)^j C(m, j), j = 0..m,
    of m copies of one row, j of them signed -1."""
    return (np.arange(m, -m - 1, -2, dtype=np.int64),
            np.array([(-1) ** j * math.comb(m, j) for j in range(m + 1)], dtype=np.int64))


def _glynn_residues(ts: Sequence[Arrangement], primes: Sequence[int], powers: np.ndarray,
                    inverses: Sequence[int]) -> np.ndarray:
    """z mod q for each prime and each class of one occupancy profile, as a
    (primes, classes) array, from Glynn's formula over repeated rows.

    Row p of the matrix repeats s_p times.  Glynn's sign vectors group by
    the number j_p of copies of each row signed -1; one copy of p0, the
    first occupied port in (occupancy, port) order, is fixed to +1:

        z = 2^(1-n) sum_j (-1)^|j| C(s_p0 - 1, j_p0) prod_{p != p0} C(s_p, j_p)
                                   prod_k y_j(w^k)

    with y_j(w^k) = sum_p (s_p - 2 j_p) w^(p*k).  The row k = 0 is
    y_j(1) = n - 2|j| for every class of the profile, so it is folded into
    the coefficients, built alongside them, and only the rows k = 1..n-1
    are built and multiplied; for n = 1 none is left and their product is
    1.  The grid of j spans the occupied ports only, so a class costs
    s_p0 * prod_{p != p0} (s_p + 1) * (n - 1) operations per prime.  In
    that order the classes of one profile share the grid and coefficients,
    and differ only in the rows of powers used.
    """
    n = len(ts[0])
    q = np.array(primes, dtype=np.int64)[:, None]
    occupancies = sorted(x for x in ts[0] if x)
    ports = np.argsort(np.array(ts), axis=1, kind="stable")[:, n - len(occupancies):]
    # y[i, c, k - 1, g] = y(w^k) of class c at grid point g, |y| below n * 2^31 until reduced
    values, coeffs = _glynn_weights(occupancies[0] - 1)
    row0 = values + 1  # y(w^0) = n - 2|j| at each grid point; the copy of p0 fixed to +1
    y = powers[:, ports[:, 0], 1:, None] * row0
    for port, sp in zip(ports[:, 1:].T, occupancies[1:]):
        values, signed = _glynn_weights(sp)
        step = powers[:, port, 1:, None] * values
        y = (step[..., None] + y[..., None, :]).reshape(*y.shape[:3], -1)
        coeffs = np.multiply.outer(signed, coeffs).ravel()
        row0 = np.add.outer(values, row0).ravel()
    # fmod keeps the sign (|y| < q, products < 2^62) and beats % on negatives
    np.fmod(y, q[..., None, None], out=y)
    # prod_k, pairwise: rows k < m - h times rows k >= h, until one is left
    m = n - 1
    while m > 1:
        h = (m + 1) // 2
        y[:, :, : m - h] *= y[:, :, h:m]
        np.fmod(y[:, :, : m - h], q[..., None, None], out=y[:, :, : m - h])
        m = h
    product = y[:, :, 0] if n > 1 else np.ones((len(primes), len(ts), len(coeffs)), dtype=np.int64)
    # sum |coeffs * row0| <= n * 2^(n-1), so the dot product stays below
    # n * 2^(n+30), 2^48 at n = 14
    return product @ (coeffs * row0) % q * np.array(inverses, dtype=np.int64)[:, None] % q


# The most grid cells (classes times Glynn grid points) of one profile that
# _glynn_residues takes at a time; more leaves peak RSS higher at n = 10 to 12.
_CELLS = 1 << 11


def exact_integer_amplitudes(arrangements: Iterable[Sequence[int]]) -> list[int]:
    """The unnormalized permanents z of arrangements of one n, exactly, in order.

    Each Glynn term prod_k y(w^k) is the resultant of y(t) and t^n - 1, so
    2^(n-1) z is a sum of integers, and any w of exact order n gives it.
    z is evaluated mod the first of the constant primes _PRIMES, q = 1
    (mod 360360) as test_kernel_primes checks, whose product exceeds
    2|z| + 1, and rebuilt by the Chinese remainder theorem as a symmetric
    residue.  One spare prime, the next one, guards the reconstruction: if
    its residue disagrees with z, ArithmeticError is raised rather than a
    wrong z returned.  Classes of one profile are evaluated together,
    _CELLS grid cells at most.
    Residues stay in int64: the rows of the grid below n * 2^31, their
    products below 2^62, and the dot product with the coefficients, whose
    absolute values sum to at most n * 2^(n-1) once the row t = 1 is
    folded in, below n * 2^(n+30), 2^48 at n = 14.
    """
    ts = [validate_arrangement(s) for s in arrangements]
    n = len(ts[0]) if ts else 1
    if any(len(t) != n for t in ts):
        raise ValueError("exact amplitudes of one call must share one n")
    check_size("exact amplitude", n, EXACT_AMPLITUDE_LIMIT)
    primes, powers, inverses = _kernel_tables(n)
    profiles: dict[Arrangement, list[int]] = {}
    for i, t in enumerate(ts):
        profiles.setdefault(tuple(sorted(t)), []).append(i)
    z = [0] * len(ts)
    for profile, members in profiles.items():
        # z^2 / _denominator(t) is a probability, so 2|z| + 1 < bound
        bound = 2 * math.isqrt(_denominator(profile)) + 2
        used = next(u for u in itertools.count(1) if math.prod(primes[:u]) > bound)
        occupied = [x for x in profile if x]
        size = max(1, _CELLS // (occupied[0] * math.prod(x + 1 for x in occupied[1:])))
        for chunk in (members[i : i + size] for i in range(0, len(members), size)):
            residues = _glynn_residues([ts[i] for i in chunk], primes[: used + 1],
                                       powers[: used + 1], inverses[: used + 1])
            for i, r in zip(chunk, residues.T.tolist()):
                x, m = 0, 1
                for ri, q in zip(r, primes[:used]):
                    x += m * ((ri - x) * pow(m, -1, q) % q)
                    m *= q
                z[i] = x - m if 2 * x > m else x
                if (z[i] - r[used]) % primes[used]:
                    raise ArithmeticError(f"amplitude of {ts[i]}: residues disagree with the spare prime")
    return z


def exact_integer_amplitude(s: Sequence[int]) -> int:
    """z of one arrangement: exact_integer_amplitudes([s])[0]."""
    return exact_integer_amplitudes([s])[0]


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
