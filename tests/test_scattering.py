import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiport import scattering, statistics
from multiport.arrangements import dihedral_orbit, enumerate_arrangements, port_assignment
from multiport.errors import BRUTE_FORCE_LIMIT, InvalidArrangementError, ResourceLimitError
from multiport.scattering import (
    batch_quantum_probability,
    ck_decomposition,
    classical_probability,
    exact_integer_amplitude,
    exact_integer_amplitudes,
    exact_quantum_probability,
    fourier_unitary,
    permanent_naive,
    permanent_ryser,
    quantum_amplitude,
    quantum_probability,
    random_unitary,
    suppression_Q,
    verify_gamma_shift,
)


def arrangements(max_n=6):
    return (
        st.integers(min_value=1, max_value=max_n)
        .flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        .map(lambda hits: tuple(hits.count(j) for j in range(len(hits))))
    )


class TestFourierUnitary:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_unitarity(self, n):
        u = fourier_unitary(n)
        err = np.max(np.abs(u @ u.conj().T - np.eye(n)))
        assert err < 1e-12

    def test_entries(self):
        u = fourier_unitary(4)
        assert abs(u[1, 1] - 1j / 2) < 1e-15
        assert abs(u[1, 3] + 1j / 2) < 1e-15
        assert abs(u[0, 3] - 0.5) < 1e-15


class TestPermanents:
    def test_identity(self):
        assert abs(permanent_naive(np.eye(3)) - 1) < 1e-14
        assert abs(permanent_ryser(np.eye(5)) - 1) < 1e-12

    def test_all_ones(self):
        assert abs(permanent_naive(np.ones((4, 4))) - 24) < 1e-10
        assert abs(permanent_ryser(np.ones((6, 6))) - 720) < 1e-9

    def test_fourier3(self):
        value = permanent_naive(fourier_unitary(3))
        assert abs(value - (-1 / math.sqrt(3))) < 1e-12

    def test_oracle_agreement_on_random_unitaries(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            u = random_unitary(7, rng)
            a = permanent_naive(u)
            b = permanent_ryser(u)
            assert abs(a - b) <= 1e-10 * abs(a)

    def test_limits(self):
        with pytest.raises(ResourceLimitError):
            permanent_naive(np.eye(10))
        with pytest.raises(ResourceLimitError):
            permanent_ryser(np.eye(25))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            permanent_ryser(np.ones((2, 3)))


class TestClassicalProbability:
    @pytest.mark.parametrize(
        "s,expected",
        [
            ((1, 1, 1), Fraction(2, 9)),
            ((0, 0, 5, 0, 0), Fraction(1, 3125)),
            ((2, 0), Fraction(1, 4)),
        ],
    )
    def test_values(self, s, expected):
        assert classical_probability(s) == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_normalized(self, n):
        assert sum(classical_probability(s) for s in enumerate_arrangements(n)) == 1


class TestQuantumAmplitude:
    def test_hom_dip(self):
        assert abs(quantum_amplitude((1, 1))) < 1e-12

    def test_hom_bunching(self):
        assert abs(quantum_probability((2, 0)) - 0.5) < 1e-12
        assert abs(quantum_probability((0, 2)) - 0.5) < 1e-12

    def test_three_port_coincident(self):
        assert abs(quantum_probability((1, 1, 1)) - 1 / 3) < 1e-12

    def test_three_port_bunching(self):
        assert abs(quantum_probability((3, 0, 0)) - 2 / 9) < 1e-12

    def test_law_suppressed_event(self):
        assert quantum_probability((2, 1, 2, 1, 0, 0)) < 1e-10 * math.factorial(6) / 6**6

    def test_five_port_coincident(self):
        assert abs(quantum_probability((1, 1, 1, 1, 1)) - 1 / 125) < 1e-12

    def test_exact_field_relation(self):
        for s in [(2, 0), (1, 1, 1), (0, 1, 2, 1, 0, 2), (0, 2, 0, 2, 0, 2)]:
            z = exact_integer_amplitude(s)
            assert z == ck_decomposition(s).as_integer()
            n = len(s)
            normalization = math.sqrt(n**n * math.prod(map(math.factorial, s)))
            assert abs(quantum_amplitude(s) - z / normalization) < 1e-9

    @given(arrangements(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_batch_path_agrees_with_gray_path(self, s):
        assert abs(batch_quantum_probability(s) - quantum_probability(s)) < 1e-12


class TestSuppressionQ:
    @pytest.mark.parametrize(
        "s,q",
        [
            ((2, 1, 2, 1, 0, 0), 2),
            ((0, 1, 2, 0, 2, 1), 0),
            ((6, 0, 0, 0, 0, 0), 0),
            ((4, 0, 0, 0), 0),
        ],
    )
    def test_values(self, s, q):
        assert suppression_Q(s) == q

    @given(arrangements())
    def test_invariant_under_rotation(self, s):
        rotated = s[1:] + s[:1]
        assert (suppression_Q(s) == 0) == (suppression_Q(rotated) == 0)


class TestCkDecomposition:
    def test_three_port_coincident(self):
        assert ck_decomposition((1, 1, 1)).coefficients == (0, 3, 3)

    def test_hom(self):
        # One permutation lands in each residue class; 1 + w = 0 for w = -1,
        # which is the vanishing HOM amplitude.
        c = ck_decomposition((1, 1))
        assert c.coefficients == (1, 1)
        assert c.as_integer() == 0

    def test_anomalous_six_port_event(self):
        c = ck_decomposition((0, 1, 2, 1, 0, 2))
        assert sum(c.coefficients) == math.factorial(6)
        assert c.coefficients == (96, 120, 168, 48, 168, 120)
        assert c.as_integer() == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_all_permutations(self, n):
        for s in enumerate_arrangements(n):
            c = ck_decomposition(s)
            assert all(x >= 0 for x in c.coefficients)
            assert sum(c.coefficients) == math.factorial(n)

    def test_reconstructs_unnormalized_permanent(self):
        for s in [(2, 0, 1), (0, 2, 0, 2), (1, 1, 1, 1, 1)]:
            n = len(s)
            repeats = math.prod(math.factorial(x) for x in s)
            unnormalized = quantum_amplitude(s) * math.sqrt(repeats) * n ** (n / 2)
            assert abs(ck_decomposition(s).as_integer() - unnormalized) < 1e-6

    def test_limit(self):
        with pytest.raises(ResourceLimitError):
            ck_decomposition((1,) * 10)


class TestGammaShift:
    def test_residue_two_forces_period_two(self):
        # Q = 2 forces the histogram to repeat with period 2.
        s = (2, 1, 2, 1, 0, 0)
        assert suppression_Q(s) == 2
        c = ck_decomposition(s).coefficients
        assert c[0::2] == (c[0],) * 3 and c[1::2] == (c[1],) * 3
        assert verify_gamma_shift(s)

    def test_vacuous_when_q_zero(self):
        assert verify_gamma_shift((6, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_small_n(self, n):
        assert all(verify_gamma_shift(s) for s in enumerate_arrangements(n))


def oracle_z(s):
    """z from the brute-force phase histogram, independent of the kernel."""
    z = ck_decomposition(s).as_integer()
    assert z is not None, f"c_k histogram of {s} is not a rational integer"
    return z


class TestExactAmplitude:
    def test_hom_zero(self):
        assert exact_integer_amplitude((1, 1)) == oracle_z((1, 1)) == 0

    def test_three_port_coincident_integer(self):
        assert exact_integer_amplitude((1, 1, 1)) == oracle_z((1, 1, 1)) == -3

    def test_anomalous_six_port_zero(self):
        s = (0, 1, 1, 2, 1, 1)
        assert suppression_Q(s) == 0
        assert exact_integer_amplitude(s) == oracle_z(s) == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force_exactly(self, n):
        # every arrangement, shuffled, in one batched call and one by one
        arrangements = list(enumerate_arrangements(n))
        random.Random(n).shuffle(arrangements)
        expected = [oracle_z(s) for s in arrangements]
        assert exact_integer_amplitudes(iter(arrangements)) == expected
        for s, z in zip(arrangements, expected):
            assert exact_integer_amplitude(s) == z, s

    def test_matches_brute_force_on_affine_keys(self, monkeypatch):
        # every class the class table sends to the kernel at the oracle's
        # largest n, in its one call, some with two or more particles on
        # each occupied port
        n = BRUTE_FORCE_LIMIT
        calls = []

        def record(ts):
            calls.append(list(ts))
            return exact_integer_amplitudes(calls[-1])

        monkeypatch.setattr(statistics, "exact_integer_amplitudes", record)
        statistics.class_table(n)
        assert (n, [len(keys) for keys in calls]) == (9, [70])
        keys = calls[0]
        assert any(min(x for x in s if x) >= 2 for s in keys)
        assert exact_integer_amplitudes(keys) == [oracle_z(s) for s in keys]

    def test_amplitude_is_rational_integer(self):
        # The c_k histogram reduces to a plain integer for every event.
        for n in range(1, 7):
            for s in enumerate_arrangements(n):
                assert ck_decomposition(s).as_integer() is not None

    def test_limit(self):
        with pytest.raises(ResourceLimitError):
            exact_integer_amplitude((1,) * 15)


# z at n = 14, as computed by the earlier cyclotomic einsum kernel.
PINNED_N14 = {
    (14,) + (0,) * 13: math.factorial(14),
    (1,) * 14: 0,
    (0, 0, 0, 1, 1, 0, 0, 0, 1, 5, 4, 0, 0, 2): -9031680,
    (0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 0, 2, 0, 7): -15240960,
    (0, 0, 1, 0, 1, 4, 1, 0, 1, 1, 1, 3, 0, 1): 0,
}


def ryser_condition(s):
    """Sum of |Ryser terms| over |permanent| for the float path's sum.

    The float permanent is a sum of 2^n terms that can cancel; its
    relative rounding error is bounded by a small multiple of n * u times
    this ratio (u = 2^-53).
    """
    n = len(s)
    u = fourier_unitary(n)
    rows = [p - 1 for p in port_assignment(s)]
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    terms = np.prod(bits @ u[rows].T, axis=1)
    signs = (-1.0) ** (n - bits.sum(axis=1))
    return np.abs(terms).sum() / abs(signs @ terms)


class TestKernelChecks:
    @pytest.mark.parametrize("s", list(PINNED_N14))
    def test_pinned_n14_values(self, s):
        assert exact_integer_amplitude(s) == PINNED_N14[s]

    @pytest.mark.parametrize("s", [s for s, z in PINNED_N14.items() if z])
    def test_float_path_agrees_at_n14(self, s):
        z = PINNED_N14[s]
        exact = Fraction(z * z, 14**14 * math.prod(math.factorial(x) for x in s))
        assert exact == exact_quantum_probability(s)
        # The Gray-code Ryser permanent is an independent float oracle.
        # 1e-9, or the rounding limit of a badly cancelling sum: the
        # bunched class has terms +-|S|^n and a condition number of 5.5e6.
        tolerance = max(1e-9, 6 * 14 * 2.0**-53 * ryser_condition(s))
        assert abs(quantum_probability(s) - float(exact)) <= tolerance * float(exact)

    def test_kernel_primes(self):
        # every property of the constant primes and roots that the kernel relies on
        shared = scattering._kernel_tables(1)[0]
        assert shared == scattering._PRIMES and len(scattering._ROOTS) == len(shared)
        assert all(q % scattering._ORDER == 1 for q in shared)
        for q, r in zip(shared, scattering._ROOTS):  # exact order _ORDER = 2^3 * 3^2 * 5 * 7 * 11 * 13
            assert pow(r, scattering._ORDER, q) == 1
            assert all(pow(r, scattering._ORDER // f, q) != 1 for f in (2, 3, 5, 7, 11, 13))
        for n in (14, 15):  # all primes but the spare outgrow the largest bound, of (n, 0, ..., 0)
            assert math.prod(shared[:-1]) > 2 * math.isqrt(n**n * math.factorial(n)) + 2
        for n in range(1, 15):
            primes, powers, inverses = scattering._kernel_tables(n)
            assert primes == shared
            assert len(primes) == len(powers) == len(inverses)
            for q, table, inv in zip(primes, powers, inverses):
                assert q < 2**31 and (q - 1) % n == 0
                assert inv * 2 ** (n - 1) % q == 1
                assert np.all(q % np.arange(2, math.isqrt(q) + 1))
                row = table[1 % n].tolist()  # w^k for k < n
                assert len(set(row)) == n and pow(row[1 % n], n, q) == 1

    @pytest.mark.parametrize("s", [(14,) + (0,) * 13, (0, 0, 0, 1, 1, 0, 0, 0, 1, 5, 4, 0, 0, 2), (1,) * 14])
    def test_wrong_residue_raises(self, s, monkeypatch):
        real = scattering._glynn_residues
        used = []

        def spy(ts, primes, powers, inverses):
            used.append(len(primes))
            return real(ts, primes, powers, inverses)

        monkeypatch.setattr(scattering, "_glynn_residues", spy)
        assert exact_integer_amplitude(s) == PINNED_N14[s]
        assert used[0] >= 2  # at least one working prime and the spare
        for bad in range(used[0]):

            def corrupted(ts, primes, powers, inverses, bad=bad):
                residues = real(ts, primes, powers, inverses)
                assert residues.shape == (len(primes), 1)
                residues[bad, 0] = (residues[bad, 0] + 1) % primes[bad]
                return residues

            monkeypatch.setattr(scattering, "_glynn_residues", corrupted)
            with pytest.raises(ArithmeticError):
                exact_integer_amplitude(s)

    def test_negated_residue_raises(self, monkeypatch):
        # q - r turns z into -z, which z^2 and so every normalization sum
        # cannot see; only the spare prime can.
        s = (0, 1, 2, 0, 2, 1)
        z = exact_integer_amplitude(s)
        real = scattering._glynn_residues
        used = []

        def negated(ts, primes, powers, inverses):
            residues = real(ts, primes, powers, inverses)
            used.append(len(primes))
            residues[0, 0] = primes[0] - residues[0, 0]
            return residues

        monkeypatch.setattr(scattering, "_glynn_residues", negated)
        with pytest.raises(ArithmeticError, match="spare prime"):
            exact_integer_amplitude(s)
        assert z != 0 and used == [2]  # one working prime and the spare


class TestBatchedKernel:
    """exact_integer_amplitudes groups its inputs by occupancy profile and
    evaluates each group in chunks of at most _CELLS grid cells."""

    @pytest.mark.parametrize("cells", [1, 50])
    def test_chunk_cap_does_not_change_z(self, cells, monkeypatch):
        arrangements = list(enumerate_arrangements(7))
        whole = exact_integer_amplitudes(arrangements)
        real = scattering._glynn_residues
        chunks = []

        def spy(ts, *tables):
            chunks.append(ts)
            return real(ts, *tables)

        monkeypatch.setattr(scattering, "_CELLS", cells)
        monkeypatch.setattr(scattering, "_glynn_residues", spy)
        assert exact_integer_amplitudes(arrangements) == whole
        profiles = Counter(tuple(sorted(ts[0])) for ts in chunks)
        assert all(tuple(sorted(t)) == tuple(sorted(ts[0])) for ts in chunks for t in ts)
        assert sum(map(len, chunks)) == len(arrangements)
        if cells == 1:
            assert all(len(ts) == 1 for ts in chunks)
        else:  # some profile is split into chunks of two or more classes
            assert any(len(ts) > 1 and profiles[tuple(sorted(ts[0]))] > 1 for ts in chunks)

    def test_corrupted_class_in_a_chunk_is_named(self, monkeypatch):
        arrangements = [s for s in enumerate_arrangements(6) if sorted(s) == [0, 0, 1, 1, 2, 2]]
        target = arrangements[7]
        real = scattering._glynn_residues
        used = []

        def spy(ts, primes, powers, inverses):
            used.append((len(ts), len(primes)))
            return real(ts, primes, powers, inverses)

        monkeypatch.setattr(scattering, "_glynn_residues", spy)
        exact_integer_amplitudes(arrangements)
        assert used == [(len(arrangements), used[0][1])] and len(arrangements) > 1
        for bad in range(used[0][1]):

            def corrupted(ts, primes, powers, inverses, bad=bad):
                residues = real(ts, primes, powers, inverses)
                c = ts.index(target)
                residues[bad, c] = (residues[bad, c] + 1) % primes[bad]
                return residues

            monkeypatch.setattr(scattering, "_glynn_residues", corrupted)
            with pytest.raises(ArithmeticError, match=re.escape(f"amplitude of {target}:")):
                exact_integer_amplitudes(arrangements)

    def test_empty_mixed_and_invalid_inputs(self):
        assert exact_integer_amplitudes([]) == []
        with pytest.raises(ValueError, match="one n") as exc:
            exact_integer_amplitudes([(1, 1), (1, 1, 1)])
        assert not isinstance(exc.value, InvalidArrangementError)
        with pytest.raises(InvalidArrangementError):
            exact_integer_amplitudes([(1, 1, 1), (1, 2, 1)])
        with pytest.raises(ResourceLimitError):
            exact_integer_amplitudes([(1,) * 15])


class TestSuppressedExact:
    def test_anomalous_pair(self):
        assert exact_integer_amplitude((0, 1, 2, 1, 0, 2)) == 0
        assert suppression_Q((0, 1, 2, 1, 0, 2)) == 0
        assert exact_integer_amplitude((0, 1, 1, 2, 1, 1)) == 0

    def test_enhanced_event_not_suppressed(self):
        assert exact_integer_amplitude((0, 1, 2, 0, 2, 1)) != 0

    @pytest.mark.parametrize("n", range(2, 7))
    def test_law_sound_for_small_n(self, n):
        for s in enumerate_arrangements(n):
            if suppression_Q(s) != 0:
                assert exact_integer_amplitude(s) == 0, s


class TestExactQuantumProbability:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_normalization_is_exact(self, n):
        total = sum(exact_quantum_probability(s) for s in enumerate_arrangements(n))
        assert total == 1

    def test_agrees_with_float_path(self):
        for s in enumerate_arrangements(5):
            assert abs(float(exact_quantum_probability(s)) - quantum_probability(s)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_probability_invariant_on_orbit(self, n):
        s = next(iter(enumerate_arrangements(n)))
        for member in dihedral_orbit((0,) * (n - 2) + (1, n - 1)):
            assert exact_quantum_probability(member) == exact_quantum_probability(
                (0,) * (n - 2) + (1, n - 1)
            )


class TestInputValidation:
    def test_bad_arrangements_rejected_everywhere(self):
        for fn in (
            quantum_probability,
            classical_probability,
            suppression_Q,
            ck_decomposition,
            exact_integer_amplitude,
        ):
            with pytest.raises(InvalidArrangementError):
                fn((1, 2))
