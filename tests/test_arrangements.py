import math

import pytest
from hypothesis import given, strategies as st

import numpy as np

import multiport.arrangements as arrangements_module
from multiport.arrangements import (
    affine_keys,
    class_columns,
    count_arrangements,
    dihedral_class_count,
    dihedral_orbit,
    enumerate_arrangements,
    multiplier_image,
    multiplier_units,
    partition_count,
    port_assignment,
    quantum_class_of,
    validate_arrangement,
)
from multiport.errors import InvalidArrangementError, ResourceLimitError
from multiport.statistics import class_table


def arrangements(max_n=7):
    """Random valid arrangement: scatter n particles over n ports."""
    return (
        st.integers(min_value=1, max_value=max_n)
        .flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        .map(lambda hits: tuple(hits.count(j) for j in range(len(hits))))
    )


class TestValidation:
    def test_accepts_valid(self):
        assert validate_arrangement([2, 1, 0, 2, 0]) == (2, 1, 0, 2, 0)
        t = validate_arrangement(np.array([2, 1, 0, 2, 0], dtype=np.int16))
        assert t == (2, 1, 0, 2, 0) and all(type(x) is int for x in t)

    # non-integers are neither truncated nor parsed: (2.7, 0, 1) is not (2, 0, 1)
    @pytest.mark.parametrize(
        "bad",
        [[], [3, 1], [2, 0, 0], [-1, 2], [0, 0, 0],
         [2.7, 0, 1], ["2", "0", "1"], [2.0, 0, 1], [None, 1, 2], [np.float64(2), 0, 1]],
        ids=repr,
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidArrangementError):
            validate_arrangement(bad)


class TestPortAssignment:
    def test_worked_example(self):
        assert port_assignment((2, 1, 0, 2, 0)) == (1, 1, 2, 4, 4)

    def test_bunching(self):
        assert port_assignment((4, 0, 0, 0)) == (1, 1, 1, 1)

    def test_coincident(self):
        assert port_assignment((1, 1, 1, 1, 1)) == (1, 2, 3, 4, 5)

    def test_rejects_malformed(self):
        with pytest.raises(InvalidArrangementError):
            port_assignment((2, 1))

    @given(arrangements())
    def test_round_trip(self, s):
        d = port_assignment(s)
        assert list(d) == sorted(d)
        assert tuple(d.count(j) for j in range(1, len(s) + 1)) == s


class TestEnumeration:
    @pytest.mark.parametrize("n,total", [(1, 1), (2, 3), (6, 462)])
    def test_counts(self, n, total):
        assert count_arrangements(n) == total
        assert sum(1 for _ in enumerate_arrangements(n)) == total

    @pytest.mark.parametrize("n", range(1, 11))
    def test_count_formula(self, n):
        listed = count_arrangements(n)
        assert listed == math.comb(2 * n - 1, n)
        assert listed == math.factorial(2 * n) // (2 * math.factorial(n) ** 2)

    def test_n2_explicit(self):
        assert list(enumerate_arrangements(2)) == [(2, 0), (1, 1), (0, 2)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_descending_order_no_duplicates(self, n):
        seen = list(enumerate_arrangements(n))
        assert seen == sorted(seen, reverse=True)
        assert len(seen) == len(set(seen)) == count_arrangements(n)
        assert all(sum(s) == n and len(s) == n for s in seen)

    def test_rejects_zero(self):
        with pytest.raises(InvalidArrangementError):
            next(enumerate_arrangements(0))


class TestClassicalClasses:
    @pytest.mark.parametrize("n,expected", [(2, 2), (6, 11), (8, 22)])
    def test_class_counts(self, n, expected):
        assert partition_count(n) == expected

    @pytest.mark.parametrize("n", range(2, 15))
    def test_partition_count_matches_census(self, n, census):
        assert partition_count(n) == census[n][1]


class TestDihedralOrbits:
    def test_fixed_point(self):
        assert dihedral_orbit((1, 1)) == {(1, 1)}

    def test_period_two(self):
        assert dihedral_orbit((2, 0, 2, 0)) == {(2, 0, 2, 0), (0, 2, 0, 2)}

    def test_singleton_peak(self):
        assert dihedral_orbit((3, 0, 0)) == {(3, 0, 0), (0, 3, 0), (0, 0, 3)}

    @given(arrangements())
    def test_orbit_size_divides_group_order(self, s):
        assert (2 * len(s)) % len(dihedral_orbit(s)) == 0

    @given(arrangements())
    def test_canonical_idempotent_across_orbit(self, s):
        rep = quantum_class_of(s)[0]
        assert all(quantum_class_of(m)[0] == rep for m in dihedral_orbit(s))
        assert rep in dihedral_orbit(s)


class TestQuantumClasses:
    def test_n2(self, quantum_classes):
        assert quantum_classes(2) == [
            ((0, 2), 2),
            ((1, 1), 1),
        ]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_counts_and_coverage(self, n, census):
        codes, sizes = class_columns(n)
        assert len(codes) == census[n][2]
        assert int(sizes.sum()) == count_arrangements(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_orbit_oracle(self, n, quantum_classes):
        oracle = {quantum_class_of(s) for s in enumerate_arrangements(n)}
        assert quantum_classes(n) == sorted(oracle)

    @pytest.mark.parametrize("n", [1, 2, 7, 10])
    def test_representatives_strictly_ascending(self, n, quantum_classes):
        reps = [rep for rep, _ in quantum_classes(n)]
        assert all(a < b for a, b in zip(reps, reps[1:]))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_burnside_count_matches_census(self, n, census):
        assert dihedral_class_count(n) == census[n][2]

    def test_orbit_size_matches_set(self):
        assert quantum_class_of((2, 1, 2, 1, 0, 0))[1] == len(dihedral_orbit((2, 1, 2, 1, 0, 0)))

    def test_enumeration_cap(self):
        # the class table has no cap of its own: enumeration refuses for it
        for build in (class_columns, class_table):
            with pytest.raises(ResourceLimitError):
                build(15)

    @pytest.mark.parametrize("drop", [0, -1])
    def test_lost_candidate_fails_coverage(self, drop, monkeypatch):
        # the first candidate, (0, ..., 0, n), and the last, (1, ..., 1),
        # are both canonical
        real = arrangements_module._candidate_blocks

        def lossy(n):
            blocks = list(real(n))
            codes, rcodes = blocks[drop]
            blocks[drop] = (np.delete(codes, drop), np.delete(rcodes, drop))
            return iter(blocks)

        monkeypatch.setattr(arrangements_module, "_candidate_blocks", lossy)
        # ClassTable.from_columns checks every build against Burnside's count
        with pytest.raises(ValueError, match="expected 133 codes and orbit sizes"):
            class_table(7)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_small_candidates_in_one_block(self, n):
        # all C(2n-3, n-1) + 1 candidates of n <= 8 fit in one _BLOCK
        assert len(list(arrangements_module._candidate_blocks(n))) == 1

    @pytest.mark.parametrize("n", range(1, 10))
    def test_candidates_are_each_possible_representative_once(self, n):
        # (1, ..., 1) and the arrangements with s_1 = 0 and s_n >= 1, with the
        # reversed code of each the code of its reversal
        expected = [s for s in enumerate_arrangements(n) if s[0] == 0 and s[-1] >= 1] + [(1,) * n]
        by_code = {_code(s): s for s in expected}
        blocks = list(arrangements_module._candidate_blocks(n))
        codes = np.concatenate([codes for codes, _ in blocks]).tolist()
        rcodes = np.concatenate([rcodes for _, rcodes in blocks]).tolist()
        assert sorted(codes) == sorted(by_code)
        assert rcodes == [_code(by_code[c][::-1]) for c in codes]


def _code(s):
    return sum(x * (len(s) + 1) ** (len(s) - 1 - p) for p, x in enumerate(s))


def _shift(s, a):
    """The image of s under p -> p + a (mod n)."""
    n = len(s)
    return tuple(s[(p - a) % n] for p in range(n))


class TestAffineKeys:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_units_are_half_the_units(self, n):
        units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
        got = multiplier_units(n)
        assert sorted(set(got) | {(n - u) % n or n for u in got}) == units
        assert len(got) == max(len(units) // 2, 1)

    def test_multiplier_image(self):
        assert multiplier_image((2, 1, 0, 0, 2), 2) == (2, 0, 1, 2, 0)
        assert multiplier_image((2, 1, 0, 0, 2), 1) == (2, 1, 0, 0, 2)
        with pytest.raises(ValueError):
            multiplier_image((2, 1, 0, 1), 2)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_keys_are_least_affine_images(self, n, quantum_classes):
        """Brute force over p -> u*p + a for every unit u and shift a."""
        reps = [rep for rep, _ in quantum_classes(n)]
        keys, shifts = affine_keys(n, np.array([_code(s) for s in reps], dtype=np.int64))
        units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
        for s, key, a in zip(reps, keys.tolist(), shifts.tolist()):
            least = min(_shift(multiplier_image(s, u), b) for u in units for b in range(n))
            assert key == _code(least), s
            assert least in {_shift(multiplier_image(s, u), a) for u in units}, s
            assert least == quantum_class_of(least)[0]
