"""Acceptance criteria, one test (or parametrized group) per criterion.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion
pass/fail listing.  Long-running optional checks (n = 11..14 census, n = 14
spot checks) are enabled by setting MULTIPORT_ACCEPT_LARGE=1.

Criterion 2 checks the published enhancement table with one erratum.  The
table prints 8/9 for the two nonbunching n = 4 classes, where every other
entry is the per-arrangement ratio z^2/n!.  The per-arrangement value is 8/3
(z = 8); 8/9 is the per-classical-class ratio, the summed quantum over the
summed classical probability of the partitions (2,2,0,0) and (2,1,1,0), of
whose arrangements only a third survive.  The test derives 8/3 from the
brute-force phase histogram with exact normalization, and ties the printed
8/9 to the per-classical-class ratio, so both numbers stay checked.
"""

import math
import os
from fractions import Fraction

import numpy as np
import pytest

from multiport.arrangements import (
    canonical_classical,
    dihedral_orbit,
    enumerate_arrangements,
    enumerate_quantum_classes,
)
from multiport.scattering import (
    batch_quantum_probability,
    ck_decomposition,
    exact_integer_amplitude,
    exact_quantum_probability,
    is_suppressed_exact,
    permanent_naive,
    permanent_ryser,
    quantum_probability,
    random_unitary,
    suppression_Q,
    verify_gamma_shift,
)
from multiport import statistics as st
from multiport.cli import main

RUN_LARGE = os.environ.get("MULTIPORT_ACCEPT_LARGE") == "1"

CENSUS = {
    2: (3, 2, 2, 1, 0),
    3: (10, 3, 3, 1, 0),
    4: (35, 5, 8, 5, 0),
    5: (126, 7, 16, 10, 0),
    6: (462, 11, 50, 38, 2),
    7: (1716, 15, 133, 105, 0),
    8: (6435, 22, 440, 371, 0),
    9: (24310, 30, 1387, 1201, 0),
    10: (92378, 42, 4752, 4226, 96),
    11: (352716, 56, 16159, 14575, 0),
    12: (1352078, 77, 56822, 51890, 1133),
    13: (5200300, 101, 200474, 184626, 0),
    14: (20058300, 135, 718146, 666114, 2403),
}

# Published nonsuppressed classes with their enhancement values per n.
TABLE2_CLASSES = {
    3: {(0, 0, 3), (1, 1, 1)},
    4: {(0, 0, 0, 4), (0, 2, 0, 2), (0, 1, 2, 1)},
    5: {
        (0, 0, 0, 0, 5),
        (0, 0, 1, 3, 1),
        (0, 1, 1, 0, 3),
        (0, 0, 2, 1, 2),
        (0, 1, 0, 2, 2),
        (1, 1, 1, 1, 1),
    },
    6: {
        (0, 0, 0, 0, 0, 6),
        (0, 0, 2, 0, 0, 4),
        (0, 0, 0, 1, 4, 1),
        (0, 1, 0, 1, 0, 4),
        (0, 0, 0, 3, 0, 3),
        (0, 0, 1, 0, 3, 2),
        (0, 0, 0, 2, 2, 2),
        (0, 2, 0, 2, 0, 2),
        (0, 0, 1, 1, 1, 3),
        (0, 1, 2, 0, 2, 1),
    },
}

TABLE2_VALUES = {
    3: {Fraction(6), Fraction(3, 2)},
    4: {Fraction(24), Fraction(8, 3)},  # printed as 8/9, see TABLE2_N4_ERRATUM
    5: {Fraction(120), Fraction(15, 2), Fraction(10, 3), Fraction(5, 24)},
    6: {Fraction(720), Fraction(144, 5), Fraction(36, 5)},
}

# The value printed for the nonbunching n = 4 classes, and the partitions
# whose per-classical-class ratio it is.
TABLE2_N4_ERRATUM = (Fraction(8, 9), {(2, 2, 0, 0), (2, 1, 1, 0)})


def ck_amplitude_n4(s):
    """The integer amplitude z = sum_k c_k i^k from the brute-force histogram.

    With w = i the sum is (c_0 - c_2) + (c_1 - c_3) i, computed without the
    cyclotomic path; its imaginary part must vanish.
    """
    c0, c1, c2, c3 = ck_decomposition(s).coefficients
    assert c1 == c3, f"amplitude of {s} is not real: c_k = {(c0, c1, c2, c3)}"
    return c0 - c2


def check_n4_against_oracle():
    """Derive the n = 4 table entries from the c_k oracle alone.

    Checks the corrected per-arrangement set TABLE2_VALUES[4] and that the
    printed erratum is the per-classical-class ratio of its partitions.
    """
    n = 4
    quantum, classical = {}, {}
    enhancements = set()
    for s in enumerate_arrangements(n):
        z = ck_amplitude_n4(s)
        p_class = Fraction(math.factorial(n), n**n * math.prod(map(math.factorial, s)))
        e = Fraction(z * z, math.factorial(n))
        if e:
            enhancements.add(e)
        part = canonical_classical(s).partition
        quantum[part] = quantum.get(part, 0) + e * p_class
        classical[part] = classical.get(part, 0) + p_class
    assert sum(quantum.values()) == 1, "c_k probabilities at n=4 do not sum to 1"
    assert sum(classical.values()) == 1
    assert enhancements == TABLE2_VALUES[n], (
        f"c_k oracle gives per-arrangement enhancements {sorted(enhancements)}"
    )
    printed, partitions = TABLE2_N4_ERRATUM
    ratios = {part: quantum[part] / classical[part] for part in quantum}
    assert {part for part, r in ratios.items() if r == printed} == partitions, (
        f"printed {printed} is not the per-classical-class ratio of "
        f"{sorted(partitions)}: ratios {ratios}"
    )


def report(criterion: str, ok: bool = True):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")


class TestCriterion1Table1:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_census_rows_exact(self, n):
        row = st.table1(n, exact=True)[-1]
        got = (
            row.total,
            row.classical_classes,
            row.quantum_classes,
            row.law_suppressed,
            row.anomalous_suppressed,
        )
        assert got == CENSUS[n], f"census mismatch at n={n}: {got} != {CENSUS[n]}"
        report(f"1 table1 n={n}")

    @pytest.mark.skipif(not RUN_LARGE, reason="set MULTIPORT_ACCEPT_LARGE=1")
    @pytest.mark.parametrize("n", [11, 12, 13, 14])
    def test_census_rows_large(self, n):
        row = st.table1(n, exact=True)[-1]
        got = (
            row.total,
            row.classical_classes,
            row.quantum_classes,
            row.law_suppressed,
            row.anomalous_suppressed,
        )
        assert got == CENSUS[n]
        report(f"1 table1 n={n} (optional)")


class TestCriterion2Table2:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_nonsuppressed_classes_and_values(self, n):
        rows = st.class_probability_table(n)
        alive = {r.representative: r.enhancement for r in rows if not r.suppressed_exact}
        assert set(alive) == TABLE2_CLASSES[n], (
            f"nonsuppressed class set differs from the published list at n={n}"
        )
        # every other class has exactly zero probability
        for r in rows:
            if r.representative not in TABLE2_CLASSES[n]:
                assert r.enhancement == 0 and r.suppressed_exact
        if n == 4:
            check_n4_against_oracle()
        got_values = set(alive.values())
        assert got_values == TABLE2_VALUES[n], (
            f"enhancement values at n={n}: computed {sorted(got_values)}, "
            f"expected {sorted(TABLE2_VALUES[n])}. Values are per arrangement, "
            f"z^2/n!; the table's n=4 8/9 is the per-classical-class ratio of "
            f"the same classes, whose per-arrangement value is 8/3."
        )
        report(f"2 table2 n={n}")


class TestCriterion3HomLimit:
    def test_coincident_exactly_zero(self):
        assert exact_integer_amplitude((1, 1)) == 0
        assert quantum_probability((1, 1)) < 1e-12
        report("3 HOM coincident")

    def test_bunched_pair(self):
        assert abs(quantum_probability((2, 0)) - 0.5) < 1e-12
        assert abs(quantum_probability((0, 2)) - 0.5) < 1e-12
        assert exact_quantum_probability((2, 0)) == Fraction(1, 2)
        report("3 HOM bunched")


class TestCriterion4Normalization:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_total_probability(self, n):
        total = sum(
            c.orbit_size * batch_quantum_probability(c.representative)
            for c in enumerate_quantum_classes(n)
        )
        assert abs(total - 1.0) < 1e-9, f"sum of probabilities at n={n} is {total}"
        report(f"4 normalization n={n}")


class TestCriterion5LawSoundness:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_exhaustive(self, n):
        checked = 0
        for s in enumerate_arrangements(n):
            if suppression_Q(s) != 0:
                assert is_suppressed_exact(s), f"law violated by {s}"
                checked += 1
        report(f"5 law soundness n={n} ({checked} arrangements)")


class TestCriterion6AnomalousSuppressions:
    def test_exactly_two_at_n6(self):
        anomalous = [
            c.representative
            for c in enumerate_quantum_classes(6)
            if suppression_Q(c.representative) == 0
            and is_suppressed_exact(c.representative)
        ]
        assert sorted(anomalous) == [(0, 1, 1, 2, 1, 1), (0, 1, 2, 1, 0, 2)]
        report("6 anomalous pair")

    @pytest.mark.parametrize("s", [(0, 1, 2, 1, 0, 2), (0, 1, 1, 2, 1, 1)])
    def test_ck_vectors(self, s):
        c = ck_decomposition(s)
        assert sum(c.coefficients) == 720
        assert abs(c.to_complex()) < 1e-9
        assert c.is_zero()
        report(f"6 c_k of {s}")


class TestCriterion7OracleEquivalence:
    def test_permanent_oracles_100_unitaries(self):
        rng = np.random.default_rng(1234)
        for i in range(100):
            dim = 2 + i % 6  # dimensions 2..7
            u = random_unitary(dim, rng)
            a = permanent_naive(u)
            b = permanent_ryser(u)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1e-30)
        report("7 permanent oracles (100 unitaries)")

    @pytest.mark.parametrize("n", range(1, 10))
    def test_exact_equals_brute_force(self, n):
        # every arrangement up to n = 8; at n = 9 the Q = 0 class
        # representatives, the only ones the law does not settle
        if n < 9:
            events = list(enumerate_arrangements(n))
        else:
            reps = (c.representative for c in enumerate_quantum_classes(n))
            events = [s for s in reps if suppression_Q(s) == 0]
        for s in events:
            assert exact_integer_amplitude(s) == ck_decomposition(s).as_integer(), s
        report(f"7 exact vs brute force n={n} ({len(events)} events)")


class TestCriterion8StructuralProperties:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_dihedral_invariance(self, n):
        for c in enumerate_quantum_classes(n):
            p0 = batch_quantum_probability(c.representative)
            for member in dihedral_orbit(c.representative):
                assert abs(batch_quantum_probability(member) - p0) <= 1e-10
        report(f"8 dihedral invariance n={n}")

    @pytest.mark.parametrize("n", range(1, 8))
    def test_gamma_shift(self, n):
        assert all(verify_gamma_shift(s) for s in enumerate_arrangements(n))
        report(f"8 gamma shift n={n}")

    @pytest.mark.parametrize("n", range(2, 11))
    def test_one_stray_particle_suppressed(self, n):
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                s = [0] * n
                s[a] = n - 1
                s[b] = 1
                assert is_suppressed_exact(tuple(s))
        report(f"8 (n-1,1) suppression n={n}")

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bunching_enhancement(self, n):
        assert st.enhancement((n,) + (0,) * (n - 1)) == math.factorial(n)
        report(f"8 bunching n={n}")

    @pytest.mark.parametrize("n", range(2, 11))
    def test_coincident_iff_even(self, n):
        suppressed = exact_integer_amplitude((1,) * n) == 0
        assert suppressed == (n % 2 == 0)
        report(f"8 coincident parity n={n}")


class TestCriterion9Distributions:
    def test_n8_mean_and_approximation(self):
        table = st.occupied_ports_distribution(8)
        q_mean = st.occupied_ports_mean(table, "quantum")
        c_mean = st.occupied_ports_mean(table, "classical")
        assert q_mean < c_mean
        # The estimate tracks the quantum column except where almost no or
        # almost all ports are occupied (k = 1 and k >= n-1 at this size).
        for label, _, q, a in table.rows:
            k = int(label)
            if 2 <= k <= 6:
                assert q / 2 <= a <= 2 * q, f"approximation off at k={k}: {a} vs {q}"
        report("9 n=8 occupied-ports")

    @pytest.mark.skipif(not RUN_LARGE, reason="set MULTIPORT_ACCEPT_LARGE=1")
    def test_n14_exact_zeros(self):
        # All 14 ports occupied means the coincident event, one class.
        assert exact_integer_amplitude((1,) * 14) == 0
        # 13 particles in one port: every arrangement of type (13,1).
        for i in range(14):
            for j in range(14):
                if i != j:
                    s = [0] * 14
                    s[i] = 13
                    s[j] = 1
                    assert exact_integer_amplitude(tuple(s)) == 0
        report("9 n=14 exact zeros (optional)")


class TestCriterion10Determinism:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_jobs_invariance(self, fmt, tmp_path):
        outputs = []
        for jobs in ("1", "2", "4"):
            target = tmp_path / f"t{jobs}.{fmt}"
            code = main(
                [
                    "classes",
                    "--n",
                    "6",
                    "--mode",
                    "exact",
                    "--jobs",
                    jobs,
                    "--format",
                    fmt,
                    "--output",
                    str(target),
                ]
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        report(f"10 determinism ({fmt})")

    def test_dist_jobs_invariance(self, tmp_path):
        outputs = []
        for jobs in ("1", "3"):
            target = tmp_path / f"d{jobs}.csv"
            code = main(
                [
                    "dist",
                    "--n",
                    "7",
                    "--kind",
                    "classical-classes",
                    "--jobs",
                    jobs,
                    "--output",
                    str(target),
                ]
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]
        report("10 determinism (dist)")
