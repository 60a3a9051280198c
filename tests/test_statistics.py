import math
from fractions import Fraction

import pytest

from multiport.arrangements import enumerate_arrangements
from multiport.scattering import batch_quantum_probability, classical_probability, suppression_Q
from multiport import statistics as st


def _stirling2(n, k):
    """Stirling number of the second kind by the triangle recurrence."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def _categories(kind, variant, s):
    """(category label, weight) pairs of one arrangement, as the tables define them."""
    n = len(s)
    if kind == "occupied-ports":
        return [(str(sum(1 for x in s if x > 0)), Fraction(1))]
    if kind == "classical-classes":
        return [(",".join(str(x) for x in sorted(s, reverse=True)), Fraction(1))]
    counts = [s.count(k) for k in range(n + 1)]
    if variant == "marginal":
        return [(str(k), Fraction(c, n)) for k, c in enumerate(counts) if c]
    return [(str(k), Fraction(1)) for k, c in enumerate(counts) if c]


KINDS = [
    ("occupied-ports", "marginal"),
    ("port-occupancy", "marginal"),
    ("port-occupancy", "at-least-one"),
    ("classical-classes", "marginal"),
]


class TestApproxColumn:
    @pytest.mark.parametrize("kind,variant", KINDS)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_factorial_weighted_definition(self, n, kind, variant):
        # Weight every arrangement by prod(s_j!) times its classical
        # probability, normalize over the full enumeration, and group.
        weights = {
            s: classical_probability(s) * math.prod(math.factorial(x) for x in s)
            for s in enumerate_arrangements(n)
        }
        norm = sum(weights.values())
        expected = {}
        for s, w in weights.items():
            for label, share in _categories(kind, variant, s):
                expected[label] = expected.get(label, Fraction(0)) + w * share / norm
        table = st.distribution(kind, n, variant=variant)
        assert {row[0]: row[3] for row in table.rows} == {
            label: float(p) for label, p in expected.items()
        }


class TestClosedForms:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_occupied_ports(self, n):
        t = st.occupied_ports_distribution(n)
        total = math.comb(2 * n - 1, n)
        assert t.column("classical") == [
            math.comb(n, k) * math.factorial(k) * _stirling2(n, k) / n**n
            for k in range(1, n + 1)
        ]
        assert t.column("approx") == [
            math.comb(n, k) * math.comb(n - 1, k - 1) / total for k in range(1, n + 1)
        ]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_port_occupancy_marginal(self, n):
        t = st.port_occupancy_distribution(n)
        total = math.comb(2 * n - 1, n)
        assert t.column("classical") == [
            math.comb(n, k) * (n - 1) ** (n - k) / n**n for k in range(n + 1)
        ]
        assert t.column("approx") == [
            math.comb(2 * n - k - 2, n - 2) / total for k in range(n + 1)
        ]


class TestEnhancement:
    # The two n=4 classes come out at 8/3: any other value for them breaks
    # the exact normalization checked below.
    @pytest.mark.parametrize(
        "s,expected",
        [
            ((0, 0, 3), Fraction(6)),
            ((1, 1, 1), Fraction(3, 2)),
            ((0, 0, 0, 4), Fraction(24)),
            ((0, 2, 0, 2), Fraction(8, 3)),
            ((0, 1, 2, 1), Fraction(8, 3)),
            ((0, 0, 0, 0, 5), Fraction(120)),
            ((1, 1, 1, 1, 1), Fraction(5, 24)),
            ((0, 2, 0, 2, 0, 2), Fraction(36, 5)),
            ((0, 1, 2, 0, 2, 1), Fraction(36, 5)),
        ],
    )
    def test_exact_values(self, s, expected):
        assert st.enhancement(s) == expected

    @pytest.mark.parametrize("n", range(2, 7))
    def test_forced_by_normalization(self, n):
        total = sum(
            st.enhancement(s) * classical_probability(s)
            for s in enumerate_arrangements(n)
        )
        assert total == 1

    def test_float_path_close(self):
        assert abs(st.enhancement((0, 2, 0, 2)) - 8 / 3) < 1e-9

    @pytest.mark.parametrize("n", range(2, 8))
    def test_bunching_is_n_factorial(self, n):
        s = (n,) + (0,) * (n - 1)
        assert st.enhancement(s) == math.factorial(n)


class TestClassProbabilityTable:
    def test_n6_exact_structure(self, census):
        rows = st.class_probability_table(6)
        assert len(rows) == census[6][2]
        assert sum(1 for r in rows if r.Q != 0) == census[6][3]
        anomalous = [r for r in rows if r.Q == 0 and r.suppressed_exact]
        assert sorted(r.representative for r in anomalous) == [
            (0, 1, 1, 2, 1, 1),
            (0, 1, 2, 1, 0, 2),
        ]

    def test_kernel_runs_only_on_q0_classes(self, monkeypatch):
        real = st.exact_quantum_probability
        calls = []

        def counting(s):
            calls.append(s)
            return real(s)

        monkeypatch.setattr(st, "exact_quantum_probability", counting)
        rows = st.class_probability_table(8)
        assert len(calls) == 69
        assert all(suppression_Q(s) == 0 for s in calls)
        everything_through_kernel = []
        for r in rows:
            p = real(r.representative)
            everything_through_kernel.append(
                st.ClassProbabilityRow(
                    representative=r.representative,
                    orbit_size=r.orbit_size,
                    Q=r.Q,
                    suppressed_exact=(p == 0),
                    p_classical=r.p_classical,
                    p_quantum=float(p),
                    enhancement=p / r.p_classical,
                )
            )
        assert rows == everything_through_kernel
        assert all(type(r.enhancement) is Fraction for r in rows)

    def test_n3_enhancements(self):
        rows = st.class_probability_table(3)
        table = {r.representative: r.enhancement for r in rows}
        assert table == {
            (0, 0, 3): Fraction(6),
            (1, 1, 1): Fraction(3, 2),
            (0, 1, 2): Fraction(0),
        }

    def test_n2_rows(self):
        rows = st.class_probability_table(2)
        assert len(rows) == 2
        by_rep = {r.representative: r for r in rows}
        assert by_rep[(0, 2)].p_quantum == 0.5
        assert by_rep[(1, 1)].p_quantum == 0.0
        assert by_rep[(1, 1)].suppressed_exact

    def test_sorted_by_classical_probability(self):
        rows = st.class_probability_table(6)
        keys = [(r.p_classical, r.representative) for r in rows]
        assert keys == sorted(keys)

    def test_exact_probabilities_sum_to_one(self):
        rows = st.class_probability_table(7)
        total = sum(
            r.orbit_size * Fraction(r.enhancement) * r.p_classical for r in rows
        )
        assert total == 1

    def test_full_n6_enhancement_census(self):
        # Nonsuppressed classes and their exact ratios; one class at 720,
        # three at 144/5, six at 36/5.
        rows = st.class_probability_table(6)
        alive = sorted(
            (r.representative, r.enhancement) for r in rows if not r.suppressed_exact
        )
        assert alive == [
            ((0, 0, 0, 0, 0, 6), Fraction(720)),
            ((0, 0, 0, 1, 4, 1), Fraction(144, 5)),
            ((0, 0, 0, 2, 2, 2), Fraction(36, 5)),
            ((0, 0, 0, 3, 0, 3), Fraction(36, 5)),
            ((0, 0, 1, 0, 3, 2), Fraction(36, 5)),
            ((0, 0, 1, 1, 1, 3), Fraction(36, 5)),
            ((0, 0, 2, 0, 0, 4), Fraction(144, 5)),
            ((0, 1, 0, 1, 0, 4), Fraction(144, 5)),
            ((0, 1, 2, 0, 2, 1), Fraction(36, 5)),
            ((0, 2, 0, 2, 0, 2), Fraction(36, 5)),
        ]


class TestTable1:
    def test_matches_census_through_n8(self, census):
        rows = st.table1(8, exact=True)
        for row in rows:
            assert (
                row.total,
                row.classical_classes,
                row.quantum_classes,
                row.law_suppressed,
                row.anomalous_suppressed,
            ) == census[row.n]

    def test_float_mode_leaves_supp_unknown(self):
        rows = st.table1(4, exact=False)
        assert all(r.anomalous_suppressed is None for r in rows)
        assert [r.n for r in rows] == [2, 3, 4]


class TestSuppressedFractionEstimate:
    def test_values(self):
        assert st.suppressed_fraction_estimate(2) == 0.5
        assert abs(st.suppressed_fraction_estimate(6) - 5 / 6) < 1e-15

    def test_close_to_measured_at_n6(self, census):
        measured = census[6][3] / census[6][2]
        assert abs(st.suppressed_fraction_estimate(6) - measured) < 0.1


class TestOccupiedPorts:
    def test_n2_columns(self):
        t = st.occupied_ports_distribution(2)
        classical = t.column("classical")
        quantum = t.column("quantum")
        assert classical == [0.5, 0.5]
        assert abs(quantum[0] - 1.0) < 1e-12
        assert quantum[1] < 1e-30

    @pytest.mark.parametrize("n", range(2, 9))
    def test_columns_normalized(self, n):
        t = st.occupied_ports_distribution(n)
        for name in ("classical", "quantum", "approx"):
            assert abs(sum(t.column(name)) - 1.0) < 1e-9

    @pytest.mark.parametrize("n", range(3, 11))
    def test_quantum_mean_below_classical(self, n):
        t = st.occupied_ports_distribution(n)
        assert st.occupied_ports_mean(t, "quantum") < st.occupied_ports_mean(t, "classical")


class TestPortOccupancy:
    def test_n2_quantum_marginal(self):
        t = st.port_occupancy_distribution(2)
        quantum = t.column("quantum")
        assert abs(quantum[0] - 0.5) < 1e-12
        assert quantum[1] < 1e-30
        assert abs(quantum[2] - 0.5) < 1e-12

    def test_n2_classical_marginal(self):
        t = st.port_occupancy_distribution(2)
        assert t.column("classical") == [0.25, 0.5, 0.25]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_marginal_columns_normalized(self, n):
        t = st.port_occupancy_distribution(n)
        for name in ("classical", "quantum", "approx"):
            assert abs(sum(t.column(name)) - 1.0) < 1e-9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_first_port_marginal(self, n):
        # Cyclic invariance: the uniform-port law equals port 1's law.
        t = st.port_occupancy_distribution(n)
        direct = [0.0] * (n + 1)
        for s in enumerate_arrangements(n):
            direct[s[0]] += batch_quantum_probability(s)
        for k in range(n + 1):
            assert abs(t.column("quantum")[k] - direct[k]) < 1e-10

    def test_at_least_one_variant(self):
        t = st.port_occupancy_distribution(2, variant="at-least-one")
        # classical: some port empty iff bunched (prob 1/2); some port with
        # one particle iff coincident (1/2); some port with two iff bunched.
        assert t.column("classical") == [0.5, 0.5, 0.5]
        quantum = t.column("quantum")
        assert abs(quantum[0] - 1.0) < 1e-12
        assert quantum[1] < 1e-30
        assert abs(quantum[2] - 1.0) < 1e-12

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            st.port_occupancy_distribution(3, variant="bogus")


class TestClassicalClassDistribution:
    @pytest.mark.parametrize("n,rows", [(4, 5), (6, 11)])
    def test_row_counts(self, n, rows):
        t = st.classical_class_distribution(n)
        assert len(t.rows) == rows

    def test_sorted_ascending_in_classical(self):
        t = st.classical_class_distribution(6)
        classical = t.column("classical")
        assert classical == sorted(classical)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_columns_normalized(self, n):
        t = st.classical_class_distribution(n)
        for name in ("classical", "quantum", "approx"):
            assert abs(sum(t.column(name)) - 1.0) < 1e-9


class TestOrbitExpansionConsistency:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_class_sweep_equals_direct_enumeration(self, n):
        t = st.occupied_ports_distribution(n)
        direct = [0.0] * (n + 1)
        for s in enumerate_arrangements(n):
            k = sum(1 for x in s if x > 0)
            direct[k] += batch_quantum_probability(s)
        for k in range(1, n + 1):
            assert abs(t.column("quantum")[k - 1] - direct[k]) < 1e-9


class TestDistributionDispatch:
    def test_kinds(self):
        for kind in st.DISTRIBUTION_KINDS:
            table = st.distribution(kind, 3)
            assert table.kind == kind

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            st.distribution("bogus", 3)
