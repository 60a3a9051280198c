import hashlib
import math
from fractions import Fraction

import pytest

import numpy as np

from multiport.arrangements import (
    affine_keys,
    code_Q,
    compositions,
    enumerate_arrangements,
    multiplier_image,
    q0_positions,
)
from multiport.scattering import (
    classical_probability,
    exact_integer_amplitude,
    exact_quantum_probability,
    suppression_Q,
)
from multiport import statistics as st
from multiport.errors import CertificateError


def _code(s):
    """The base-(n+1) code of s, s_1 the most significant digit."""
    return sum(x * (len(s) + 1) ** (len(s) - 1 - p) for p, x in enumerate(s))


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
        table = st.distribution(kind, st.class_table(n), variant=variant)
        assert {row[0]: row[3] for row in table.rows} == {
            label: float(p) for label, p in expected.items()
        }


class TestClosedForms:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_occupied_ports(self, n):
        t = st.distribution("occupied-ports", st.class_table(n))
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
        t = st.distribution("port-occupancy", st.class_table(n))
        total = math.comb(2 * n - 1, n)
        assert t.column("classical") == [
            math.comb(n, k) * (n - 1) ** (n - k) / n**n for k in range(n + 1)
        ]
        assert t.column("approx") == [
            math.comb(2 * n - k - 2, n - 2) / total for k in range(n + 1)
        ]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_at_least_one_inclusion_exclusion(self, n):
        # some port holding exactly k: inclusion-exclusion over i ports that
        # each hold exactly k; their particles are chosen in n!/(k!^i (n-ik)!)
        # ways, and the other n - ik go to the other n - i ports
        maps, arrangements = [], []
        for k in range(n + 1):
            m = a = 0
            for i in range(1, n // max(k, 1) + 1):
                sign, rest = (-1) ** (i + 1) * math.comb(n, i), n - i * k
                ways = math.factorial(n) // (math.factorial(k) ** i * math.factorial(rest))
                m += sign * ways * (n - i) ** rest
                a += sign * compositions(rest, n - i)
            maps.append(m)
            arrangements.append(a)
        _, classical, approx, scale, _ = st.category_columns("port-occupancy", n, "at-least-one")
        assert (classical, approx, scale) == (maps, arrangements, 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_classical_classes_per_partition(self, n):
        # a partition lambda holds n!/prod mult! arrangements, mult the
        # multiplicities of its parts (zeros included), each of n!/prod lambda_i! maps
        fact, expected = math.factorial, []
        for p in {tuple(sorted(s, reverse=True)) for s in enumerate_arrangements(n)}:
            members = fact(n) // math.prod(fact(p.count(x)) for x in set(p))
            expected.append((members * fact(n) // math.prod(map(fact, p)), p, members))
        categories, classical, approx, scale, _ = st.category_columns("classical-classes", n)
        assert list(zip(classical, categories, approx)) == sorted(expected)
        assert scale == 1

    @pytest.mark.parametrize("kind,variant", KINDS)
    def test_lost_partition_fails_coverage(self, kind, variant, monkeypatch):
        real = st.partitions
        monkeypatch.setattr(st, "partitions", lambda n, largest: list(real(n, largest))[1:])
        with pytest.raises(AssertionError, match="do not cover"):
            st.category_columns(kind, 6, variant)

    @pytest.mark.parametrize("kind,variant", KINDS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_numerators_equal_brute_force(self, n, kind, variant):
        # classical counts particle-to-port maps, n!/prod s_j! per
        # arrangement, and approx counts arrangements, each weighted by
        # scale times the arrangement's share of the category, the share
        # weights(s) gives it too
        categories, classical, approx, scale, weights = st.category_columns(kind, n, variant)
        expected = {}
        for s in enumerate_arrangements(n):
            maps = math.factorial(n) // math.prod(math.factorial(x) for x in s)
            shares = {",".join(map(str, cat)): Fraction(w, scale) for cat, w in weights(s)}
            assert shares == dict(_categories(kind, variant, s)), s
            for label, share in _categories(kind, variant, s):
                c, a = expected.get(label, (0, 0))
                expected[label] = (c + maps * share * scale, a + share * scale)
        labels = [",".join(map(str, cat)) for cat in categories]
        assert dict(zip(labels, zip(classical, approx))) == {
            label: expected.get(label, (0, 0)) for label in labels
        }
        assert set(expected) <= set(labels)
        assert all(type(v) is int for v in classical + approx)


class TestNonzeroRows:
    @pytest.mark.parametrize("kind,variant", KINDS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_tables_unchanged_without_zero_rows(self, n, kind, variant):
        # distribution tallies only the rows with z != 0; the exact tally
        # over every row, zeros included, gives the same quantum column
        table = st.class_table(n)
        rows = table.rows()
        assert len(table.rows(nonzero=True)) < len(rows) or n < 3
        categories, _, _, scale, weights = st.category_columns(kind, n, variant)
        full = dict.fromkeys(categories, Fraction(0))
        for r in rows:
            p = Fraction(r.orbit_size * r.z * r.z, n**n * math.prod(map(math.factorial, r.representative)))
            for c, w in weights(r.representative):
                full[c] += p * Fraction(w, scale)
        quantum = st.distribution(kind, table, variant=variant).column("quantum")
        assert quantum == [float(full[c]) for c in categories]


class TestDistributionCertifiesRows:
    """A table is certified when it is made, so distribution never tallies one that fails."""

    @pytest.mark.parametrize("kind,variant", KINDS)
    def test_rows_that_fail_normalization_raise(self, kind, variant):
        columns = st.class_table(6).columns()
        quantum = st.distribution(kind, st.ClassTable.from_columns(6, columns), variant=variant).column("quantum")
        assert math.isclose(sum(quantum), 1) or variant == "at-least-one"  # whose columns do not sum to one
        # every nonzero z raised by 1: the n = 6 classes then carry probability 0.994
        bumped = {**columns, "z": [zi + 1 if zi else 0 for zi in columns["z"]]}
        with pytest.raises(CertificateError, match="not 1"):
            st.distribution(kind, st.ClassTable.from_columns(6, bumped), variant=variant)

    def test_default_rows_are_checked_too(self, monkeypatch):
        # a build that fails the certificate raises in class_table itself
        real = st.exact_integer_amplitudes
        monkeypatch.setattr(st, "exact_integer_amplitudes", lambda ts: [z + 1 if z else 0 for z in real(ts)])
        with pytest.raises(CertificateError, match="n=6 .* not 1"):
            st.distribution("occupied-ports", st.class_table(6))


def _enhancement(s):
    """Quantum over classical probability of one arrangement, z^2/n!."""
    z = exact_integer_amplitude(s)
    return Fraction(z * z, math.factorial(len(s)))


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
        assert _enhancement(s) == expected

    @pytest.mark.parametrize("n", range(2, 7))
    def test_forced_by_normalization(self, n):
        total = sum(
            _enhancement(s) * classical_probability(s)
            for s in enumerate_arrangements(n)
        )
        assert total == 1

    def test_float_path_close(self):
        assert abs(_enhancement((0, 2, 0, 2)) - 8 / 3) < 1e-9

    @pytest.mark.parametrize("n", range(2, 8))
    def test_bunching_is_n_factorial(self, n):
        s = (n,) + (0,) * (n - 1)
        assert _enhancement(s) == math.factorial(n)


class TestClassProbabilityTable:
    def test_n6_exact_structure(self, census):
        rows = st.class_table(6).rows()
        assert len(rows) == census[6][2]
        assert sum(1 for r in rows if suppression_Q(r.representative) != 0) == census[6][3]
        anomalous = [r for r in rows if suppression_Q(r.representative) == 0 and r.suppressed_exact]
        assert sorted(r.representative for r in anomalous) == [
            (0, 1, 1, 2, 1, 1),
            (0, 1, 2, 1, 0, 2),
        ]

    def test_kernel_runs_only_on_q0_classes(self, monkeypatch):
        real = st.exact_integer_amplitudes
        calls = []

        def counting(ts):
            calls.append(list(ts))
            return real(calls[-1])

        monkeypatch.setattr(st, "exact_integer_amplitudes", counting)
        rows = st.class_table(8).rows()
        # one call, with one class per affine orbit of the 69 Q = 0 classes
        assert [len(c) for c in calls] == [49]
        assert all(suppression_Q(s) == 0 for s in calls[0])
        everything_through_kernel = [
            st.ClassProbabilityRow(r.representative, r.orbit_size, exact_integer_amplitude(r.representative))
            for r in rows
        ]
        assert rows == everything_through_kernel
        for r in rows:
            p = exact_quantum_probability(r.representative)
            assert r.suppressed_exact == (p == 0)
            assert r.p_classical == classical_probability(r.representative)
            assert r.p_quantum == float(p)
            assert r.enhancement == p / r.p_classical
            assert type(r.enhancement) is Fraction

    def test_n3_enhancements(self):
        rows = st.class_table(3).rows()
        table = {r.representative: r.enhancement for r in rows}
        assert table == {
            (0, 0, 3): Fraction(6),
            (1, 1, 1): Fraction(3, 2),
            (0, 1, 2): Fraction(0),
        }

    def test_n2_rows(self):
        rows = st.class_table(2).rows()
        assert len(rows) == 2
        by_rep = {r.representative: r for r in rows}
        assert by_rep[(0, 2)].p_quantum == 0.5
        assert by_rep[(1, 1)].p_quantum == 0.0
        assert by_rep[(1, 1)].suppressed_exact

    def test_exact_probabilities_sum_to_one(self):
        rows = st.class_table(7).rows()
        total = sum(
            r.orbit_size * Fraction(r.enhancement) * r.p_classical for r in rows
        )
        assert total == 1

    def test_full_n6_enhancement_census(self):
        # Nonsuppressed classes and their exact ratios; one class at 720,
        # three at 144/5, six at 36/5.
        rows = st.class_table(6).rows()
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


# n -> (Q = 0 classes, affine orbits among them = classes in the one exact-kernel call)
Q0_ORBITS = {8: (69, 49), 9: (186, 70), 10: (526, 268), 11: (1584, 320), 12: (4932, 2806)}

# n -> sha256 of the signed z column of class_table(n), its entries joined by ","
SIGNED_Z_SHA256 = {
    1: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    2: "cf3bae39dd692048a8bf961182e6a34dfd323eeb0748e162eaf055107f1cb873",
    3: "798de0c8215f02542b7ab4552e7c16d47ae546bb26a2ade5aad1935773bdac80",
    4: "0a88d4440f9ace9d81107ce81631d53dc5f6ef182edb42064bc05e86ef0a77b8",
    5: "89076bad5e4c5f3ad7e1d4cc0b04f5a025cf1538d1eb5f28a4bb19a7e7d03231",
    6: "a6972639af92f7b10b6d83403e9066f1e3a91b877495f3b9536f6e55a7e99455",
    7: "667e446b038bf0d65c88d4861575fe22ba717a5bbd5a96d751325274206d6e90",
    8: "098c34803cb473d23bd90ba1fb895d987181b9f9b95bd70921a73465a98cda43",
    9: "6f1add23a3e76f2512b26fd27383743de9c42dd46360b8dc2b084f85c6bc48e2",
    10: "3d046fcbaebc8a2d626b001e87cde24fa5f11b749b6cce63201813625b24390f",
    11: "c0856cf48de0bc20fdcd6adeaaa300617b0951299a8e24ea41ea4eb79164355f",
    12: "f0553bd7c4c949c0d1563e9fa44831dc45351e906cf00182cf8698479cc9a6b3",
}


class TestQ0Rows:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_multiplier_invariance_brute_force(self, n):
        """z(u*s) is the row's z for every Q = 0 class s and every unit u."""
        rows = st.class_table(n).rows()
        units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
        for r in rows:
            if suppression_Q(r.representative) == 0:
                for u in units:
                    assert exact_integer_amplitude(multiplier_image(r.representative, u)) == r.z

    @pytest.mark.parametrize("n", sorted(Q0_ORBITS))
    def test_orbit_counts(self, n, monkeypatch, quantum_classes):
        reps = [rep for rep, _ in quantum_classes(n)]
        real, calls = st.exact_integer_amplitudes, []

        def record(ts):
            calls.append([tuple(s) for s in ts])
            return real(calls[-1])

        monkeypatch.setattr(st, "exact_integer_amplitudes", record)
        table = st.class_table(n)
        assert len(calls) == 1
        assert (len(table.z), len(calls[0])) == Q0_ORBITS[n]
        assert table.q0 == [i for i, rep in enumerate(reps) if suppression_Q(rep) == 0]
        assert set(calls[0]) <= {reps[i] for i in table.q0}
        # each kernel input is the key of its affine orbit, reached by shift 0
        codes = np.array([_code(s) for s in calls[0]], dtype=np.int64)
        keys, shifts = affine_keys(n, codes)
        assert keys.tolist() == codes.tolist() and not shifts.any()

    @pytest.mark.parametrize("n", sorted(SIGNED_Z_SHA256))
    def test_signed_z_pinned(self, n):
        # z itself, sign included, in code order; the CI digests cover z^2 only
        z = st.class_table(n).z
        assert hashlib.sha256(",".join(map(str, z)).encode()).hexdigest() == SIGNED_Z_SHA256[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_q0_positions_from_codes(self, n):
        # every arrangement, not only the class representatives
        events = list(enumerate_arrangements(n))
        codes = list(map(_code, events))
        assert q0_positions(n, codes) == [i for i, s in enumerate(events) if suppression_Q(s) == 0]
        assert list(code_Q(n, codes)) == [suppression_Q(s) for s in events]


class TestFromColumns:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_columns_round_trip(self, n):
        table = st.class_table(n)
        assert st.ClassTable.from_columns(n, table.columns()) == table

    def test_duplicate_code_on_build_raises(self, monkeypatch):
        # a build is checked like a cache hit, so a repeated class is not returned
        real = st.class_columns

        def repeating(n):
            codes, sizes = real(n)
            codes[1] = codes[0]
            return codes, sizes

        monkeypatch.setattr(st, "class_columns", repeating)
        with pytest.raises(ValueError, match="expected strictly ascending codes of 6 base-7 digits"):
            st.class_table(6)

    @pytest.mark.parametrize("mutation", ["drop", "orbit", "z"])
    def test_certificate_catches_mutations(self, mutation):
        # each mutation passes every shape check, so only the certificate sees it
        table = st.class_table(8)
        columns = table.columns()
        assert st.ClassTable.from_columns(8, columns) == table
        orbits, z = list(table.orbit_sizes), list(table.z)
        last = max(i for i, zi in enumerate(z) if zi)  # the last Q = 0 class with z != 0
        if mutation == "drop":  # its probability dropped, as if the class were lost
            z[last] = 0
        elif mutation == "orbit":  # one arrangement moved to it from a Q != 0 class
            donor = next(i for i, size in enumerate(orbits) if i not in table.q0 and size > 1)
            orbits[donor] -= 1
            orbits[table.q0[last]] += 1
        else:
            z[last] += 1
        with pytest.raises(CertificateError, match="n=8 .* not 1"):
            st.ClassTable.from_columns(8, {**columns, "orbit_sizes": orbits, "z": z})

    def test_code_whose_digits_miss_n_raises_before_the_certificate(self):
        # 2886 is (0, 1, 1, 2, 6, 2), with Q = 0, in place of the 2850 of the
        # anomalous zero (0, 1, 1, 2, 1, 1): codes still ascending, z unchanged
        columns = st.class_table(6).columns()
        codes = columns["codes"]
        assert codes[codes.index(2850) + 1] > 2886 and 2886 % 36 == 6
        codes[codes.index(2850)] = 2886
        with pytest.raises(ValueError, match="expected codes of arrangements of 6"):
            st.ClassTable.from_columns(6, columns)

    def test_certificate_error_is_arithmetic(self):
        assert issubclass(CertificateError, ArithmeticError)


class TestTable1:
    def test_matches_census_through_n8(self, census):
        for row in (st.census_row(st.class_table(n)) for n in range(2, 9)):
            assert (
                row.total,
                row.classical_classes,
                row.quantum_classes,
                row.law_suppressed,
                row.anomalous_suppressed,
            ) == census[row.n]

    def test_census_row_requires_the_certificate(self, census, monkeypatch):
        # census_row counts from the columns and decodes no code; the table it
        # counts was certified when it was made, and one that fails is never made
        table = st.class_table(6)
        monkeypatch.setattr(st, "decode_codes", lambda n, codes: pytest.fail("census_row decoded a code"))
        assert st.census_row(table) == (6, *census[6])
        z = list(table.z)
        z[next(i for i, zi in enumerate(z) if zi)] = 0
        with pytest.raises(CertificateError, match="n=6"):
            st.census_row(st.ClassTable.from_columns(6, {**table.columns(), "z": z}))


class TestSuppressedFractionEstimate:
    def test_values(self):
        assert st.suppressed_fraction_estimate(2) == 0.5
        assert abs(st.suppressed_fraction_estimate(6) - 5 / 6) < 1e-15

    def test_close_to_measured_at_n6(self, census):
        measured = census[6][3] / census[6][2]
        assert abs(st.suppressed_fraction_estimate(6) - measured) < 0.1


class TestOccupiedPorts:
    def test_n2_columns(self):
        t = st.distribution("occupied-ports", st.class_table(2))
        classical = t.column("classical")
        quantum = t.column("quantum")
        assert classical == [0.5, 0.5]
        assert abs(quantum[0] - 1.0) < 1e-12
        assert quantum[1] < 1e-30

    @pytest.mark.parametrize("n", range(2, 9))
    def test_columns_normalized(self, n):
        t = st.distribution("occupied-ports", st.class_table(n))
        for name in ("classical", "quantum", "approx"):
            assert abs(sum(t.column(name)) - 1.0) < 1e-9

    @pytest.mark.parametrize("n", range(3, 11))
    def test_quantum_mean_below_classical(self, n):
        t = st.distribution("occupied-ports", st.class_table(n))
        assert st.occupied_ports_mean(t, "quantum") < st.occupied_ports_mean(t, "classical")


class TestPortOccupancy:
    def test_n2_quantum_marginal(self):
        t = st.distribution("port-occupancy", st.class_table(2))
        quantum = t.column("quantum")
        assert abs(quantum[0] - 0.5) < 1e-12
        assert quantum[1] < 1e-30
        assert abs(quantum[2] - 0.5) < 1e-12

    def test_n2_classical_marginal(self):
        t = st.distribution("port-occupancy", st.class_table(2))
        assert t.column("classical") == [0.25, 0.5, 0.25]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_marginal_columns_normalized(self, n):
        t = st.distribution("port-occupancy", st.class_table(n))
        for name in ("classical", "quantum", "approx"):
            assert abs(sum(t.column(name)) - 1.0) < 1e-9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_first_port_marginal(self, n):
        # Cyclic invariance: the uniform-port law equals port 1's law, and
        # both are one exact rational rounded once.
        t = st.distribution("port-occupancy", st.class_table(n))
        direct = [Fraction(0)] * (n + 1)
        for s in enumerate_arrangements(n):
            direct[s[0]] += exact_quantum_probability(s)
        assert t.column("quantum") == [float(p) for p in direct]

    def test_at_least_one_variant(self):
        t = st.distribution("port-occupancy", st.class_table(2), variant="at-least-one")
        # classical: some port empty iff bunched (prob 1/2); some port with
        # one particle iff coincident (1/2); some port with two iff bunched.
        assert t.column("classical") == [0.5, 0.5, 0.5]
        quantum = t.column("quantum")
        assert abs(quantum[0] - 1.0) < 1e-12
        assert quantum[1] < 1e-30
        assert abs(quantum[2] - 1.0) < 1e-12

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            st.distribution("port-occupancy", st.class_table(3), variant="bogus")


class TestClassicalClassDistribution:
    @pytest.mark.parametrize("n,rows", [(4, 5), (6, 11)])
    def test_row_counts(self, n, rows):
        t = st.distribution("classical-classes", st.class_table(n))
        assert len(t.rows) == rows

    def test_sorted_ascending_in_classical(self):
        t = st.distribution("classical-classes", st.class_table(6))
        classical = t.column("classical")
        assert classical == sorted(classical)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_columns_normalized(self, n):
        t = st.distribution("classical-classes", st.class_table(n))
        for name in ("classical", "quantum", "approx"):
            assert abs(sum(t.column(name)) - 1.0) < 1e-9


class TestOrbitExpansionConsistency:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_class_sweep_equals_direct_enumeration(self, n):
        t = st.distribution("occupied-ports", st.class_table(n))
        direct = [Fraction(0)] * (n + 1)
        for s in enumerate_arrangements(n):
            k = sum(1 for x in s if x > 0)
            direct[k] += exact_quantum_probability(s)
        assert t.column("quantum") == [float(p) for p in direct[1:]]


class TestDistributionDispatch:
    def test_kinds(self):
        for kind in st.DISTRIBUTION_KINDS:
            table = st.distribution(kind, st.class_table(3))
            assert table.kind == kind

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            st.distribution("bogus", st.class_table(3))

    @pytest.mark.parametrize("kind", ["occupied-ports", "classical-classes"])
    @pytest.mark.parametrize("variant", ["at-least-one", "bogus"])
    def test_variant_only_for_port_occupancy(self, kind, variant):
        with pytest.raises(ValueError, match="port-occupancy only"):
            st.distribution(kind, st.class_table(4), variant=variant)
