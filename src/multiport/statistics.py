"""Aggregate observables over all output arrangements.

Everything here is a deterministic reduction over the quantum equivalence
classes: per-class probabilities weighted by orbit size.  class_table is
the one place they are computed, serially: a ClassTable holds the classes
as columns, enumeration's codes and orbit sizes (arrangements.class_columns)
and the exact integer amplitude z at the Q = 0 positions only.
ClassTable.from_columns is its one constructor, for a table built here or
read from a cache alike, and ClassTable.columns its inverse, the dict
{"codes": [...], "orbit_sizes": [...], "z": [...]} of lists of ints.
from_columns raises ValueError unless the columns are exactly those three
lists of ints, dihedral_class_count(n) strictly ascending codes below
(n+1)^n, as many positive orbit sizes summing to C(2n-1, n), and one z
per Q = 0 code (arrangements.q0_positions), and unless the digits of each
Q = 0 code sum to n.  It then runs the one certificate,
check_normalization, on the Q = 0 classes: their orbit-weighted
z^2/(n^n * prod s_j!) must sum to exactly 1, prod s_j! read off the
digits of their codes (arrangements.digit_groups), or CertificateError.
So every table that exists has been certified before it is stored,
counted, decoded or rendered, and no consumer checks it again.  The
digits of the Q != 0 codes are read only by what decodes them.  Classes
with Q != 0 are exact zeros by the zero-transmission law; the exact kernel
runs on the Q = 0 classes only, in one batched call per n on the key of
each of their affine orbits, its least member (q0_amplitudes), and only
those keys become tuples.  Codes are made and read in arrangements only.
A class row is a representative, orbit size and z, decoded
from the columns by ClassTable.rows for the rows a caller reads; every
other column is derived from z.  The classes table reads the columns
themselves, in its order (ClassTable.by_weight), with no row object; the
census (census_row) counts from the columns and decodes nothing; the
distributions' quantum columns read the rows with z != 0 (430 of 4,752
at n = 10).  Every float a table reports is one exact rational rounded
once.

A multiplier p -> u*p (u a unit mod n) permutes the columns k -> u*k of
the Fourier matrix, so z is exactly invariant, and it maps Q to u*Q, so
Q = 0 classes to Q = 0 classes.  A shift p -> p + a multiplies z by
(-1)^(a*(n-1)).  arrangements.affine_keys gives each Q = 0 class the least
code over its images under p -> u*p + a and one shift a that reaches it;
the classes sharing a key share z up to that sign, so z(s) is
(-1)^(a*(n-1)) * z(key).

distribution is the one entry point for the distributions, and
category_columns the one place their kinds are told apart: each kind is
one category map, weights, from an arrangement to (category, w) pairs.
A category depends only on the multiset of occupancies, so all three
columns are one tally through that map.  The classical column counts the
n^n maps of the n particles to the n ports and the approx column the
C(2n-1, n) arrangements, both as exact integer sums over the partitions
lambda of n (padded with zeros to n parts): lambda stands for n!/prod mult!
arrangements, mult the multiplicities of its parts, each of
n!/prod lambda_i! maps.  The partitions must cover all n^n maps and
C(2n-1, n) arrangements.  The quantum column tallies orbit * z^2 times
the maps of each row with z != 0 of a certified table.  The closed forms
of the columns (Stirling numbers, binomials and inclusion-exclusion for
occupied ports and port occupancy) are the test oracles the tally is
held to.  The kinds:

* occupied-ports: the number of occupied ports;
* port-occupancy marginal: the ports holding exactly k particles, each
  counted with weight 1/n (scale n), the occupancy law of one port;
* port-occupancy at-least-one: whether some port holds exactly k, so its
  columns do not sum to one;
* classical-classes: the partition itself.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import lt, mul

from ._numpy import np
from .arrangements import (
    Arrangement,
    affine_keys,
    class_columns,
    code_Q,
    count_arrangements,
    decode_codes,
    digit_groups,
    dihedral_class_count,
    partition_count,
    partitions,
    q0_positions,
)
from .errors import CertificateError
from .scattering import _denominator, exact_integer_amplitudes

DISTRIBUTION_KINDS = ("occupied-ports", "port-occupancy", "classical-classes")
OCCUPANCY_VARIANTS = ("marginal", "at-least-one")


def suppressed_fraction_estimate(n: int) -> float:
    """Estimated fraction of classes caught by the suppression law, 1 - 1/n.

    Follows from treating the port-assignment sums as uniform over the n
    residues; compare with the measured N_law / N_quantum ratio.
    """
    return 1.0 - 1.0 / n


def _multinomial(t: Arrangement) -> int:
    """n!/prod s_j!, the particle-to-port maps giving t; p_classical is this over n^n."""
    return math.factorial(len(t)) // math.prod(map(math.factorial, t))


class ClassProbabilityRow(namedtuple("ClassProbabilityRow", "representative orbit_size z")):
    """One quantum class: its representative, orbit size and exact amplitude z.

    The other columns are properties derived from z, recomputed on each
    access.  The representative is a validated tuple, so they do not check
    it again.
    """

    __slots__ = ()

    @property
    def suppressed_exact(self) -> bool:
        return self.z == 0

    @property
    def p_classical(self) -> Fraction:
        t = self.representative
        return Fraction(_multinomial(t), len(t) ** len(t))

    @property
    def p_quantum(self) -> float:
        """z^2/(n^n * prod s_j!) rounded once, so 0.0 exactly when suppressed."""
        return self.z * self.z / _denominator(self.representative)

    @property
    def enhancement(self) -> Fraction:
        return Fraction(self.z * self.z, math.factorial(len(self.representative)))


def _weights(groups) -> list[int]:
    """prod s_j! of each code, from its arrangements.digit_groups groups and one table of products per group width."""
    weights, tables = repeat(1), {}
    for digits, values in groups:
        if len(digits) not in tables:  # the groups of one width share one digits table
            tables[len(digits)] = [math.prod(map(math.factorial, t)) for t in digits]
        weights = list(map(mul, weights, map(tables[len(digits)].__getitem__, values)))
    return weights


class ClassTable(namedtuple("ClassTable", "n codes orbit_sizes q0 z")):
    """The quantum classes of n as columns: the one form rows are built, cached and reduced in.

    codes are the ascending base-(n+1) codes of the representatives and
    orbit_sizes their orbit sizes (arrangements.class_columns); q0 holds
    the ascending positions of the classes with Q = 0, read off the codes
    (arrangements.q0_positions), and z their exact amplitudes.  Every other
    class is an exact zero by the law.  from_columns builds every table,
    checks its columns, lists of ints, and certifies it, so a cache hit
    builds one without numpy, and rows decodes only the codes a command
    reads.
    """

    __slots__ = ()

    @classmethod
    def from_columns(cls, n: int, columns: dict) -> ClassTable:
        """The table of n with these columns, the one way to build one and the one certificate site.

        columns must hold exactly the lists codes, orbit_sizes and z of
        ints, as the module docstring says, or ValueError; q0 is read off
        the codes.  The digits of the Q = 0 codes are then read once
        (arrangements.digit_groups, ValueError unless they sum to n), and
        their prod s_j! (_weights), orbit sizes and z must pass
        check_normalization, or CertificateError.  No row is built.
        """
        if type(columns) is not dict or sorted(columns) != ["codes", "orbit_sizes", "z"]:
            raise ValueError("expected the columns codes, orbit_sizes and z")
        codes, orbits, z = columns["codes"], columns["orbit_sizes"], columns["z"]
        if {type(codes), type(orbits), type(z)} != {list}:
            raise ValueError("expected each column to be a list")
        if set(map(type, chain(codes, orbits, z))) - {int}:
            raise ValueError("expected integers only")
        count = dihedral_class_count(n)
        if (len(codes), len(orbits)) != (count, count):
            raise ValueError(f"expected {count} codes and orbit sizes")
        if sum(orbits) != count_arrangements(n) or min(orbits) < 1:
            raise ValueError(f"expected positive orbit sizes summing to {count_arrangements(n)}")
        if not (all(map(lt, codes, islice(codes, 1, None))) and 0 <= codes[0] and codes[-1] < (n + 1) ** n):
            raise ValueError(f"expected strictly ascending codes of {n} base-{n + 1} digits")
        q0 = q0_positions(n, codes)
        if len(z) != len(q0):
            raise ValueError(f"expected one z for each of the {len(q0)} classes with Q = 0")
        weights = _weights(digit_groups(n, list(map(codes.__getitem__, q0))))
        check_normalization(n, zip(map(orbits.__getitem__, q0), weights, z))
        return cls(n, codes, orbits, q0, z)

    def columns(self) -> dict:
        """The columns from_columns takes, as the cache stores them."""
        return {"codes": self.codes, "orbit_sizes": self.orbit_sizes, "z": self.z}

    def rows(self, nonzero: bool = False) -> list[ClassProbabilityRow]:
        """The classes as rows in code order: every class, or only those with z != 0.

        Decodes the codes of those rows only (arrangements.decode_codes,
        ValueError for a code that is not an arrangement of n).
        """
        codes, orbits, z = self.codes, self.orbit_sizes, self.z
        if nonzero:
            index = [i for i, zi in zip(self.q0, z) if zi]
            codes, orbits, z = [codes[i] for i in index], [orbits[i] for i in index], list(filter(None, z))
        else:
            z = [0] * len(codes)
            for i, zi in zip(self.q0, self.z):
                z[i] = zi
        return list(map(ClassProbabilityRow, decode_codes(self.n, codes), orbits, z))

    def by_weight(self, sep: str, head: str = "") -> tuple:
        """Every class of the certified table by descending prod s_j!, ties in code order.

        That is the order of the classes table: ascending classical
        probability n!/prod s_j! over n^n, ties by representative.  Returns
        the pieces of the representatives, then four iterators, all over the
        classes in that order, to be read once and in step: the orbit sizes,
        Q (arrangements.code_Q), prod s_j! and z (0 off the q0 positions).
        The pieces are one iterator per digit group, and a class's pieces
        join ("".join) to its digits joined by sep, after head.

        The digits of each code are read once, by arrangements.digit_groups
        (ValueError there, before any class is read), and prod s_j!
        (_weights, as from_columns reads it for the certificate) and the
        piece of the representative come from tables over the group values,
        built once per group width.  No representative is built here, so
        the caller joins each as it is read.
        """
        n, codes = self.n, self.codes
        groups = digit_groups(n, codes)
        weights, reps, tables = _weights(groups), [], {}
        for i, (digits, values) in enumerate(groups):
            lead = sep if i else head  # before every group but the first
            key = len(digits), lead  # the groups of one width share one digits table
            if key not in tables:
                tables[key] = [lead + sep.join(map(str, t)) for t in digits]
            reps.append((tables[key], values))
        # a stable sort, so ties stay in code order
        order = sorted(range(len(codes)), key=weights.__getitem__, reverse=True)
        z = dict(zip(self.q0, self.z))
        return (
            [map(d.__getitem__, map(v.__getitem__, order)) for d, v in reps],
            map(self.orbit_sizes.__getitem__, order),
            code_Q(n, map(codes.__getitem__, order)),
            map(weights.__getitem__, order),
            map(z.get, order, repeat(0)),
        )


def q0_amplitudes(n: int, codes: np.ndarray) -> list[int]:
    """z of the Q = 0 classes with these codes, from one batched exact-kernel call.

    affine_keys maps each class s to its orbit's key by some p -> u*p + a,
    so z(s) = (-1)^(a*(n-1)) * z(key).  The key is the least member of the
    orbit, so the kernel runs on the decoded keys, all in one
    exact_integer_amplitudes call; only they are turned into tuples.
    """
    keys, shifts = affine_keys(n, codes)
    unique, orbit = np.unique(keys, return_inverse=True)
    z = exact_integer_amplitudes(decode_codes(n, unique.tolist()))
    sign = 1 - 2 * (shifts * (n - 1) % 2)
    return [s * z[k] for s, k in zip(sign.tolist(), orbit.tolist())]


def class_table(n: int) -> ClassTable:
    """The ClassTable of n: enumeration's columns, and z on the Q = 0 classes.

    The exact kernel runs through q0_amplitudes.  Q != 0 is an exact zero
    by the zero-transmission law (Tichy et al., PRL 104, 220405);
    check_normalization certifies it, and `verify` checks it class by class.
    The table passes ClassTable.from_columns, like one read from a cache,
    so a lost or repeated class raises ValueError and a table that fails
    the certificate CertificateError, before any caller can store it.
    """
    codes, sizes = class_columns(n)
    listed = codes.tolist()
    z = q0_amplitudes(n, codes[q0_positions(n, listed)])
    return ClassTable.from_columns(n, {"codes": listed, "orbit_sizes": sizes.tolist(), "z": z})


def check_normalization(n: int, terms: Iterable[tuple[int, int, int]]) -> None:
    """Raise CertificateError unless the (orbit size, prod s_j!, z) terms carry total probability exactly 1.

    The total is the exact sum of orbit * z^2/(n^n * prod s_j!), one
    integer sum over n^n * n!.  Probabilities are non-negative, so a total
    of 1 over the classes the kernel evaluated proves every class it
    skipped an exact zero (the law the skip rests on), and it catches a
    wrong z, a wrong orbit size or a lost class, computed or read from a
    cache.  ClassTable.from_columns, its one caller, passes the terms of
    the Q = 0 classes of every table.
    """
    n_fact = math.factorial(n)
    total = Fraction(sum(orbit * (n_fact // w) * z * z for orbit, w, z in terms), n**n * n_fact)
    if total != 1:
        raise CertificateError(f"classes at n={n} carry probability {total}, not 1")


class Table1Row(
    namedtuple(
        "Table1Row",
        "n total classical_classes quantum_classes law_suppressed anomalous_suppressed",
    )
):
    """Event and class census for one n."""

    __slots__ = ()


def census_row(table: ClassTable) -> Table1Row:
    """The census of table.n, counted from the columns of the certified table; no code is decoded.

    law_suppressed counts the classes with Q != 0; anomalous_suppressed
    those with Q = 0 whose exact amplitude is nevertheless zero.
    """
    n, count = table.n, len(table.codes)
    law, anomalous = count - len(table.q0), table.z.count(0)
    return Table1Row(n, count_arrangements(n), partition_count(n), count, law, anomalous)


class DistributionTable(namedtuple("DistributionTable", "kind n rows")):
    """Labeled categories with classical, quantum, and approximate columns.

    rows holds one (label, classical, quantum, approx) tuple per category.
    """

    __slots__ = ()

    def column(self, name: str) -> list[float]:
        index = {"classical": 1, "quantum": 2, "approx": 3}[name]
        return [row[index] for row in self.rows]


def _tally(weights, terms) -> Counter:
    """Sum amount * w into category c, for each (rep, amount) of terms and each pair (c, w) of weights(rep)."""
    sums = Counter()
    for rep, amount in terms:
        for c, w in weights(rep):
            sums[c] += amount * w
    return sums


def category_columns(kind: str, n: int, variant: str = "marginal"):
    """A distribution's categories, its classical and approx numerators, and its category map.

    Returns (categories, classical, approx, scale, weights), categories in
    table order.  weights(rep) yields the (category, w) pairs of an
    arrangement rep: it counts w / scale towards each; it is the one
    definition of the kind.  classical[i] counts the maps of the n
    particles to the n ports and approx[i] the arrangements, each weighted
    by w, so the cells are classical[i] / (n^n * scale) and approx[i] /
    (C(2n-1, n) * scale).  Both are one tally over the partitions of n
    (arrangements.partitions): a partition stands for n!/prod mult!
    arrangements, each of n!/prod lambda_i! maps, and shares their
    categories.  classical-classes ascend in the classical column, ties by
    category.  ValueError for an unknown kind or variant; only
    port-occupancy has variants.  AssertionError unless the partitions
    cover n^n maps and C(2n-1, n) arrangements.
    """
    variants = OCCUPANCY_VARIANTS if kind == "port-occupancy" else ("marginal",)
    if variant not in variants:
        raise ValueError(
            f"variant {variant!r} of {kind}: expected {variants}; others are port-occupancy only"
        )
    parts = [p + (0,) * (n - len(p)) for p in partitions(n, n)]
    members = [math.factorial(n) // math.prod(map(math.factorial, Counter(p).values())) for p in parts]
    maps = list(map(mul, members, map(_multinomial, parts)))
    if (sum(maps), sum(members)) != (n**n, count_arrangements(n)):
        raise AssertionError(f"the partitions of {n} do not cover n^n maps and C(2n-1, n) arrangements")
    scale = 1
    if kind == "occupied-ports":
        categories = [(k,) for k in range(1, n + 1)]

        def weights(rep):
            return [((n - rep.count(0),), 1)]

    elif kind == "port-occupancy":
        categories, marginal = [(k,) for k in range(n + 1)], variant == "marginal"
        scale = n if marginal else 1

        def weights(rep):
            return [((k,), m if marginal else 1) for k, m in Counter(rep).items()]

    elif kind == "classical-classes":
        categories = [p for _, p in sorted(zip(maps, parts))]  # each partition is its own category

        def weights(rep):
            return [(tuple(sorted(rep, reverse=True)), 1)]

    else:
        raise ValueError(f"unknown distribution kind {kind!r}")
    classical, approx = _tally(weights, zip(parts, maps)), _tally(weights, zip(parts, members))
    return categories, [classical[c] for c in categories], [approx[c] for c in categories], scale, weights


def distribution(kind: str, table: ClassTable, variant: str = "marginal") -> DistributionTable:
    """The table of category_columns of table.n, with its quantum column tallied over table.rows(nonzero=True).

    kind is one of DISTRIBUTION_KINDS, as the module docstring defines them.
    By cyclic invariance the port-occupancy "marginal" is the occupancy law
    of any single port; the "at-least-one" columns do not sum to one.  The
    table was certified when ClassTable.from_columns built it, so it is not
    checked again.  With m = n!/prod(s_j!), the quantum column tallies
    orbit * m * z^2 by the same category map, over n^n * n! * scale.  Each
    cell of the three columns is one correctly rounded int / int division.
    """
    n = table.n
    categories, classical, approx, scale, weights = category_columns(kind, n, variant)
    terms = ((r.representative, r.orbit_size * _multinomial(r.representative) * r.z * r.z)
             for r in table.rows(nonzero=True))
    quantum = _tally(weights, terms)
    c_den, a_den = n**n * scale, count_arrangements(n) * scale
    q_den = c_den * math.factorial(n)
    table_rows = tuple(
        (",".join(map(str, cat)), c / c_den, quantum[cat] / q_den, a / a_den)
        for cat, c, a in zip(categories, classical, approx)
    )
    return DistributionTable(kind=kind, n=n, rows=table_rows)


def occupied_ports_mean(table: DistributionTable, column: str) -> float:
    """Mean number of occupied ports under one of the model columns."""
    if table.kind != "occupied-ports":
        raise ValueError("mean defined for occupied-ports tables")
    values = table.column(column)
    return sum(int(label) * p for (label, *_), p in zip(table.rows, values))
