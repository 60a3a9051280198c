"""Aggregate observables over all output arrangements.

Everything here is a deterministic reduction over the quantum equivalence
classes: per-class probabilities weighted by orbit size.  A class row is
its representative, orbit size and exact integer amplitude z; every other
column is derived from z.  class_probability_table is the one place rows
are built, serially and in enumeration order.  Classes with Q != 0 are
exact zeros by the zero-transmission law; the exact kernel runs on the
Q = 0 classes only, and once per affine orbit of them (q0_amplitudes).  The
census (census_row) and the distributions are reductions over the rows,
and check_normalization certifies them.  Every float a table reports is
one exact rational rounded once.

A multiplier p -> u*p (u a unit mod n) permutes the columns k -> u*k of
the Fourier matrix, so z is exactly invariant, and it maps Q to u*Q, so
Q = 0 classes to Q = 0 classes.  A shift p -> p + a multiplies z by
(-1)^(a*(n-1)).  arrangements.affine_keys gives each Q = 0 class the least
code over its images under p -> u*p + a and one shift a that reaches it;
the classes sharing a key share z up to that sign.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ._numpy import np
from .arrangements import (
    Arrangement,
    QuantumClass,
    affine_keys,
    count_arrangements,
    enumerate_quantum_classes,
    partition_count,
)
from .scattering import _denominator, exact_integer_amplitude

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


@dataclass(frozen=True, slots=True)
class ClassProbabilityRow:
    """One quantum class: its representative, orbit size and exact amplitude z.

    The other columns are properties derived from z, recomputed on each
    access.  The representative is a validated tuple, so they do not check
    it again.
    """

    representative: Arrangement
    orbit_size: int
    z: int

    @property
    def Q(self) -> int:
        """Port-assignment sum mod n; nonzero certifies z = 0 (the law)."""
        t = self.representative
        return sum(j * x for j, x in enumerate(t, start=1)) % len(t)

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


# Q is computed over this many classes at a time, so that the n = 14 census
# holds no int array over all 718,146 classes beside the classes themselves.
_Q_CHUNK = 1 << 16


def _q0_classes(classes: Sequence[QuantumClass]) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the classes with Q = sum_p p * s_p = 0 (mod n), and their occupancies.

    Q is computed in numpy from the representatives, which enumeration
    has already validated; rows, which carry representatives too, are
    filtered the same way.
    """
    n = len(classes[0].representative)
    weights = np.arange(n, dtype=np.int16)
    index, digits = [], []
    for i in range(0, len(classes), _Q_CHUNK):
        part = classes[i : i + _Q_CHUNK]
        flat = itertools.chain.from_iterable(c.representative for c in part)
        # int16 holds every occupancy and every sum_p p * s_p up to n = 181
        d = np.fromiter(flat, dtype=np.int16, count=len(part) * n).reshape(-1, n)
        zero = d @ weights % n == 0
        index.append(np.flatnonzero(zero) + i)
        digits.append(d[zero])
    return np.concatenate(index), np.concatenate(digits)


def q0_amplitudes(classes: Sequence[QuantumClass]) -> tuple[list[int], list[int]]:
    """Positions of the Q = 0 classes and their z, one exact-kernel call per affine orbit.

    affine_keys maps each class s to its orbit's key by some p -> u*p + a,
    so z(s) = (-1)^(a*(n-1)) * z(key): members share the z of the first
    member of their orbit up to the ratio of their signs.  The kernel runs
    on those first members.
    """
    index, digits = _q0_classes(classes)
    n = digits.shape[1]
    keys, shifts = affine_keys(digits)
    _, first, orbit = np.unique(keys, return_index=True, return_inverse=True)
    z = [exact_integer_amplitude(classes[i].representative) for i in index[first].tolist()]
    sign = 1 - 2 * (shifts * (n - 1) % 2)
    relative = (sign * sign[first][orbit]).tolist()
    return index.tolist(), [s * z[k] for s, k in zip(relative, orbit.tolist())]


def class_probability_table(n: int) -> list[ClassProbabilityRow]:
    """One row per quantum class, in enumeration order.

    The exact kernel runs through q0_amplitudes.  Q != 0 is an exact zero
    by the zero-transmission law (Tichy et al., PRL 104, 220405);
    check_normalization certifies it, and `verify` checks it class by class.
    """
    classes = enumerate_quantum_classes(n)
    z = [0] * len(classes)
    for i, zi in zip(*q0_amplitudes(classes)):
        z[i] = zi
    return [ClassProbabilityRow(c.representative, c.orbit_size, zi) for c, zi in zip(classes, z)]


def total_probability(n: int, rows: Iterable[ClassProbabilityRow]) -> Fraction:
    """Exact sum of orbit * z^2/(n^n * prod s_j!) over rows, one integer sum.

    Rows with z = 0 add nothing and are skipped, so the sum costs one term
    per nonzero class.
    """
    weight = sum(r.orbit_size * _multinomial(r.representative) * r.z * r.z for r in rows if r.z)
    return Fraction(weight, n**n * math.factorial(n))


def check_normalization(n: int, rows: Iterable[ClassProbabilityRow]) -> None:
    """Raise ArithmeticError unless the rows carry total probability exactly 1.

    Probabilities are non-negative, so a total of 1 over the rows the
    kernel evaluated proves every class it skipped an exact zero (the law
    the skip rests on), and it catches a wrong z, a wrong orbit size or a
    lost class, computed or read from a cache.
    """
    total = total_probability(n, rows)
    if total != 1:
        raise ArithmeticError(f"classes at n={n} carry probability {total}, not 1")


@dataclass(frozen=True)
class Table1Row:
    """Event and class census for one n."""

    n: int
    total: int
    classical_classes: int
    quantum_classes: int
    law_suppressed: int
    anomalous_suppressed: int


def census_row(n: int, rows: Sequence[ClassProbabilityRow]) -> Table1Row:
    """The census of n from its class rows, once they pass check_normalization.

    law_suppressed counts the classes whose representative has Q != 0;
    anomalous_suppressed those with Q = 0 whose exact amplitude is
    nevertheless zero.
    """
    check_normalization(n, rows)
    q0_index, _ = _q0_classes(rows)
    return Table1Row(
        n=n,
        total=count_arrangements(n),
        classical_classes=partition_count(n),
        quantum_classes=len(rows),
        law_suppressed=len(rows) - len(q0_index),
        anomalous_suppressed=sum(not rows[i].z for i in q0_index.tolist()),
    )


def table1(n_max: int) -> list[Table1Row]:
    """Census rows for n = 2..n_max; see census_row."""
    return [census_row(n, class_probability_table(n)) for n in range(2, n_max + 1)]


@dataclass(frozen=True)
class DistributionTable:
    """Labeled categories with classical, quantum, and approximate columns."""

    kind: str
    n: int
    rows: tuple[tuple[str, float, float, float], ...]

    def column(self, name: str) -> list[float]:
        index = {"classical": 1, "quantum": 2, "approx": 3}[name]
        return [row[index] for row in self.rows]


def _reduce(kind: str, n: int, rows, weights, categories=None, scale: int = 1) -> DistributionTable:
    """Sum the three columns over the quantum classes, per category.

    weights(rep) yields (category, w) pairs: every arrangement of the class
    counts w / scale times towards that category.  With m = n!/prod(s_j!),
    the classical column sums orbit * m * w as an integer over n^n * scale,
    the quantum column sums orbit * m * z^2 * w over n^n * n! * scale, and
    the approx column, uniform over arrangements, sums orbit * w over
    C(2n-1, n) * scale; each cell is one correctly rounded int / int
    division.  Without a fixed category list the rows ascend in the exact
    classical value.
    """
    if rows is None:
        rows = class_probability_table(n)
    classical: dict[Arrangement, int] = defaultdict(int)
    quantum: dict[Arrangement, int] = defaultdict(int)
    approx: dict[Arrangement, int] = defaultdict(int)
    for r in rows:
        weight = r.orbit_size * _multinomial(r.representative)
        z_squared = r.z * r.z
        for cat, w in weights(r.representative):
            classical[cat] += weight * w
            quantum[cat] += weight * z_squared * w
            approx[cat] += r.orbit_size * w
    if categories is None:
        categories = sorted(classical, key=lambda c: (classical[c], c))
    c_den, a_den = n**n * scale, count_arrangements(n) * scale
    q_den = c_den * math.factorial(n)
    table_rows = tuple(
        (",".join(map(str, cat)), classical[cat] / c_den, quantum[cat] / q_den, approx[cat] / a_den)
        for cat in categories
    )
    return DistributionTable(kind=kind, n=n, rows=table_rows)


def occupied_ports_distribution(
    n: int, rows: list[ClassProbabilityRow] | None = None
) -> DistributionTable:
    """Probability that exactly k of the n output ports are occupied, k = 1..n."""

    def weights(rep):
        return [((n - rep.count(0),), 1)]

    return _reduce("occupied-ports", n, rows, weights, [(k,) for k in range(1, n + 1)])


def port_occupancy_distribution(
    n: int,
    rows: list[ClassProbabilityRow] | None = None,
    variant: str = "marginal",
) -> DistributionTable:
    """Occupancy law of a uniformly chosen port, k = 0..n.

    The default "marginal" weights each arrangement by the fraction of its
    ports holding exactly k particles; by cyclic invariance this equals the
    marginal of any single port.  The "at-least-one" variant instead scores
    arrangements containing some port with exactly k particles; its columns
    do not sum to one.
    """
    if variant not in OCCUPANCY_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {OCCUPANCY_VARIANTS}")
    marginal = variant == "marginal"

    def weights(rep):
        return [((k,), m if marginal else 1) for k, m in Counter(rep).items()]

    categories = [(k,) for k in range(n + 1)]
    return _reduce("port-occupancy", n, rows, weights, categories, n if marginal else 1)


def classical_class_distribution(
    n: int, rows: list[ClassProbabilityRow] | None = None
) -> DistributionTable:
    """Event probability grouped by classical class, ascending in the classical column."""

    def weights(rep):
        return [(tuple(sorted(rep, reverse=True)), 1)]

    table = _reduce("classical-classes", n, rows, weights)
    if len(table.rows) != partition_count(n):
        raise AssertionError(
            f"expected {partition_count(n)} classical classes, found {len(table.rows)}"
        )
    return table


def distribution(
    kind: str,
    n: int,
    rows: list[ClassProbabilityRow] | None = None,
    variant: str = "marginal",
) -> DistributionTable:
    """Dispatch by kind; see the individual distribution functions.

    Only port-occupancy has variants; ValueError for any variant but
    "marginal" with another kind.
    """
    if kind == "port-occupancy":
        return port_occupancy_distribution(n, rows=rows, variant=variant)
    if kind in DISTRIBUTION_KINDS and variant != "marginal":
        raise ValueError(f"variant {variant!r} applies to port-occupancy only, not {kind}")
    if kind == "occupied-ports":
        return occupied_ports_distribution(n, rows=rows)
    if kind == "classical-classes":
        return classical_class_distribution(n, rows=rows)
    raise ValueError(f"unknown distribution kind {kind!r}")


def occupied_ports_mean(table: DistributionTable, column: str) -> float:
    """Mean number of occupied ports under one of the model columns."""
    if table.kind != "occupied-ports":
        raise ValueError("mean defined for occupied-ports tables")
    values = table.column(column)
    return sum(int(label) * p for (label, *_), p in zip(table.rows, values))
