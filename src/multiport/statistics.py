"""Aggregate observables over all output arrangements.

Everything here is a deterministic reduction over the quantum equivalence
classes: per-class probabilities weighted by orbit size.  Classical
probabilities and enhancement ratios are carried as exact fractions; the
quantum column is float on the default path and exact (z^2 over an integer
denominator) when exact mode is requested.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arrangements import (
    Arrangement,
    count_arrangements,
    enumerate_quantum_classes,
    partition_count,
    validate_arrangement,
)
from .errors import ResourceLimitError
from .scattering import (
    EXACT_AMPLITUDE_LIMIT,
    batch_quantum_probability,
    classical_probability,
    exact_quantum_probability,
    is_suppressed_exact,
    suppression_Q,
    zero_threshold,
)

FLOAT_TABLE_LIMIT = 14

DISTRIBUTION_KINDS = ("occupied-ports", "port-occupancy", "classical-classes")
OCCUPANCY_VARIANTS = ("marginal", "at-least-one")


def suppressed_fraction_estimate(n: int) -> float:
    """Estimated fraction of classes caught by the suppression law, 1 - 1/n.

    Follows from treating the port-assignment sums as uniform over the n
    residues; compare with the measured N_law / N_quantum ratio.
    """
    return 1.0 - 1.0 / n


def enhancement(s: Sequence[int], exact: bool = True) -> Fraction | float:
    """Ratio of quantum to classical probability for one arrangement."""
    t = validate_arrangement(s)
    p_class = classical_probability(t)
    if exact:
        return exact_quantum_probability(t) / p_class
    return batch_quantum_probability(t) / float(p_class)


@dataclass(frozen=True)
class ClassProbabilityRow:
    """Per-quantum-class summary used by the tables and distributions."""

    representative: Arrangement
    orbit_size: int
    Q: int
    suppressed_exact: bool | None
    p_classical: Fraction
    p_quantum: float
    enhancement: Fraction | float


def compute_class_row(
    rep: Arrangement,
    orbit_size: int,
    exact: bool,
    tolerance_scale: float | None = None,
) -> ClassProbabilityRow:
    """Evaluate one quantum class; pure, safe to run in a worker process."""
    n = len(rep)
    q = suppression_Q(rep)
    p_class = classical_probability(rep)
    if exact:
        # Q != 0 is an exact zero by the zero-transmission law (Tichy et al.,
        # PRL 104, 220405); `verify` checks the law against the kernel.
        p_exact = exact_quantum_probability(rep) if q == 0 else Fraction(0)
        return ClassProbabilityRow(
            representative=rep,
            orbit_size=orbit_size,
            Q=q,
            suppressed_exact=(p_exact == 0),
            p_classical=p_class,
            p_quantum=float(p_exact),
            enhancement=p_exact / p_class,
        )
    p_quantum = batch_quantum_probability(rep)
    threshold = zero_threshold(n) if tolerance_scale is None else zero_threshold(n, tolerance_scale)
    enh = 0.0 if p_quantum < threshold else p_quantum / float(p_class)
    return ClassProbabilityRow(
        representative=rep,
        orbit_size=orbit_size,
        Q=q,
        suppressed_exact=None,
        p_classical=p_class,
        p_quantum=p_quantum,
        enhancement=enh,
    )


def class_probability_table(
    n: int,
    exact: bool = False,
    tolerance_scale: float | None = None,
    rows: Iterable[ClassProbabilityRow] | None = None,
) -> list[ClassProbabilityRow]:
    """One row per quantum class, sorted by classical probability.

    Ties are broken by the lexicographic representative so the order never
    depends on enumeration or scheduling.  Pass precomputed rows (e.g. from
    a worker pool) to reuse them; they are then only sorted, not checked.
    """
    if rows is None:
        if exact and n > EXACT_AMPLITUDE_LIMIT:
            raise ResourceLimitError(f"exact table limited to n <= {EXACT_AMPLITUDE_LIMIT}")
        if not exact and n > FLOAT_TABLE_LIMIT:
            raise ResourceLimitError(f"float table limited to n <= {FLOAT_TABLE_LIMIT}")
        classes = enumerate_quantum_classes(n)
        rows = [
            compute_class_row(c.representative, c.orbit_size, exact, tolerance_scale)
            for c in classes
        ]
    return sorted(rows, key=lambda r: (r.p_classical, r.representative))


@dataclass(frozen=True)
class Table1Row:
    """Event and class census for one n; supp is None without exact mode."""

    n: int
    total: int
    classical_classes: int
    quantum_classes: int
    law_suppressed: int
    anomalous_suppressed: int | None


def table1(n_max: int, exact: bool = True) -> list[Table1Row]:
    """Census rows for n = 2..n_max.

    law_suppressed counts quantum classes whose representative has Q != 0;
    anomalous_suppressed counts those with Q = 0 whose exact amplitude is
    nevertheless zero, and requires exact mode.
    """
    rows = []
    for n in range(2, n_max + 1):
        classes = enumerate_quantum_classes(n)
        n_law = sum(1 for c in classes if suppression_Q(c.representative) != 0)
        n_supp = None
        if exact:
            n_supp = sum(
                1
                for c in classes
                if suppression_Q(c.representative) == 0
                and is_suppressed_exact(c.representative)
            )
        rows.append(
            Table1Row(
                n=n,
                total=count_arrangements(n),
                classical_classes=partition_count(n),
                quantum_classes=len(classes),
                law_suppressed=n_law,
                anomalous_suppressed=n_supp,
            )
        )
    return rows


@dataclass(frozen=True)
class DistributionTable:
    """Labeled categories with classical, quantum, and approximate columns."""

    kind: str
    n: int
    rows: tuple[tuple[str, float, float, float], ...]

    def column(self, name: str) -> list[float]:
        index = {"classical": 1, "quantum": 2, "approx": 3}[name]
        return [row[index] for row in self.rows]


def _reduce(
    kind: str, n: int, rows, exact: bool, weights, categories=None, scale: int = 1
) -> DistributionTable:
    """Sum the three columns over the quantum classes, per category.

    weights(rep) yields (category, w) pairs: every arrangement of the class
    counts w / scale times towards that category.  The classical column sums
    orbit * n!/prod(s_j!) * w as an integer over n^n * scale, and the approx
    column, uniform over arrangements, sums orbit * w over C(2n-1, n) * scale;
    each cell is one correctly rounded int / int division.  Without a fixed
    category list the rows ascend in the exact classical value.
    """
    rows = class_probability_table(n, exact=exact, rows=rows)
    classical: dict[Arrangement, int] = defaultdict(int)
    quantum: dict[Arrangement, float] = defaultdict(float)
    approx: dict[Arrangement, int] = defaultdict(int)
    for r in rows:
        multinomial = math.factorial(n) // math.prod(math.factorial(x) for x in r.representative)
        for cat, w in weights(r.representative):
            classical[cat] += r.orbit_size * multinomial * w
            quantum[cat] += r.orbit_size * r.p_quantum * (w / scale)
            approx[cat] += r.orbit_size * w
    if categories is None:
        categories = sorted(classical, key=lambda c: (classical[c], c))
    c_den, a_den = n**n * scale, count_arrangements(n) * scale
    table_rows = tuple(
        (",".join(map(str, cat)), classical[cat] / c_den, quantum[cat], approx[cat] / a_den)
        for cat in categories
    )
    return DistributionTable(kind=kind, n=n, rows=table_rows)


def occupied_ports_distribution(
    n: int, rows: list[ClassProbabilityRow] | None = None, exact: bool = False
) -> DistributionTable:
    """Probability that exactly k of the n output ports are occupied, k = 1..n."""

    def weights(rep):
        return [((n - rep.count(0),), 1)]

    return _reduce("occupied-ports", n, rows, exact, weights, [(k,) for k in range(1, n + 1)])


def port_occupancy_distribution(
    n: int,
    rows: list[ClassProbabilityRow] | None = None,
    exact: bool = False,
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
    return _reduce("port-occupancy", n, rows, exact, weights, categories, n if marginal else 1)


def classical_class_distribution(
    n: int, rows: list[ClassProbabilityRow] | None = None, exact: bool = False
) -> DistributionTable:
    """Event probability grouped by classical class, ascending in the classical column."""

    def weights(rep):
        return [(tuple(sorted(rep, reverse=True)), 1)]

    table = _reduce("classical-classes", n, rows, exact, weights)
    if len(table.rows) != partition_count(n):
        raise AssertionError(
            f"expected {partition_count(n)} classical classes, found {len(table.rows)}"
        )
    return table


def distribution(
    kind: str,
    n: int,
    rows: list[ClassProbabilityRow] | None = None,
    exact: bool = False,
    variant: str = "marginal",
) -> DistributionTable:
    """Dispatch by kind; see the individual distribution functions."""
    if kind == "occupied-ports":
        return occupied_ports_distribution(n, rows=rows, exact=exact)
    if kind == "port-occupancy":
        return port_occupancy_distribution(n, rows=rows, exact=exact, variant=variant)
    if kind == "classical-classes":
        return classical_class_distribution(n, rows=rows, exact=exact)
    raise ValueError(f"unknown distribution kind {kind!r}")


def occupied_ports_mean(table: DistributionTable, column: str) -> float:
    """Mean number of occupied ports under one of the model columns."""
    if table.kind != "occupied-ports":
        raise ValueError("mean defined for occupied-ports tables")
    values = table.column(column)
    return sum(int(label) * p for (label, *_), p in zip(table.rows, values))
