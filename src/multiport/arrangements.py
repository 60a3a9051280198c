"""Output arrangements and their equivalence classes.

An arrangement is a tuple of n non-negative occupation numbers summing to n:
entry j is the number of particles found in output port j+1.  Two notions of
equivalence are used throughout:

* classical: arrangements related by an arbitrary permutation of the ports
  (canonical form: occupancies sorted in non-increasing order, a partition),
* quantum: arrangements related by a cyclic or anticyclic relabeling of the
  ports (canonical form: lexicographic minimum over the dihedral orbit).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InvalidArrangementError, ResourceLimitError

# Refuse full enumerations beyond this many arrangements (n = 14 is ~20M).
DEFAULT_ENUMERATION_CAP = 25_000_000

Arrangement = tuple[int, ...]


def validate_arrangement(s: Sequence[int]) -> Arrangement:
    """Check the basic invariants and return the arrangement as a tuple.

    Raises InvalidArrangementError if the vector is empty, contains a
    negative count, or its occupancies do not sum to its length.
    """
    t = tuple(int(x) for x in s)
    n = len(t)
    if n == 0:
        raise InvalidArrangementError("arrangement must have at least one port")
    if any(x < 0 for x in t):
        raise InvalidArrangementError(f"negative occupancy in {t}")
    if sum(t) != n:
        raise InvalidArrangementError(
            f"occupancies of {t} sum to {sum(t)}, expected {n} (one particle per input port)"
        )
    return t


def port_assignment(s: Sequence[int]) -> tuple[int, ...]:
    """Return the sorted per-particle list of 1-based exit ports.

    Port j appears s_j times, so (2,1,0,2,0) maps to (1,1,2,4,4).
    """
    t = validate_arrangement(s)
    d = []
    for j, count in enumerate(t, start=1):
        d.extend([j] * count)
    return tuple(d)


def arrangement_from_ports(d: Sequence[int], n: int) -> Arrangement:
    """Recover the occupation vector from a port-assignment list."""
    counts = [0] * n
    for p in d:
        if not 1 <= p <= n:
            raise InvalidArrangementError(f"port label {p} outside 1..{n}")
        counts[p - 1] += 1
    return validate_arrangement(counts)


def count_arrangements(n: int) -> int:
    """Number of distinct arrangements of n particles over n ports."""
    if n < 1:
        raise InvalidArrangementError("n must be >= 1")
    return math.comb(2 * n - 1, n)


def enumerate_arrangements(n: int) -> Iterator[Arrangement]:
    """Yield every arrangement exactly once, in descending lexicographic order.

    The first item is (n, 0, ..., 0) and the last is (0, ..., 0, n).  The
    order is fixed so that downstream tables are byte-stable.
    """
    if n < 1:
        raise InvalidArrangementError("n must be >= 1")
    if n == 1:
        yield (1,)
        return
    # a[i] holds the current occupancy of port i+1; the tail beyond `pos`
    # always carries the remaining particles in its last cell.
    a = [0] * n
    a[0] = n
    while True:
        yield tuple(a)
        # Find the rightmost position (excluding the last) that can donate.
        i = n - 2
        while i >= 0 and a[i] == 0:
            i -= 1
        if i < 0:
            return
        a[i] -= 1
        # Everything right of i collapses into position i+1.
        rest = sum(a[i + 1 :]) + 1
        for k in range(i + 1, n):
            a[k] = 0
        a[i + 1] = rest


@dataclass(frozen=True)
class ClassicalClass:
    """A classical equivalence class: a partition plus its arrangement count."""

    partition: Arrangement
    member_count: int


def canonical_classical(s: Sequence[int]) -> ClassicalClass:
    """Map an arrangement to its classical class (sorted occupancies).

    member_count is the number of distinct arrangements sharing the
    partition: n! divided by the factorials of the value multiplicities
    (zeros included).
    """
    t = validate_arrangement(s)
    part = tuple(sorted(t, reverse=True))
    n = len(t)
    members = math.factorial(n)
    for mult in Counter(part).values():
        members //= math.factorial(mult)
    return ClassicalClass(partition=part, member_count=members)


def partition_count(n: int) -> int:
    """Number of partitions of n (equals the count of classical classes)."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def dihedral_transforms(s: Sequence[int]) -> Iterator[Arrangement]:
    """Yield all 2n cyclic and anticyclic relabelings of the occupancies.

    Images may repeat when the arrangement has symmetry; use
    dihedral_orbit for the distinct set.
    """
    t = validate_arrangement(s)
    n = len(t)
    rev = t[::-1]
    for shift in range(n):
        yield t[shift:] + t[:shift]
        yield rev[shift:] + rev[:shift]


def dihedral_orbit(s: Sequence[int]) -> frozenset[Arrangement]:
    """The set of distinct arrangements reachable by dihedral relabeling."""
    return frozenset(dihedral_transforms(s))


def canonical_quantum(s: Sequence[int]) -> Arrangement:
    """Lexicographically smallest member of the dihedral orbit."""
    return min(dihedral_transforms(s))


@dataclass(frozen=True)
class QuantumClass:
    """A quantum equivalence class: canonical representative and orbit size."""

    representative: Arrangement
    orbit_size: int


def quantum_class_of(s: Sequence[int]) -> QuantumClass:
    orbit = dihedral_orbit(s)
    return QuantumClass(representative=min(orbit), orbit_size=len(orbit))


def enumerate_quantum_classes(n: int) -> list[QuantumClass]:
    """One QuantumClass per dihedral orbit, ordered by representative.

    Uses a canonical-form filter over the full enumeration: an arrangement
    is kept iff it equals its own canonical form.  Orbit sizes are obtained
    from the materialized orbit, and their total is cross-checked against
    the arrangement count.
    """
    total = count_arrangements(n)
    if total > DEFAULT_ENUMERATION_CAP:
        raise ResourceLimitError(
            f"n={n} has {total} arrangements, above the cap of {DEFAULT_ENUMERATION_CAP}"
        )
    classes = []
    covered = 0
    for s in enumerate_arrangements(n):
        orbit = dihedral_orbit(s)
        if s == min(orbit):
            classes.append(QuantumClass(representative=s, orbit_size=len(orbit)))
            covered += len(orbit)
    if covered != total:
        raise AssertionError(
            f"orbit bookkeeping mismatch for n={n}: {covered} != {total}"
        )
    classes.sort(key=lambda c: c.representative)
    return classes


def enumerate_classical_classes(n: int) -> list[ClassicalClass]:
    """One ClassicalClass per partition of n, ordered by partition."""
    seen: dict[Arrangement, ClassicalClass] = {}
    for s in enumerate_arrangements(n):
        c = canonical_classical(s)
        seen.setdefault(c.partition, c)
    return [seen[p] for p in sorted(seen)]
