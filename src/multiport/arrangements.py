"""Output arrangements and their equivalence classes.

An arrangement is a tuple of n non-negative occupation numbers summing to n:
entry j is the number of particles found in output port j+1.  Two notions of
equivalence are used throughout:

* classical: arrangements related by an arbitrary permutation of the ports
  (canonical form: occupancies sorted in non-increasing order, a partition,
  from the one enumerator partitions),
* quantum: arrangements related by a cyclic or anticyclic relabeling of the
  ports (canonical form: lexicographic minimum over the dihedral orbit).

class_columns enumerates the classes in numpy on base-(n+1) integer codes
(the code of s is sum_p s_p * (n+1)^(n-1-p), so code order is
lexicographic order), in blocks, of the only arrangements that can be
canonical: (1, ..., 1) and those with s_1 = 0 and s_n >= 1,
C(2n-3, n-1) + 1 of the C(2n-1, n).  Their codes are outer sums of two
memoized tables of composition codes (_candidate_blocks).  A code is
canonical iff it is the least of its 2n dihedral images, and the images
equal to it give the orbit size (orbit-stabilizer).  The kept codes are
sorted once.  The classes stay columns: int64 codes and orbit sizes,
which statistics.ClassTable.from_columns checks, among other things
against C(2n-1, n) arrangements and Burnside's class count
(dihedral_class_count).

No other module makes a code or reads its digits.  digit_groups is the
one digit reader, decode_codes turns codes into tuples with it, and code_Q
reads Q off a code with no digit decoded; all run in pure Python.
dihedral_orbit and quantum_class_of are the per-arrangement reference.

The dihedral group is the part u = +-1 of the affine relabelings
p -> u*p + a (mod n) of the 0-based ports, u a unit mod n.  A multiplier
p -> u*p permutes the columns k -> u*k of the Fourier matrix, whose
entries are w^(p*k), so it leaves the exact amplitude z unchanged.  A
shift p -> p + a multiplies column k by w^(a*k), hence z by
w^(a*n*(n-1)/2) = (-1)^(a*(n-1)).  affine_keys groups the codes of the
dihedral classes into affine orbits, so that one kernel call serves a whole
orbit.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from collections.abc import Iterable, Iterator, Sequence

from ._numpy import np
from .errors import EXACT_AMPLITUDE_LIMIT, InvalidArrangementError, check_size

Arrangement = tuple[int, ...]


def validate_arrangement(s: Sequence[int]) -> Arrangement:
    """Check the basic invariants and return the arrangement as a tuple.

    Raises InvalidArrangementError if the vector is empty, holds anything
    but integers (numpy integers included; operator.index decides), contains
    a negative count, or its occupancies do not sum to its length.
    """
    try:
        t = tuple(map(operator.index, s))
    except TypeError as exc:
        raise InvalidArrangementError(f"occupancies must be integers, got {s!r}") from exc
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


def count_arrangements(n: int) -> int:
    """Number of distinct arrangements of n particles over n ports."""
    if n < 1:
        raise InvalidArrangementError("n must be >= 1")
    return math.comb(2 * n - 1, n)


def compositions(total: int, parts: int) -> int:
    """Number of ways to place total particles on parts ports, C(total + parts - 1, parts - 1)."""
    if parts == 0:
        return int(total == 0)
    return math.comb(total + parts - 1, parts - 1)


def enumerate_arrangements(n: int) -> Iterator[Arrangement]:
    """Yield every arrangement exactly once, in descending lexicographic order.

    The first item is (n, 0, ..., 0) and the last is (0, ..., 0, n).  The
    order is fixed so that downstream tables are byte-stable.  By stars and
    bars: the 0-based star i at slot p of 2n - 1 has p - i bars before it,
    so it lands in port p - i, and ascending slots give descending arrangements.
    """
    if n < 1:
        raise InvalidArrangementError("n must be >= 1")
    for slots in itertools.combinations(range(2 * n - 1), n):
        a = [0] * n
        for i, p in enumerate(slots):
            a[p - i] += 1
        yield tuple(a)


def partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts of at most largest, as non-increasing tuples."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part, *rest)


def partition_count(n: int) -> int:
    """Number of partitions of n (equals the count of classical classes), counted off partitions."""
    return sum(1 for _ in partitions(n, n))


def dihedral_orbit(s: Sequence[int]) -> frozenset[Arrangement]:
    """The set of distinct arrangements reachable by the 2n cyclic and anticyclic relabelings."""
    t = validate_arrangement(s)
    return frozenset(v[k:] + v[:k] for v in (t, t[::-1]) for k in range(len(t)))


def quantum_class_of(s: Sequence[int]) -> tuple[Arrangement, int]:
    """The quantum class of one arrangement, (representative, orbit size), from its orbit."""
    orbit = dihedral_orbit(s)
    return min(orbit), len(orbit)


def dihedral_class_count(n: int) -> int:
    """Number of quantum classes of n particles, by Burnside's lemma.

    The count is the mean number of arrangements fixed by the 2n dihedral
    relabelings.  A rotation by k ports fixes the arrangements that are
    constant on its d = gcd(k, n) cycles of length n/d, i.e. compositions
    of d into d parts: C(2d - 1, d) of them.  A reflection fixes f ports
    (f = 1 for odd n; f = 2 or 0 for the n/2 vertex and n/2 edge axes of
    even n) and swaps the other ports in p = (n - f)/2 pairs.  It fixes the
    arrangements in which both ports of each pair hold the same count: t
    particles on one port of every pair and n - 2t on the fixed ports,
    summed over t.
    """
    if n < 1:
        raise InvalidArrangementError("n must be >= 1")

    def reflection(f: int) -> int:
        p = (n - f) // 2
        return sum(compositions(n - 2 * t, f) * compositions(t, p) for t in range(n // 2 + 1))

    rotations = sum(math.comb(2 * d - 1, d) for d in (math.gcd(k, n) for k in range(n)))
    if n % 2:
        reflections = n * reflection(1)
    else:
        reflections = n // 2 * (reflection(2) + reflection(0))
    return (rotations + reflections) // (2 * n)


# Arrangements are canonicalized in blocks of at most this many codes; larger
# blocks raise the peak memory of a census for little gain in speed.
_BLOCK = 4096


def _candidate_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (codes, reversed codes) of the arrangements that can be canonical.

    The least dihedral image of an arrangement with an empty port starts
    with its longest run of zeros, so it cannot end in 0: the rotation that
    moves that 0 to the front would be smaller.  The candidates are thus
    (1, ..., 1), the only arrangement without an empty port, and the
    arrangements with s_1 = 0 and s_n >= 1, s = (0, c_1, ..., c_(n-1) + 1)
    for the compositions c of n - 1 into d = n - 1 parts.  In base b = n + 1,
    s has code code(c) + 1 and reversed code (rcode(c) + b^(n-2)) * b, where
    the code of c is its base-b value with c_1 as the most significant digit
    and the reversed code is the code of c[::-1].

    c is a prefix of d - k parts and a suffix of k = d // 2 parts, so for
    each prefix sum t the codes are the outer sum of two tables of
    compositions, code(prefix) * b^k + code(suffix), and the reversed codes
    rcode(suffix) * b^(d-k) + rcode(prefix).  A table is built from its
    first part x: (x, c') has code x * b^(p-1) + code(c') and reversed code
    x + b * rcode(c').  A block gathers consecutive rows of suffixes, across
    prefix sums, up to _BLOCK codes, or holds one row of more; (1, ..., 1)
    joins the last block.  Blocks of different t interleave in code order.
    """
    b, d = n + 1, n - 1
    k = d // 2

    @functools.cache
    def table(total, parts):  # (codes, reversed codes) of the compositions of total into parts
        if parts == 0:
            return (np.zeros(int(total == 0), dtype=np.int64),) * 2
        rests = [table(total - x, parts - 1) for x in range(total + 1)]
        return (
            np.concatenate([x * b ** (parts - 1) + codes for x, (codes, _) in enumerate(rests)]),
            np.concatenate([x + b * rcodes for x, (_, rcodes) in enumerate(rests)]),
        )

    pieces = []
    for t in range(n if n > 1 else 0):
        (head, rhead), (tail, rtail) = table(t, d - k), table(d - t, k)
        rows = max(_BLOCK // max(len(tail), 1), 1)
        for lo in range(0, len(head), rows):
            codes = (head[lo : lo + rows, None] * b**k + tail).ravel() + 1
            rcodes = ((rtail * b ** (d - k) + rhead[lo : lo + rows, None]).ravel() + b ** (n - 2)) * b
            if pieces and sum(len(c) for c, _ in pieces) + len(codes) > _BLOCK:
                yield tuple(map(np.concatenate, zip(*pieces)))
                pieces = []
            pieces.append((codes, rcodes))
    ones = np.array([(b**n - 1) // n], dtype=np.int64)
    yield tuple(map(np.concatenate, zip(*pieces, (ones, ones))))


def class_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The quantum classes of n as int64 columns: codes and orbit sizes.

    Works on base-(n+1) int64 codes of the candidates of _candidate_blocks,
    block by block.  A rotation by one port maps a code c to
    (c mod b^(n-1)) * b + c div b^(n-1), with b = n + 1; n - 1 rotations of
    the code and of the reversed code give the 2n dihedral images.  A
    candidate is kept iff its code is the minimum of its images, and its
    orbit size is 2n over the number of images equal to its code
    (orbit-stabilizer).  The kept codes are sorted once, so the classes
    are ordered by representative.  statistics.ClassTable.from_columns
    checks the columns; its coverage and Burnside checks catch a canonical
    code left out of the candidates.
    """
    check_size("class enumeration", n, EXACT_AMPLITUDE_LIMIT)
    b = n + 1
    high = b ** (n - 1)
    blocks = []
    for codes, rcodes in _candidate_blocks(n):
        least = np.minimum(codes, rcodes)
        stabilizer = 1 + (rcodes == codes)
        c, r = codes, rcodes
        for _ in range(n - 1):
            c = c % high * b + c // high
            r = r % high * b + r // high
            least = np.minimum(least, np.minimum(c, r))
            stabilizer += (c == codes) + (r == codes)
        keep = least == codes
        blocks.append((codes[keep], 2 * n // stabilizer[keep]))
    codes, sizes = (np.concatenate(column) for column in zip(*blocks))
    order = np.argsort(codes)
    return codes[order], sizes[order]


def code_Q(n: int, codes: Iterable[int]) -> Iterator[int]:
    """Q = sum_p p * s_p mod n of the arrangement of each code, read off the code, in pure Python.

    With b = n + 1 = 1 (mod n), b^k = 1 + k*n (mod n^2), so the base-b code
    of an arrangement s, whose occupancies sum to n, is n * (1 - Q) mod n^2
    for Q over the 0-based ports (the same Q as over 1-based ports, since
    the s_p sum to n): Q = (1 - (code mod n^2) / n) mod n.  No digit is
    decoded.  scattering.suppression_Q is the reference on tuples.
    """
    m = n * n
    return ((1 - c % m // n) % n for c in codes)


def q0_positions(n: int, codes: Iterable[int]) -> list[int]:
    """Positions of the codes of arrangements with Q = 0, with no Q computed.

    By code_Q's derivation a code is n * (1 - Q) mod n^2, so Q = 0 (mod n)
    exactly when code mod n^2 == n mod n^2.
    """
    m = n * n
    r = n % m
    return [i for i, c in enumerate(codes) if c % m == r]


def digit_groups(n: int, codes: Sequence[int]) -> list[tuple[list[tuple[int, ...]], array]]:
    """The digits of base-(n+1) codes in [0, (n+1)^n), read in groups of up to three, in pure Python.

    Returns one (digits, values) pair per group, from the left: values[i]
    is the base-(n+1) value of the group's digits in codes[i], and
    digits[v] the tuple of the digits of group value v.  The leading group
    holds the one to three digits left over, so a code costs about n/3
    divisions.  The values are one array('I') per group, and groups of one
    width share one digits table.  ValueError unless the digits of every
    code sum to n.  This is the one reader of the digits of a code;
    decode_codes and statistics.ClassTable (the certificate of
    from_columns, and by_weight) build on it.
    """
    b, first = n + 1, n - 3 * ((n - 1) // 3)
    digits = {width: list(itertools.product(range(b), repeat=width)) for width in {first, 3}}
    totals = {width: list(map(sum, table)) for width, table in digits.items()}
    sums, groups = itertools.repeat(0), []
    for end in range(first, n + 1, 3):  # the digits end-width+1..end
        width = min(end, 3)
        # the last group needs no division, and the leading one no mod, since codes < (n+1)^n
        values = map(operator.floordiv, codes, itertools.repeat(b ** (n - end))) if end < n else codes
        if end > first:
            values = map(operator.mod, values, itertools.repeat(b**width))
        values = array("I", values)
        sums = list(map(operator.add, sums, map(totals[width].__getitem__, values)))
        groups.append((digits[width], values))
    if set(sums) - {n}:
        raise ValueError(f"expected codes of arrangements of {n}: digits summing to {n}")
    return groups


def decode_codes(n: int, codes: Sequence[int]) -> list[Arrangement]:
    """The arrangements of base-(n+1) codes, joined from their digit_groups (ValueError there), without numpy."""
    groups = (map(digits.__getitem__, values) for digits, values in digit_groups(n, codes))
    return list(functools.reduce(functools.partial(map, operator.add), groups))


def multiplier_units(n: int) -> list[int]:
    """Units u of Z/n with 1 <= u <= n/2; with the reflection u = -1 they give all phi(n)."""
    return [u for u in range(1, max(n // 2, 1) + 1) if math.gcd(u, n) == 1]


def multiplier_image(s: Sequence[int], u: int) -> Arrangement:
    """Relabel the 0-based ports p -> u*p mod n: port u*p of the image holds s[p]."""
    t = validate_arrangement(s)
    n = len(t)
    if math.gcd(u, n) != 1:
        raise ValueError(f"multiplier {u} is not a unit mod {n}")
    image = [0] * n
    for p, x in enumerate(t):
        image[u * p % n] = x
    return tuple(image)


def affine_keys(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine-canonical code of each dihedral class of n, and the shift that reaches it.

    codes is an int64 array of base-(n+1) codes of dihedral
    representatives, as class_columns gives them, whose digits are read
    here.  The images of s under p -> u*p + a, u a unit mod n, are the 2n
    dihedral images of multiplier_image(s, u) for u in multiplier_units(n).
    A representative is the least of its own dihedral images, those of
    u = 1, so keys start as the codes themselves with shift 0, and only the
    units u != 1 are tried.  In the codes of class_columns, the multiplier
    image of s has code sum_p s_p * (n+1)^(n-1 - u*p mod n) and its reversal
    maps p to n-1 - u*p; each code rotation then adds -1 to the shift a.
    keys[i] is the least image code of codes[i], and shifts[i] is a mod n
    for one affine map that attains it.  Codes with equal keys form one
    affine orbit, and the key is the code of its least member, itself a
    dihedral representative, which keeps shift 0.
    """
    b = n + 1
    high = b ** (n - 1)
    places = b ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits = codes[:, None] // places % b
    keys = codes.copy()
    shifts = np.zeros(len(codes), dtype=np.int64)
    for u in multiplier_units(n)[1:]:
        image = u * np.arange(n) % n
        code = digits @ places[image]
        rcode = digits @ places[n - 1 - image]
        for r in range(n):
            for c, shift in ((code, -r % n), (rcode, (n - 1 - r) % n)):
                better = c < keys
                keys = np.where(better, c, keys)
                shifts = np.where(better, shift, shifts)
            code = code % high * b + code // high
            rcode = rcode % high * b + rcode // high
    return keys, shifts
