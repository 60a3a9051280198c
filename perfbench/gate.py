"""Correctness gate: each check takes one operation's output and returns
a list of problems (empty when the output is right).

The expected values are the paper's published census and identities that
hold exactly (probabilities sum to one; a law-certified class has a zero
amplitude), so the gate does not depend on the program under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

# n: (n_total, n_class, n_quantum, n_law, n_supp), as published.
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
}

SUM_TOLERANCE = 1e-9
KERNEL_RELATIVE_TOLERANCE = 1e-9
UNIT_ROUNDOFF = 2.0**-53


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _partition_count(n: int) -> int:
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def suppression_q(s) -> int:
    """Port-assignment sum mod n; nonzero certifies a zero amplitude."""
    return sum(j * x for j, x in enumerate(s, start=1)) % len(s)


def check_table1(text: str, n_max: int) -> list[str]:
    """table1 CSV: one row per n = 2..n_max, equal to the published census."""
    problems = []
    try:
        rows = _csv_rows(text)
        got = {int(r["n"]): tuple(int(r[k]) for k in ("n_total", "n_class", "n_quantum", "n_law", "n_supp"))
               for r in rows}
    except (KeyError, ValueError) as exc:
        return [f"table1 output does not parse: {exc!r}"]
    if sorted(got) != list(range(2, n_max + 1)) or len(rows) != n_max - 1:
        problems.append(f"table1 rows for n = {sorted(got)}, expected 2..{n_max}")
    for n, row in got.items():
        if CENSUS.get(n) != row:
            problems.append(f"table1 n={n}: {row} != published {CENSUS.get(n)}")
    return problems


def check_classes_exact(text: str, n: int) -> list[str]:
    """classes --mode exact CSV: census counts and exact normalisation."""
    try:
        rows = _csv_rows(text)
        parsed = [
            (
                int(r["orbit_size"]),
                int(r["Q"]),
                r["suppressed_exact"] == "true",
                Fraction(int(r["p_classical_num"]), int(r["p_classical_den"])),
                Fraction(r["enhancement"]),
            )
            for r in rows
        ]
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return [f"classes output does not parse: {exc!r}"]
    total, _, n_quantum, n_law, n_supp = CENSUS[n]
    problems = []
    if len(parsed) != n_quantum:
        problems.append(f"{len(parsed)} rows, expected {n_quantum}")
    law = sum(1 for _, q, _, _, _ in parsed if q != 0)
    law_zero = sum(1 for _, q, z, _, _ in parsed if q != 0 and z)
    anomalous = sum(1 for _, q, z, _, _ in parsed if q == 0 and z)
    if (law, law_zero, anomalous) != (n_law, n_law, n_supp):
        problems.append(
            f"law {law} (zero {law_zero}) + anomalous {anomalous}, expected {n_law} + {n_supp}"
        )
    if sum(o for o, *_ in parsed) != total:
        problems.append("orbit sizes do not cover every arrangement")
    if sum(o * pc for o, _, _, pc, _ in parsed) != 1:
        problems.append("classical probabilities do not sum to 1 exactly")
    p_quantum = sum(o * e * pc for o, _, _, pc, e in parsed)
    if p_quantum != 1:
        problems.append(f"sum of orbit * enhancement * p_classical = {p_quantum}, not 1")
    return problems


def _columns_sum_to_one(rows: list[dict], columns, label: str) -> list[str]:
    problems = []
    for col in columns:
        total = math.fsum(float(r[col]) for r in rows)
        if abs(total - 1.0) > SUM_TOLERANCE:
            problems.append(f"{label} {col} column sums to {total!r}")
    return problems


def check_dist(text: str, n: int, kind: str, variant: str = "marginal") -> list[str]:
    """dist CSV: expected categories; probability columns sum to 1."""
    try:
        rows = _csv_rows(text)
        values = [float(r[c]) for r in rows for c in ("classical", "quantum", "approx")]
    except (KeyError, ValueError) as exc:
        return [f"dist {kind} output does not parse: {exc!r}"]
    expected = {"occupied-ports": n, "port-occupancy": n + 1, "classical-classes": _partition_count(n)}[kind]
    label = f"{kind}/{variant}"
    problems = []
    if len(rows) != expected:
        problems.append(f"{label}: {len(rows)} rows, expected {expected}")
    if any(not 0.0 <= v <= 1.0 + SUM_TOLERANCE for v in values):
        problems.append(f"{label}: a probability lies outside [0, 1]")
    if kind == "port-occupancy" and variant == "at-least-one":
        # Every arrangement has some port holding exactly k for at least one k.
        for col in ("classical", "quantum", "approx"):
            if math.fsum(float(r[col]) for r in rows) < 1.0 - SUM_TOLERANCE:
                problems.append(f"{label} {col} column sums below 1")
    else:
        problems += _columns_sum_to_one(rows, ("classical", "quantum", "approx"), label)
    return problems


def check_classes_json(text: str, n: int) -> list[str]:
    """classes --format json (float mode): one row per class, sums to 1."""
    try:
        doc = json.loads(text)
        rows = doc["rows"]
        pc = sum(r["orbit_size"] * Fraction(r["p_classical_num"], r["p_classical_den"]) for r in rows)
        pq = math.fsum(r["orbit_size"] * r["p_quantum"] for r in rows)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return [f"classes json output does not parse: {exc!r}"]
    problems = []
    if doc.get("n") != n or len(rows) != CENSUS[n][2]:
        problems.append(f"classes json: n={doc.get('n')}, {len(rows)} rows, expected {CENSUS[n][2]}")
    if pc != 1:
        problems.append("classes json: classical probabilities do not sum to 1 exactly")
    if abs(pq - 1.0) > SUM_TOLERANCE:
        problems.append(f"classes json: quantum probabilities sum to {pq!r}")
    return problems


@lru_cache(maxsize=2)
def _abs_subset_sums(n: int):
    """|sum over k in S of U[r, k]| for every row r and column subset S of
    the n-port Fourier matrix U, as an (n, 2^n) array."""
    import numpy as np

    idx = np.arange(1 << n)
    bits = ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64)
    u = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / math.sqrt(n)
    return np.abs(bits @ u.T).T


def ryser_condition(s, z: int) -> float:
    """Condition number of Ryser's sum for the permanent of class s, whose
    unnormalised value is z: the sum of the absolute values of its terms
    over the absolute value of the permanent (inf when z = 0).

    A float evaluation of that sum is accurate to about kappa times the unit
    roundoff and no better.  kappa is 1e1..1e3 for typical n = 14 classes
    but 5.5e6 for the fully bunched class, whose terms +-|S|^n cancel.
    """
    import numpy as np

    n = len(s)
    rows = [j for j, x in enumerate(s) for _ in range(x)]
    terms = float(np.prod(_abs_subset_sums(n)[rows], axis=0).sum())
    return terms * n ** (n / 2) / abs(z) if z else math.inf


def check_kernel(text: str, sample: list[list[int]]) -> list[str]:
    """Kernel records: the float path agrees with z^2 / (n^n prod s!) to a
    relative 1e-9, or to what the conditioning of its Ryser sum allows where
    that is wider; a law-certified class has z = 0; and z of the bunched
    class is n!."""
    try:
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        got = [(tuple(r["s"]), int(r["z"]), float(r["p"])) for r in records]
    except (KeyError, ValueError, TypeError) as exc:
        return [f"kernel output does not parse: {exc!r}"]
    if [list(s) for s, _, _ in got] != sample:
        return [f"kernel output covers {len(got)} classes, not the {len(sample)} sampled"]
    problems = []
    for s, z, p in got:
        n = len(s)
        denom = n**n * math.prod(math.factorial(x) for x in s)
        if suppression_q(s) != 0 and z != 0:
            problems.append(f"{s}: Q != 0 but z = {z}")
        if s == (n,) + (0,) * (n - 1) and z != math.factorial(n):
            problems.append(f"{s}: z = {z}, expected {n}! = {math.factorial(n)}")
        if z == 0:
            # A zero has no relative scale: use the bunching probability
            # n!/n^n, the scale of the package's own float zero threshold.
            if p > KERNEL_RELATIVE_TOLERANCE * math.factorial(n) / n**n:
                problems.append(f"{s}: z = 0 but float p = {p!r}")
        else:
            # Rounding in the float path's Ryser sum grows with its condition
            # number; 6n u kappa bounds it on p = |permanent|^2 / prod s!.
            exact = z * z / denom
            rel = max(KERNEL_RELATIVE_TOLERANCE, 6 * n * UNIT_ROUNDOFF * ryser_condition(s, z))
            if abs(p - exact) > rel * exact:
                problems.append(f"{s}: float p = {p!r}, z^2/denominator = {exact!r}, tolerance {rel:.2g}")
    return problems
