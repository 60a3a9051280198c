"""Census of output events: totals, equivalence classes, suppression counts,
and the exact enhancement table for small n.

Run:  python demos/event_census.py
CLI equivalents:  multiport table1 --n-max 8 --mode exact
                  multiport table2 --n 6
"""

from multiport import census_row, class_table, suppressed_fraction_estimate

print(f"{'n':>3} {'total':>8} {'classical':>10} {'quantum':>8} "
      f"{'by law':>7} {'anomalous':>10} {'law share':>10} {'1-1/n':>7}")
for n in range(2, 9):
    row = census_row(class_table(n))
    share = row.law_suppressed / row.quantum_classes
    print(f"{row.n:>3} {row.total:>8} {row.classical_classes:>10} "
          f"{row.quantum_classes:>8} {row.law_suppressed:>7} "
          f"{row.anomalous_suppressed:>10} {share:>10.3f} "
          f"{suppressed_fraction_estimate(row.n):>7.3f}")

print("\nMost events vanish; the survivors and their quantum/classical")
print("probability ratios for n = 6:")
for r in sorted(class_table(6).rows(nonzero=True), key=lambda r: (r.p_classical, r.representative)):
    print(f"  {r.representative}  x{r.orbit_size:<2}  enhancement {r.enhancement}")
print("\nBunching tops out at n! = 720; the coincident event is dead (n even).")
