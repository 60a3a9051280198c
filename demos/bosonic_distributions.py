"""Coarse-grained statistics where generic bosonic behavior emerges.

Computes the three grouped distributions for n = 8, prints them, and writes
plot-ready CSVs next to this script.  The interference-free estimate
(factorial-weighted classical probabilities, i.e. a flat law over
arrangements) tracks the quantum curve except at the extremes.

Run:  python demos/bosonic_distributions.py
CLI:  multiport dist --n 8 --kind occupied-ports
"""

import csv
from pathlib import Path

from multiport import class_table, distribution
from multiport.statistics import occupied_ports_mean

N = 8
HERE = Path(__file__).resolve().parent

classes = class_table(N)  # one exact class sweep shared by all three tables

tables = {
    "occupied_ports": distribution("occupied-ports", classes),
    "port_occupancy": distribution("port-occupancy", classes),
    "classical_classes": distribution("classical-classes", classes),
}

for name, table in tables.items():
    path = HERE / f"{name}_n{N}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category", "classical", "quantum", "approx"])
        writer.writerows(table.rows)
    print(f"wrote {path.relative_to(HERE.parent)}")

occ = tables["occupied_ports"]
print(f"\nOccupied ports, n = {N}:")
print(f"{'k':>3} {'classical':>12} {'quantum':>12} {'estimate':>12}")
for label, c, q, a in occ.rows:
    print(f"{label:>3} {c:>12.3e} {q:>12.3e} {a:>12.3e}")

qm = occupied_ports_mean(occ, "quantum")
cm = occupied_ports_mean(occ, "classical")
print(f"\nMean occupied ports: quantum {qm:.3f} vs classical {cm:.3f}.")
print("Bosons bunch: fewer ports light up than classical counting predicts,")
print("and the flat estimate reproduces the bulk of the curve while the")
print("interference-dominated extremes (k near 1 or n) fall away from it.")
