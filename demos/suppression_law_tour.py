"""A tour of the event-suppression law, from the two-photon dip to n = 6.

Run:  python demos/suppression_law_tour.py
"""

import math
from fractions import Fraction

from multiport import (
    ck_decomposition,
    class_table,
    dihedral_orbit,
    exact_integer_amplitude,
    port_assignment,
    quantum_probability,
    suppression_Q,
)

# ---------------------------------------------------------------------------
# The two-photon effect: both photons always leave through the same port.

print("Two ports, two photons:")
for s in [(2, 0), (1, 1), (0, 2)]:
    print(f"  P{s} = {quantum_probability(s):.6f}")

# ---------------------------------------------------------------------------
# The law: sum the port assignment; a nonzero residue mod n kills the event.

s1 = (2, 1, 2, 1, 0, 0)
s2 = (0, 1, 2, 0, 2, 1)
print("\nThe residue test at n = 6:")
for s in (s1, s2):
    d = port_assignment(s)
    q = suppression_Q(s)
    p = quantum_probability(s)
    verdict = "suppressed" if q != 0 else f"alive, P = {p:.6f}"
    print(f"  s = {s}  d = {d}  Q = {q}  ->  {verdict}")
print("  The second arrangement is a port permutation of the first, yet it")
print("  survives: only cyclic and mirror relabelings preserve the amplitude.")

# ---------------------------------------------------------------------------
# Q = 0 does not guarantee survival.  At n = 6 exactly two classes sneak
# below the law: their permutation phases still cancel.

print("\nAnomalous zeros at n = 6 (Q = 0 but exact amplitude 0):")
for r in class_table(6).rows():
    rep = r.representative
    if suppression_Q(rep) == 0 and r.z == 0:
        c = ck_decomposition(rep)
        print(f"  {rep}: orbit of {r.orbit_size}, c_k = {c.coefficients}")
        print(f"    sum c_k = {sum(c.coefficients)} = 6!, "
              f"sum c_k w^k exactly zero: {c.as_integer() == 0}")

# The c_k histogram places 6! = 720 permutation terms on the sixth roots of
# unity; for these events the weighted points balance exactly even though
# they do not form regular polygons.

# ---------------------------------------------------------------------------
# Exact amplitudes are plain integers; a few landmark values.

print("\nUnnormalized amplitudes z (probability = z^2 / (n^n * prod s_j!)):")
for s in [(3, 0, 0), (1, 1, 1), (1, 1, 1, 1, 1), (0, 2, 0, 2, 0, 2)]:
    n = len(s)
    z = exact_integer_amplitude(s)
    enh = Fraction(z * z, math.factorial(n))
    print(f"  z{s} = {z:4d}   enhancement z^2/n! = {enh}")

print("\nOrbit of the surviving n=6 event above:")
print(" ", sorted(dihedral_orbit(s2)))
