#!/usr/bin/env python3
"""Tour of the five generator families.

Builds each family, prints a few representative matrices, and checks the
basic structural facts: tracelessness, purely imaginary entries, linear
independence, and the Clifford relations of the gamma family.
"""

import numpy as np

from oscsym import build_generator_set, gamma_matrices, anticommutator

np.set_printoptions(precision=3, suppress=True, linewidth=100)


def show(title, matrix):
    print(f"\n{title}:")
    print(np.array2string(matrix, separator=" "))


print("=" * 70)
print("Gamma matrices in the purely imaginary (Majorana) basis")
print("=" * 70)

g = gamma_matrices()
for name in ("g1", "g2", "g3", "g0", "g5"):
    show(name, g[name])

print("\nClifford relations {g_mu, g_nu} = 2 diag(+,-,-,-) I:")
metric = np.diag([1.0, -1.0, -1.0, -1.0])
order = ("g0", "g1", "g2", "g3")
worst = 0.0
for mu, a in enumerate(order):
    for nu, b in enumerate(order):
        r = anticommutator(g[a], g[b]) - 2 * metric[mu, nu] * np.eye(4)
        worst = max(worst, np.abs(r).max())
print(f"  worst residual: {worst:.2e}")
print(f"  g5 anticommutes with each g_mu: "
      f"{max(np.abs(anticommutator(g['g5'], g[m])).max() for m in order):.2e}")

print()
print("=" * 70)
print("The five families: counts, dimensions, structural checks")
print("=" * 70)
for family in ("dirac_gamma", "sp4_4", "sl4r_4", "o32_5", "o33_6"):
    gens = build_generator_set(family)
    trace = max(abs(np.trace(m)) for m in gens.members.values())
    realpart = max(np.abs(m.real).max() for m in gens.members.values())
    print(f"\n{family}: {len(gens)} members of dimension {gens.dim}")
    print(f"  max |trace|      = {trace:.2e}")
    print(f"  max |real part|  = {realpart:.2e}")
    rank = np.linalg.matrix_rank(gens.stack())
    print(f"  rank of stack    = {rank} (independent: {rank == len(gens)})")

print()
print("=" * 70)
print("Selected members")
print("=" * 70)
sp4 = build_generator_set("sp4_4")
show("sp4_4 L3 (counter-rotating the two oscillator planes)", sp4["L3"])
show("sp4_4 K3 (two-mode squeeze, couples the oscillators)", sp4["K3"])
sl4r = build_generator_set("sl4r_4")
show("sl4r_4 G3 (reciprocal radial scaling, non-canonical)", sl4r["G3"])
o33 = build_generator_set("o33_6")
show("o33_6 L3 (rotation in the x-y plane)", o33["L3"])
show("o33_6 G3 (boost pairing the z axis with the third time axis)", o33["G3"])

print("\nantisymmetric members of sl4r_4 (the six rotations):",
      sorted(l for l, m in sl4r.members.items() if np.abs(m + m.T).max() < 1e-14))
print("symmetric members (the nine squeezes):",
      sorted(l for l, m in sl4r.members.items() if np.abs(m - m.T).max() < 1e-14))
