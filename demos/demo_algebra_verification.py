#!/usr/bin/env python3
"""Verify every bracket table and local isomorphism.

Walks the commutator tables: the ten-generator table in its three matrix
realizations, the fifteen-generator extension, the four Sp(2) triples, the
entrywise equality of structure constants across dimensions (the local
isomorphisms), and the gamma-bilinear correspondence report.
"""

from oscsym import (
    SP2_TRIPLES,
    alge11_table,
    build_generator_set,
    check_isomorphism,
    commutator,
    decompose,
    o33gen_table,
    sp2_table,
    structure_table,
    table1_correspondence,
    verify_algebra,
)

print("=" * 70)
print("Ten-generator table (rotations L, S3 and squeezes K, Q)")
print("=" * 70)
for family in ("sp4_4", "o32_5"):
    rep = verify_algebra(build_generator_set(family), alge11_table(), 1e-12)
    print(" ", rep.summary())

print()
print("=" * 70)
print("Fifteen-generator table (adds S1, S2 and the G squeezes)")
print("=" * 70)
for family in ("sl4r_4", "o33_6"):
    rep = verify_algebra(build_generator_set(family), o33gen_table(), 1e-12)
    print(" ", rep.summary())

print()
print("Reading structure constants off the matrices, e.g. [G3, L1]:")
sl4r = build_generator_set("sl4r_4")
coeffs, residual = decompose(commutator(sl4r["G3"], sl4r["L1"]), sl4r)
terms = ", ".join(f"({c:.3g}) {l}" for l, c in zip(sl4r.labels, coeffs) if c)
print(f"  [G3, L1] = {terms}  (residual {residual:.1e})")

print()
print("=" * 70)
print("Local isomorphisms: equal structure constants, different dimensions")
print("=" * 70)
pairs = [("sl4r_4", "o33_6"), ("sp4_4", "o32_5")]
for fam_a, fam_b in pairs:
    rep = check_isomorphism(build_generator_set(fam_a),
                            build_generator_set(fam_b), 1e-12)
    print(" ", rep.summary())

print()
print("=" * 70)
print("Sp(2) triples: one rotation + two squeezes per single-oscillator plane")
print("=" * 70)
sp4 = build_generator_set("sp4_4")
for x, y, z in SP2_TRIPLES:
    rep = verify_algebra(sp4, sp2_table(x, y, z), 1e-12)
    print(f"  ({x}, {y}, {z}): max residual {rep.max_residual:.2e}")

print()
print("=" * 70)
print("Gamma-bilinear recipes checked against the oscillator matrices")
print("=" * 70)
report = table1_correspondence(1e-12)
for label, entry in report.entries.items():
    extra = "" if entry.ratio is None else f"  (ratio {entry.ratio:.3g})"
    print(f"  {label}: {entry.status}{extra}")
print(f"\n  summary: {report.summary()}")
print("  L1 differs by a factor i and S2 by a sign from the printed recipes;")
print("  the matrices keep the signs required for the bracket tables above.")

print()
print("Structure table serialization (first few pairs of the ten-generator table):")
table = structure_table(sp4)
js = table.to_json()
print(" ", js[:200].replace("\n", "\n  "), "...")
