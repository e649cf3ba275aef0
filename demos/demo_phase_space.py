#!/usr/bin/env python3
"""Canonical vs non-canonical flows in the four-dimensional phase space.

Exponentiates generators into finite transformations, tests the symplectic
condition, follows the phase-space areas under canonical and non-canonical
flows, and maps the squeeze parameter to an effective temperature.
"""

import numpy as np

from oscsym import (
    FIFTEEN_LABELS,
    areas,
    coupling_transform,
    eta_from_temperature,
    evolve,
    gaussian_entropy,
    gaussian_purity,
    generator_to_transform,
    is_canonical,
    reduce_oscillator,
    symplectic_deviation,
    temperature_from_eta,
    thermal_state,
    vacuum_state,
    wigner_radius,
    SubVacuumError,
)

EXTENSION = ("S1", "S2", "G1", "G2", "G3")

print("=" * 70)
print("Which one-parameter flows preserve the symplectic form?")
print("=" * 70)
print(f"\n{'label':>6} {'|MJM^T - J|':>12} {'canonical':>10} {'det M':>10}")
for label in FIFTEEN_LABELS:
    theta = 0.5
    m = generator_to_transform(label, theta)
    dev = symplectic_deviation(m)
    print(f"{label:>6} {dev:>12.2e} {str(is_canonical(m)):>10} "
          f"{np.linalg.det(m):>10.6f}")
print("\nthe ten canonical flows are quantum-mechanically allowed;")
print("the five extension flows are well-defined on the Wigner function but")
print("change individual phase-space areas, which quantum mechanics forbids.")

print()
print("=" * 70)
print("Areas under the reciprocal scaling flow G3")
print("=" * 70)
print(f"\n{'eta':>5} {'A1':>10} {'A2':>10} {'A1*A2':>10} (vacuum: pi, pi, pi^2)")
for eta in (0.0, 0.25, 0.5, 1.0):
    st = evolve(vacuum_state(), generator_to_transform("G3", eta))
    a1, a2 = areas(st)
    print(f"{eta:>5} {a1:>10.5f} {a2:>10.5f} {a1 * a2:>10.5f}")
print("\none area expands while the other contracts without lower bound;")
print("their product stays pi^2.  The contracted oscillator drops below the")
print("vacuum floor, which the entropy routine reports:")
st = evolve(vacuum_state(), generator_to_transform("G3", 0.5))
try:
    gaussian_entropy(reduce_oscillator(st, 2))
except SubVacuumError as exc:
    print(f"  SubVacuumError: {exc}")

print()
print("Marginal areas vs the correlated 4-volume under a mixing squeeze (K3):")
st = evolve(vacuum_state(), generator_to_transform("K3", 0.7))
a1, a2 = areas(st)
print(f"  A1 = A2 = {a1:.4f}: both marginals grow (cross correlations),")
print(f"  A1*A2 = {a1 * a2:.4f} > pi^2 = {np.pi ** 2:.4f},")
volume = (2 * np.pi) ** 2 * np.sqrt(np.linalg.det(st.cov))
print(f"  but the 4-volume measure stays put: {volume:.4f}")

print()
print("=" * 70)
print("Coupling, partial trace, and the effective temperature")
print("=" * 70)
print(f"\n{'eta':>5} {'T':>9} {'purity':>10} {'entropy':>10} "
      f"{'S(T)':>10} {'radius':>8}")
for eta in (0.25, 0.5, 1.0, 1.5, 2.0):
    st = evolve(vacuum_state(), coupling_transform(eta))
    block = reduce_oscillator(st, 1)
    purity = gaussian_purity(block)
    entropy = gaussian_entropy(block)
    T = temperature_from_eta(eta)
    s_thermal = thermal_state(T).entropy()
    print(f"{eta:>5} {T:>9.5f} {purity:>10.6f} {entropy:>10.6f} "
          f"{s_thermal:>10.6f} {wigner_radius(T):>8.5f}")
print("\nignoring the second oscillator is indistinguishable from heating the")
print("first: the reduced state's entropy equals the thermal-equilibrium")
print("entropy at the matched temperature, and its Wigner function expands")
print("from radius 1 to 1/sqrt(tanh(1/2T)).")

T = 2.0
print(f"\nround trip at T = {T}: "
      f"T -> eta = {eta_from_temperature(T):.6f} -> "
      f"T = {temperature_from_eta(eta_from_temperature(T)):.12f}")
