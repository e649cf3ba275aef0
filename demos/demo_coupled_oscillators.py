#!/usr/bin/env python3
"""The coupled-oscillator ground state and its reduced density matrix.

Shows the Fock-space side of the story: the ten quadratic generators on a
truncated two-mode space, the eigenfunction expansion of the coupled ground
state, and the reduced density matrix computed three independent ways, with
its purity and entropy.
"""

import numpy as np

from oscsym import (
    basis_state,
    dirac_tenfold,
    expansion_coefficient,
    expansion_overlap,
    gauss_hermite,
    moments,
    rho_partial_trace,
    rho_reduced,
    rho_series,
    safe_subspace_mask,
    verify_fock_commutators,
)
from oscsym.fock import psi_eta

print("=" * 70)
print("Quadratic generators on the truncated two-mode Fock space")
print("=" * 70)
nmax = 8
gens = dirac_tenfold(nmax)
vac = basis_state(nmax, 0, 0)

s3_vac = gens["S3"] @ vac
print(f"\nS3 |0,0> = {s3_vac[0].real:+.3f} |0,0>    (zero-point of both modes)")
k3_vac = gens["K3"] @ vac
idx11 = np.argmax(np.abs(k3_vac))
n1, n2 = divmod(idx11, nmax)
print(f"K3 |0,0> = {k3_vac[idx11].real:+.3f} |{n1},{n2}>  (creates a correlated pair)")

rep = verify_fock_commutators(nmax, 1e-12)
print(f"\nbracket table on the safe subspace (n1 + n2 <= {nmax - 3}): "
      f"max residual {rep.max_residual:.2e}")
mask = safe_subspace_mask(nmax)
print(f"safe subspace: {mask.sum()} of {nmax * nmax} basis states")

gens4 = dirac_tenfold(4)
r = gens4["K1"] @ gens4["Q1"] - gens4["Q1"] @ gens4["K1"] + 1j * gens4["S3"]
print(f"same bracket unrestricted at nmax = 4: residual {np.abs(r).max():.1f} "
      "(truncation edge)")

print()
print("=" * 70)
print("Eigenfunction expansion of the coupled ground state")
print("=" * 70)
print("\noverlap <phi_k phi_k | psi_eta> vs closed form tanh^k(eta)/cosh(eta):")
print(f"{'eta':>5} {'k':>3} {'quadrature':>14} {'closed form':>14} {'gap':>10}")
for eta in (0.3, 0.8):
    for k in range(5):
        quad = expansion_overlap(eta, k)
        closed = expansion_coefficient(eta, k)
        print(f"{eta:>5} {k:>3} {quad:>14.10f} {closed:>14.10f} "
              f"{abs(quad - closed):>10.1e}")

x, w = gauss_hermite(128)
print("\nnorm sum_ij w_i w_j psi_eta(x_i, x_j)^2 on the same nodes:")
print(f"{'eta':>5} {'norm':>18} {'gap':>10}")
for eta in (0.3, 0.8):
    norm = w @ psi_eta(eta, x[:, None], x[None, :]) ** 2 @ w
    print(f"{eta:>5} {norm:>18.16f} {abs(norm - 1.0):>10.1e}")

print()
print("=" * 70)
print("Reduced density matrix: three routes to the same kernel")
print("=" * 70)
eta = 0.8
pts = np.array([-1.0, 0.0, 0.5])
closed = rho_reduced(eta, pts[:, None], pts[None, :])
series = rho_series(eta, pts[:, None], pts[None, :], kmax=60)
traced = rho_partial_trace(eta, pts[:, None], pts[None, :])
print(f"\nat eta = {eta}, sample points {pts.tolist()}:")
print("closed form:\n", np.array2string(closed, precision=6))
print(f"max |closed - series(60)|      = {np.abs(closed - series).max():.2e}")
print(f"max |closed - partial trace|   = {np.abs(closed - traced).max():.2e}")
print(f"Tr rho = {w @ rho_reduced(eta, x, x):.12f}")

print()
print("=" * 70)
print("Purity and entropy of the reduced state")
print("=" * 70)
print(f"\n{'eta':>5} {'purity':>12} {'1/cosh(2eta)':>13} {'entropy':>12} "
      f"{'closed form':>12}")
for eta in (0.0, 0.25, 0.5, 1.0, 1.5):
    m = moments(eta, 200)
    closed_purity = 1.0 / np.cosh(2 * eta)
    if eta > 0:
        c2, s2 = np.cosh(eta) ** 2, np.sinh(eta) ** 2
        closed_entropy = c2 * np.log(c2) - s2 * np.log(s2)
    else:
        closed_entropy = 0.0
    print(f"{eta:>5} {m.purity:>12.8f} {closed_purity:>13.8f} "
          f"{m.entropy:>12.8f} {closed_entropy:>12.8f}")
print("\npurity falls below one as soon as the oscillators couple:")
print("tracing out the unobserved mode turns a pure state into a mixed one.")
