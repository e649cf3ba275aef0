"""oscsym: coupled-oscillator symmetries in phase space.

A small numerical toolkit around one family of facts: the ten oscillator
matrices generating Sp(4) (locally isomorphic to O(3,2)), their extension by
five non-canonical generators to sl(4,R) (locally isomorphic to O(3,3)), the
fifteen Majorana gamma bilinears realizing the same algebra, and the Gaussian
phase-space consequences of tracing out one oscillator of a coupled pair:
purity 1/cosh(2 eta), the two-term entropy formula, and the squeeze <->
temperature map cosh(2 eta) = 1/tanh(1/2T).

Everything is dense numpy at double precision; generator entries are exact
multiples of 1/2 and i/2, so all verification residuals are rounding-level.
"""

from .families import FIFTEEN_LABELS, build_generator_set, gamma_matrices
from .algebra import (
    SP2_TRIPLES, alge11_table, anticommutator, check_isomorphism,
    commutator, decompose, o33gen_table, sp2_table, structure_table,
    table1_correspondence, verify_algebra,
)
from .fock import (
    basis_state, dirac_tenfold, expansion_coefficient,
    expansion_overlap, gauss_hermite, moments, rho_partial_trace,
    rho_reduced, rho_series, safe_subspace_mask, thermal_state,
    verify_fock_commutators, wigner_radius,
)
from .phase_space import (
    SubVacuumError, areas, coupling_transform,
    eta_from_temperature, evolve, gaussian_entropy, gaussian_purity,
    generator_to_transform, is_canonical, reduce_oscillator,
    symplectic_deviation, temperature_from_eta, vacuum_state,
)

__version__ = "0.1.0"
