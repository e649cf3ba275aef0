"""oscsym: coupled-oscillator symmetries in phase space.

A small numerical toolkit around one family of facts: the ten oscillator
matrices generating Sp(4) (locally isomorphic to O(3,2)), their extension by
five non-canonical generators to sl(4,R) (locally isomorphic to O(3,3)), the
fifteen Majorana gamma bilinears realizing the same algebra, and the Gaussian
phase-space consequences of tracing out one oscillator of a coupled pair:
purity 1/cosh(2 eta), the two-term entropy formula, and the squeeze <->
temperature map cosh(2 eta) = 1/tanh(1/2T).

The generator algebras and the Fock realization are numpy at double precision
(the Fock check reads ladder-word diagonals, not dense members); generator
entries are exact multiples of 1/2 and i/2, so all verification residuals are
rounding-level.  The Gaussian pipeline (``phase_space``) is Python floats on
tuples of rows and imports no numpy.

The names below are loaded on first access (PEP 562), so ``import oscsym``
imports no submodule and no numpy; ``oscsym.evolve`` imports ``phase_space``
when it is first read, and ``oscsym.moments`` imports ``fock`` and numpy.
"""

__version__ = "0.1.0"

#: submodule -> the names this package re-exports from it
_EXPORTS = {
    "families": ("FIFTEEN_LABELS", "build_generator_set", "gamma_matrices"),
    "algebra": (
        "SP2_TRIPLES", "alge11_table", "anticommutator", "check_isomorphism",
        "commutator", "decompose", "o33gen_table", "sp2_table", "structure_table",
        "table1_correspondence", "verify_algebra",
    ),
    "fock": (
        "basis_state", "dirac_tenfold", "expansion_coefficient",
        "expansion_overlap", "gauss_hermite", "moments", "rho_partial_trace",
        "rho_reduced", "rho_series", "safe_subspace_mask", "thermal_state",
        "verify_fock_commutators", "wigner_radius",
    ),
    "phase_space": (
        "SubVacuumError", "areas", "coupling_transform",
        "eta_from_temperature", "evolve", "gaussian_entropy", "gaussian_purity",
        "generator_to_transform", "is_canonical", "reduce_oscillator",
        "symplectic_deviation", "temperature_from_eta", "vacuum_state",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        # also how `from oscsym import fock` finds out that it must import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
