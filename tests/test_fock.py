"""Fock realization, eigenfunction oracles, series and thermal states."""

import json
from pathlib import Path

import numpy as np
import pytest

from oscsym.algebra import alge11_table
from oscsym.fock import (
    MAX_KMAX,
    MAX_NMAX,
    ThermalState,
    basis_state,
    destroy,
    dirac_tenfold,
    expansion_coefficient,
    expansion_overlap,
    fock_index,
    gauss_hermite,
    hermite_functions,
    kmax_for_tail,
    ladder_operators,
    moments,
    phi,
    psi_eta,
    rho_partial_trace,
    rho_reduced,
    rho_series,
    safe_subspace_mask,
    series_tail_bound,
    series_weights,
    thermal_state,
    verify_fock_commutators,
    wigner_radius,
)
from oscsym.phase_space import eta_from_temperature, temperature_from_eta


# ---------------------------------------------------------------------------
# ladder operators

def test_destroy_rejects_small_truncation():
    with pytest.raises(ValueError):
        destroy(1)
    with pytest.raises(ValueError):
        ladder_operators(0)


def test_ladder_adjointness_and_action():
    a1, a2 = ladder_operators(5)
    # annihilating the joint vacuum
    vac = basis_state(5, 0, 0)
    assert np.abs(a1 @ vac).max() == 0.0
    assert np.abs(a2 @ vac).max() == 0.0
    # number operator
    n35 = basis_state(6, 3, 5)
    a1_6, a2_6 = ladder_operators(6)
    assert np.allclose((a1_6.T @ a1_6) @ n35, 3.0 * n35)
    assert np.allclose((a2_6.T @ a2_6) @ n35, 5.0 * n35)


def test_modes_commute():
    a1, a2 = ladder_operators(6)
    assert np.abs(a1 @ a2.T - a2.T @ a1).max() <= 1e-14


def test_canonical_commutator_below_edge():
    a1, _ = ladder_operators(6)
    c = a1 @ a1.T - a1.T @ a1
    # identity away from the truncation edge n1 = nmax - 1
    for n1 in range(5):
        for n2 in range(6):
            i = fock_index(6, n1, n2)
            assert abs(c[i, i] - 1.0) <= 1e-14


def test_fock_index_bounds():
    with pytest.raises(ValueError):
        fock_index(4, 4, 0)


# ---------------------------------------------------------------------------
# the ten quadratic generators

def test_tenfold_rejects_small_truncation():
    with pytest.raises(ValueError):
        dirac_tenfold(3)


def test_s3_on_vacuum():
    gens = dirac_tenfold(6)
    vac = basis_state(6, 0, 0)
    assert np.allclose(gens["S3"] @ vac, 0.5 * vac)


def test_l3_on_equal_occupation():
    gens = dirac_tenfold(6)
    v11 = basis_state(6, 1, 1)
    assert np.abs(gens["L3"] @ v11).max() <= 1e-14


def test_k3_creates_pair():
    gens = dirac_tenfold(6)
    vac = basis_state(6, 0, 0)
    assert np.allclose(gens["K3"] @ vac, 0.5 * basis_state(6, 1, 1))


def test_tenfold_hermitian():
    gens = dirac_tenfold(6)
    for label, m in gens.members.items():
        assert np.abs(m - m.conj().T).max() <= 1e-14, label


@pytest.mark.parametrize("nmax", [6, 8, 10, 128])
def test_fock_commutators_on_safe_subspace(nmax):
    rep = verify_fock_commutators(nmax, 1e-12)
    assert rep.passed, rep.summary()


def _dense_tenfold(nmax):
    """Reference: the ten generators from dense kron ladders and matmuls."""
    a = np.zeros((nmax, nmax))
    for n in range(1, nmax):
        a[n - 1, n] = np.sqrt(n)
    eye = np.eye(nmax)
    a1, a2 = np.kron(a, eye), np.kron(eye, a)
    ad1, ad2 = a1.T, a2.T
    return {
        "L1": 0.5 * (ad1 @ a2 + ad2 @ a1) + 0j,
        "L2": -0.5j * (ad1 @ a2 - ad2 @ a1),
        "L3": 0.5 * (ad1 @ a1 - ad2 @ a2) + 0j,
        "S3": 0.5 * (ad1 @ a1 + a2 @ ad2) + 0j,
        "K1": -0.25 * (ad1 @ ad1 + a1 @ a1 - ad2 @ ad2 - a2 @ a2) + 0j,
        "K2": 0.25j * (ad1 @ ad1 - a1 @ a1 + ad2 @ ad2 - a2 @ a2),
        "K3": 0.5 * (ad1 @ ad2 + a1 @ a2) + 0j,
        "Q1": 0.25j * (ad1 @ ad1 - a1 @ a1 - ad2 @ ad2 + a2 @ a2),
        "Q2": 0.25 * (ad1 @ ad1 + a1 @ a1 + ad2 @ ad2 + a2 @ a2) + 0j,
        "Q3": -0.5j * (ad1 @ ad2 - a1 @ a2),
    }


@pytest.mark.parametrize("nmax", range(4, 11))
def test_tenfold_equals_dense_reference(nmax):
    gens = dirac_tenfold(nmax)
    ref = _dense_tenfold(nmax)
    assert gens.labels == tuple(ref)
    for label, m in ref.items():
        assert gens[label].dtype == m.dtype, label
        assert np.array_equal(gens[label], m), label


@pytest.mark.parametrize("nmax", [6, 8, 10])
def test_fock_residuals_match_dense_reference(nmax):
    gens = _dense_tenfold(nmax)
    idx = np.flatnonzero(safe_subspace_mask(nmax))
    scale = max(1.0, *(np.abs(g[np.ix_(idx, idx)]).max() for g in gens.values())) ** 2
    rep = verify_fock_commutators(nmax)
    for (a, b), terms in alge11_table().entries.items():
        r = gens[a] @ gens[b] - gens[b] @ gens[a]
        for c, l in terms:
            r = r - c * gens[l]
        want = np.abs(r[np.ix_(idx, idx)]).max() / scale
        assert abs(rep.residuals[(a, b)] - want) <= 4e-15, (a, b)


def test_fock_k1q1_bracket_example():
    gens = dirac_tenfold(8)
    idx = np.flatnonzero(safe_subspace_mask(8))
    r = gens["K1"] @ gens["Q1"] - gens["Q1"] @ gens["K1"] + 1j * gens["S3"]
    assert np.abs(r[np.ix_(idx, idx)]).max() <= 1e-12


def test_fock_edge_residual_nonzero_unrestricted():
    """At nmax = 4 the truncation edge spoils the unrestricted bracket."""
    gens = dirac_tenfold(4)
    r = gens["K1"] @ gens["Q1"] - gens["Q1"] @ gens["K1"] + 1j * gens["S3"]
    assert np.abs(r).max() > 1.0


def test_verify_fock_requires_nmax_six():
    with pytest.raises(ValueError):
        verify_fock_commutators(5)


def test_fock_refuses_large_nmax():
    with pytest.raises(ValueError, match="nmax"):
        verify_fock_commutators(MAX_NMAX + 1)
    # ten dense members at nmax 51 would exceed 1 GiB; refused before allocating
    with pytest.raises(ValueError, match="MiB"):
        dirac_tenfold(51)


# ---------------------------------------------------------------------------
# eigenfunctions and quadrature

def test_phi0_at_origin():
    assert abs(phi(0, 0.0) - np.pi ** -0.25) <= 1e-15


def test_phi1_odd():
    assert phi(1, 0.0) == 0.0
    x = np.linspace(-3, 3, 31)
    assert np.abs(phi(1, x) + phi(1, -x)).max() <= 1e-15


def test_phi_orthonormal_by_quadrature():
    x, w = gauss_hermite(128)
    h = hermite_functions(8, x)
    gram = (h * w) @ h.T
    assert np.abs(gram - np.eye(9)).max() <= 1e-10


def test_phi_caps_recurrence_depth():
    with pytest.raises(ValueError):
        phi(201, 0.0)
    with pytest.raises(ValueError):
        hermite_functions(-1, 0.0)


def test_psi_eta_reduces_to_ground_state():
    x1 = np.linspace(-2, 2, 9)[:, None]
    x2 = np.linspace(-2, 2, 9)[None, :]
    expected = np.pi ** -0.5 * np.exp(-0.5 * (x1 ** 2 + x2 ** 2))
    assert np.abs(psi_eta(0.0, x1, x2) - expected).max() <= 1e-15


def test_psi_eta_on_diagonal():
    eta, x = 0.9, np.linspace(-2, 2, 9)
    expected = np.pi ** -0.5 * np.exp(-np.exp(-2 * eta) * x ** 2)
    assert np.abs(psi_eta(eta, x, x) - expected).max() <= 1e-15


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 0.8, 1.5])
def test_psi_eta_normalized(eta):
    x, w = gauss_hermite(128)
    vals = psi_eta(eta, x[:, None], x[None, :]) ** 2
    integral = w @ vals @ w
    assert abs(integral - 1.0) <= 1e-9


def test_expansion_overlap_at_zero_coupling():
    assert abs(expansion_overlap(0.0, 0) - 1.0) <= 1e-12
    for k in (1, 2, 5):
        assert abs(expansion_overlap(0.0, k)) <= 1e-12


@pytest.mark.parametrize("eta", [0.3, 0.8, 1.2])
@pytest.mark.parametrize("k", range(9))
def test_expansion_overlap_matches_closed_form(eta, k):
    assert abs(expansion_overlap(eta, k) - expansion_coefficient(eta, k)) <= 1e-8


def test_expansion_overlap_unit_eta_spot_value():
    # tanh(1)^2 / cosh(1), both routes
    assert abs(expansion_overlap(1.0, 2)
               - np.tanh(1.0) ** 2 / np.cosh(1.0)) <= 1e-8


def test_expansion_rejects_negative_k():
    with pytest.raises(ValueError):
        expansion_overlap(0.5, -1)
    with pytest.raises(ValueError):
        expansion_coefficient(0.5, -1)


# ---------------------------------------------------------------------------
# reduced density matrix, three routes

def test_rho_reduced_pure_limit():
    x = np.linspace(-2, 2, 7)[:, None]
    xp = np.linspace(-2, 2, 7)[None, :]
    expected = np.pi ** -0.5 * np.exp(-0.5 * (x ** 2 + xp ** 2))
    assert np.abs(rho_reduced(0.0, x, xp) - expected).max() <= 1e-15


@pytest.mark.parametrize("eta", [0.4, 0.8])
def test_rho_reduced_unit_trace(eta):
    x, w = gauss_hermite(128)
    assert abs(w @ rho_reduced(eta, x, x) - 1.0) <= 1e-9


def test_rho_series_matches_closed_form():
    eta = 0.8
    grid = np.linspace(-3, 3, 21)
    x, xp = np.meshgrid(grid, grid)
    diff = rho_series(eta, x, xp, kmax=60) - rho_reduced(eta, x, xp)
    assert np.abs(diff).max() <= 1e-9


def test_rho_partial_trace_matches_closed_form():
    eta = 0.7
    grid = np.linspace(-2.5, 2.5, 11)
    x, xp = np.meshgrid(grid, grid)
    diff = rho_partial_trace(eta, x, xp) - rho_reduced(eta, x, xp)
    assert np.abs(diff).max() <= 1e-10


# ---------------------------------------------------------------------------
# series moments

def test_series_weights_normalized_and_monotone():
    w = series_weights(0.9, 200)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert (np.diff(w) <= 0).all()
    assert (w >= 0).all()
    assert w.sum() >= 1.0 - series_tail_bound(0.9, 200)


def test_moments_pure_state():
    m = moments(0.0, 10)
    assert m.trace == 1.0
    assert m.purity == 1.0
    assert m.entropy == 0.0
    assert m.tail_bound == 0.0


def test_moments_negative_eta_folds():
    assert moments(-0.7).purity == moments(0.7).purity


@pytest.mark.parametrize("eta", [0.25, 0.5, 1.0, 1.5])
def test_moments_purity_identity(eta):
    m = moments(eta, 200)
    assert abs(m.purity - 1.0 / np.cosh(2 * eta)) <= 1e-10
    assert m.purity < 1.0  # mixed for eta > 0


@pytest.mark.parametrize("eta", [0.25, 0.5, 1.0, 1.5])
def test_moments_entropy_identity(eta):
    m = moments(eta, 200)
    c2, s2 = np.cosh(eta) ** 2, np.sinh(eta) ** 2
    closed = c2 * np.log(c2) - s2 * np.log(s2)
    assert abs(m.entropy - closed) <= 1e-9


def test_moments_value_at_unit_eta():
    m = moments(1.0, 200)
    assert abs(m.purity - 1.0 / np.cosh(2.0)) <= 1e-12
    assert abs(m.purity - 0.2658022288340797) <= 1e-12


def test_moments_warns_on_short_series():
    with pytest.warns(UserWarning, match="tail bound"):
        moments(1.5, 5)


def test_kmax_for_tail_clears_the_tail_up_to_eta_six():
    for eta in (0.0, 1.0, 4.0, 6.0):
        kmax = kmax_for_tail(eta)
        assert 1 <= kmax <= MAX_KMAX
        assert series_tail_bound(eta, kmax) <= 1e-12
    assert kmax_for_tail(6.0) == 1124270


@pytest.mark.parametrize("eta,match", [
    (8.0, "MAX_KMAX"),          # 6.1e7 terms, about 0.5 GB per array
    (19.0, "rounds to 1"),      # tanh^2 == 1.0: the count would be infinite
    (float("nan"), "MAX_KMAX"),
])
def test_kmax_for_tail_refuses_unbounded_series(eta, match):
    with pytest.raises(ValueError, match=match):
        kmax_for_tail(eta)


# ---------------------------------------------------------------------------
# thermal state

def test_thermal_state_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        thermal_state(0.0)
    with pytest.raises(ValueError):
        thermal_state(-1.0)


def test_thermal_vacuum_limit():
    vac = ThermalState.vacuum()
    assert vac.weights[0] == 1.0
    assert np.abs(vac.weights[1:]).max() == 0.0
    assert vac.radius() == 1.0
    assert vac.entropy() == 0.0


def test_thermal_weights_normalized():
    st = thermal_state(2.0)
    assert abs(st.weights.sum() - 1.0) <= 1e-12
    assert (st.weights > 0).all()


def test_thermal_entropy_series_matches_closed_form():
    for T in (0.5, 1.0, 1.8362, 5.0):
        st = thermal_state(T, kmax=3000 if T > 2 else 800)
        assert abs(st.entropy_series() - st.entropy()) <= 1e-10, T


def test_thermal_weights_equal_series_weights():
    """At matched eta and T the two weight ladders are the same geometric law."""
    for T in (0.5, 1.0, 2.0, 5.0):
        eta = eta_from_temperature(T)
        diff = np.abs(thermal_state(T, 300).weights - series_weights(eta, 300))
        assert diff.max() <= 1e-12, T


def test_wigner_radius_values():
    assert wigner_radius(0.0) == 1.0
    T = 1.0
    assert abs(wigner_radius(T) - 1.0 / np.sqrt(np.tanh(0.5))) <= 1e-15
    eta = eta_from_temperature(T)
    assert abs(wigner_radius(T) - np.sqrt(np.cosh(2 * eta))) <= 1e-12
    with pytest.raises(ValueError):
        wigner_radius(-0.5)


def test_temperature_at_unit_eta_two_routes():
    """Closed form against a direct numeric inversion of the weight match."""
    from scipy.optimize import brentq
    closed = temperature_from_eta(1.0)
    # solve cosh(2 eta) = (1 + e^{-1/T}) / (1 - e^{-1/T}) for T
    target = np.cosh(2.0)

    def gap(T):
        q = np.exp(-1.0 / T)
        return (1 + q) / (1 - q) - target

    solved = brentq(gap, 0.1, 10.0, xtol=1e-14)
    assert abs(closed - solved) <= 1e-10


def test_fock_pair_residuals_match_recorded_bits():
    """Every pair's residual equals, bit for bit, the one the per-pair banded
    loop recorded (float.hex); the fold order of each bracket diagonal is
    part of the result."""
    path = Path(__file__).parent / "data" / "fock_pair_residuals.json"
    recorded = json.loads(path.read_text())
    for nmax, residuals in recorded.items():
        rep = verify_fock_commutators(int(nmax))
        assert {f"{a},{b}": r.hex() for (a, b), r in rep.residuals.items()} == residuals, nmax
