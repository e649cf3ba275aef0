"""Symplectic checks, transforms, reduction, entropy, temperature map."""

import warnings

import numpy as np
import pytest
from mpmath import mp

from oscsym.families import FIFTEEN_LABELS, TENFOLD_LABELS, build_generator_set
from oscsym.phase_space import (
    GaussianState,
    SubVacuumError,
    area_product,
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
    symplectic_eigenvalue,
    symplectic_form,
    temperature_from_eta,
    vacuum_state,
)
from oscsym.fock import gauss_hermite, moments

EXTENSION_LABELS = ("S1", "S2", "G1", "G2", "G3")


# ---------------------------------------------------------------------------
# symplectic form and canonicality

def test_symplectic_form_invariants():
    j = symplectic_form()
    assert np.array_equal(j.T, -j)
    assert np.allclose(j @ j, -np.eye(4))


def test_identity_is_canonical():
    assert is_canonical(np.eye(4))


def test_coupling_transform_is_canonical():
    assert is_canonical(coupling_transform(0.8))


def test_uniform_scaling_is_not_canonical():
    eta = 0.5
    m = np.diag([np.e ** eta, np.e ** eta, np.e ** -eta, np.e ** -eta])
    assert not is_canonical(m)
    assert symplectic_deviation(m) > 0.1


# ---------------------------------------------------------------------------
# generator exponentials

def test_unknown_generator_rejected():
    with pytest.raises(ValueError, match="unknown generator"):
        generator_to_transform("X7", 0.3)


@pytest.mark.parametrize("label", FIFTEEN_LABELS)
def test_transform_at_zero_is_identity(label):
    assert np.abs(generator_to_transform(label, 0.0) - np.eye(4)).max() <= 1e-15


@pytest.mark.parametrize("label", FIFTEEN_LABELS)
def test_transform_one_parameter_group(label):
    m1 = generator_to_transform(label, 0.4)
    m2 = generator_to_transform(label, 0.9)
    m12 = generator_to_transform(label, 1.3)
    assert np.abs(m1 @ m2 - m12).max() <= 1e-12


@pytest.mark.parametrize("label", FIFTEEN_LABELS)
def test_transforms_are_real(label):
    m = generator_to_transform(label, 0.7)
    assert np.isrealobj(m)


def test_g3_flow_is_reciprocal_scaling():
    eta = 0.8
    m = generator_to_transform("G3", eta)
    expected = np.diag([np.e ** eta, np.e ** eta, np.e ** -eta, np.e ** -eta])
    assert np.abs(m - expected).max() <= 1e-12


def test_s3_rotation_period_two_pi():
    m = generator_to_transform("S3", 2 * np.pi)
    assert np.abs(m - np.eye(4)).max() <= 1e-12
    # and half a period is not the identity
    assert np.abs(generator_to_transform("S3", np.pi) - np.eye(4)).max() > 1.0


@pytest.mark.parametrize("label", FIFTEEN_LABELS)
@pytest.mark.parametrize("theta", [-6.0, -3.0, -0.7, 0.7, 3.0, 6.0])
def test_transform_matches_high_precision_expm(label, theta):
    """The closed-form flow equals a 40-digit exp(theta A), A = 2 Im G,
    entrywise to 1e-14 relative (zero entries exactly)."""
    a = 2.0 * build_generator_set("sl4r_4")[label].imag
    with mp.workdps(40):
        exact = mp.expm(mp.matrix(a.tolist()) * mp.mpf(theta))
        want = np.array([[float(exact[i, j]) for j in range(4)] for i in range(4)])
    got = generator_to_transform(label, theta)
    assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all(), np.abs(got - want).max()


@pytest.mark.parametrize("eta", [6.0, 7.0, 8.0])
def test_entropy_matches_high_precision_reference(eta):
    """Gaussian and thermal entropies of the coupled state against 50 digits.

    S = cosh^2 ln cosh^2 - sinh^2 ln sinh^2 at eta, and at the temperature
    T the thermal state is given, S(T) = b/(e^b - 1) - ln(1 - e^-b), b = 1/T.
    """
    from oscsym.fock import thermal_state
    T = temperature_from_eta(eta)
    with mp.workdps(50):
        c2, s2 = mp.cosh(eta) ** 2, mp.sinh(eta) ** 2
        s_eta = float(c2 * mp.log(c2) - s2 * mp.log(s2))
        b = 1 / mp.mpf(T)
        s_T = float(b / mp.expm1(b) - mp.log(-mp.expm1(-b)))
    s_gauss = gaussian_entropy(reduce_oscillator(
        evolve(vacuum_state(), coupling_transform(eta)), 1))
    assert abs(s_gauss - s_eta) <= 1e-14 * s_eta
    assert abs(thermal_state(T).entropy() - s_T) <= 1e-14 * s_T


@pytest.mark.parametrize("label", TENFOLD_LABELS)
@pytest.mark.parametrize("theta", [-5.0, -1.0, -0.3, 0.3, 1.0, 5.0])
def test_sp4_exponentials_canonical(label, theta):
    assert is_canonical(generator_to_transform(label, theta))


@pytest.mark.parametrize("label", EXTENSION_LABELS)
def test_extension_exponentials_not_canonical(label):
    assert symplectic_deviation(generator_to_transform(label, 0.5)) > 0.1


@pytest.mark.parametrize("label", EXTENSION_LABELS)
@pytest.mark.parametrize("theta", [-5.0, 5.0])
def test_extension_exponentials_not_canonical_when_deep(label, theta):
    # the tolerance scales with max|M|**2 ~ e^{2|theta|}; the extension flows
    # still miss the form by order one relative to that scale
    assert not is_canonical(generator_to_transform(label, theta))


@pytest.mark.parametrize("label", FIFTEEN_LABELS)
def test_transforms_unimodular(label):
    m = generator_to_transform(label, 0.7)
    assert abs(np.linalg.det(m) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# states, evolution, reduction

def test_gaussian_state_validation():
    with pytest.raises(ValueError, match="4x4"):
        GaussianState(np.eye(3))
    bad = np.eye(4)
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(bad)
    with pytest.raises(ValueError, match="positive definite"):
        GaussianState(-np.eye(4))


# inf - inf in the symmetry comparison is what turns an inf entry into NaN
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_covariance_refuses_non_finite_entries(entry):
    block = np.eye(2) / 2
    block[0, 0] = entry
    for route in (gaussian_purity, gaussian_entropy, symplectic_eigenvalue):
        with pytest.raises(ValueError, match="finite"):
            route(block)
    cov = np.eye(4) / 2
    cov[1, 2] = cov[2, 1] = entry
    with pytest.raises(ValueError, match="finite"):
        GaussianState(cov)


def test_evolve_refuses_nan_transform():
    # the NaN covariance is refused by name, before eigvalsh sees it
    with pytest.raises(ValueError, match="finite"):
        evolve(vacuum_state(), np.full((4, 4), np.nan))


def test_vacuum_state_convention():
    vac = vacuum_state()
    assert np.array_equal(vac.cov, np.eye(4) / 2)


def test_evolve_identity():
    vac = vacuum_state()
    out = evolve(vac, np.eye(4))
    assert np.array_equal(out.cov, vac.cov)


def test_evolve_rotations_fix_vacuum():
    vac = vacuum_state()
    for label in ("L1", "L2", "S1", "S2"):
        out = evolve(vac, generator_to_transform(label, 0.6))
        assert np.abs(out.cov - vac.cov).max() <= 1e-14, label


def test_coupled_state_covariance():
    eta = 0.8
    st = evolve(vacuum_state(), coupling_transform(eta))
    c2, s2 = np.cosh(2 * eta), np.sinh(2 * eta)
    expected = 0.5 * np.array([
        [c2, 0, s2, 0],
        [0, c2, 0, -s2],
        [s2, 0, c2, 0],
        [0, -s2, 0, c2],
    ])
    assert np.abs(st.cov - expected).max() <= 1e-12


def test_coupled_state_quadratic_form():
    """The Wigner exponent equals the rotated-squeezed sum of squares."""
    eta = 0.8
    st = evolve(vacuum_state(), coupling_transform(eta))
    p = np.linalg.inv(st.cov) / 2.0
    rng = np.random.default_rng(7)
    for _ in range(5):
        x1, p1, x2, p2 = rng.normal(size=4)
        xi = np.array([x1, p1, x2, p2])
        expected = 0.5 * (
            np.e ** (2 * eta) * (x1 - x2) ** 2
            + np.e ** (-2 * eta) * (x1 + x2) ** 2
            + np.e ** (-2 * eta) * (p1 - p2) ** 2
            + np.e ** (2 * eta) * (p1 + p2) ** 2
        )
        assert abs(xi @ p @ xi - expected) <= 1e-10


def test_evolve_preserves_determinant_for_canonical():
    eta = 0.9
    st = evolve(vacuum_state(), coupling_transform(eta))
    assert abs(np.linalg.det(st.cov) - np.linalg.det(vacuum_state().cov)) <= 1e-12


def test_reduce_vacuum():
    assert np.array_equal(reduce_oscillator(vacuum_state(), 1), np.eye(2) / 2)
    assert np.array_equal(reduce_oscillator(vacuum_state(), 2), np.eye(2) / 2)


def test_reduce_invalid_index():
    with pytest.raises(ValueError, match="keep"):
        reduce_oscillator(vacuum_state(), 3)


def test_reduce_coupled_state():
    eta = 0.8
    st = evolve(vacuum_state(), coupling_transform(eta))
    block = reduce_oscillator(st, 1)
    assert np.abs(block - 0.5 * np.cosh(2 * eta) * np.eye(2)).max() <= 1e-12


def test_reduce_g3_scaled_vacuum():
    eta = 0.6
    st = evolve(vacuum_state(), generator_to_transform("G3", eta))
    assert np.abs(reduce_oscillator(st, 1) - 0.5 * np.e ** (2 * eta) * np.eye(2)).max() <= 1e-12
    assert np.abs(reduce_oscillator(st, 2) - 0.5 * np.e ** (-2 * eta) * np.eye(2)).max() <= 1e-12


def test_reduced_wigner_marginal_normalized():
    """The reduced Gaussian integrates to one (spot values by quadrature)."""
    eta = 0.8
    st = evolve(vacuum_state(), coupling_transform(eta))
    cov = reduce_oscillator(st, 1)
    x, w = gauss_hermite(128)
    det = np.linalg.det(cov)
    inv = np.linalg.inv(cov)
    xi1 = x[:, None]
    xi2 = x[None, :]
    quad = inv[0, 0] * xi1 ** 2 + 2 * inv[0, 1] * xi1 * xi2 + inv[1, 1] * xi2 ** 2
    wig = np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(det))
    assert abs(w @ wig @ w - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# purity, entropy, sub-vacuum handling

def test_purity_vacuum_block():
    assert gaussian_purity(np.eye(2) / 2) == 1.0


@pytest.mark.parametrize("eta", [0.25, 0.5, 1.0, 1.5])
def test_purity_matches_series(eta):
    st = evolve(vacuum_state(), coupling_transform(eta))
    p = gaussian_purity(reduce_oscillator(st, 1))
    assert abs(p - 1.0 / np.cosh(2 * eta)) <= 1e-12
    assert abs(p - moments(eta, 200).purity) <= 1e-9


def test_purity_rejects_bad_covariance():
    with pytest.raises(ValueError):
        gaussian_purity(-np.eye(2))
    with pytest.raises(ValueError):
        gaussian_purity(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_entropy_pure_state():
    assert gaussian_entropy(np.eye(2) / 2) == 0.0


@pytest.mark.parametrize("eta", [0.25, 0.5, 1.0, 1.5])
def test_entropy_matches_series_oracle(eta):
    st = evolve(vacuum_state(), coupling_transform(eta))
    s = gaussian_entropy(reduce_oscillator(st, 1))
    assert abs(s - moments(eta, 200).entropy) <= 1e-9


def test_entropy_subvacuum_rejected():
    eta = 0.5
    st = evolve(vacuum_state(), generator_to_transform("G3", eta))
    contracted = reduce_oscillator(st, 2)
    assert abs(symplectic_eigenvalue(contracted) - np.e ** -1.0) <= 1e-12
    with pytest.raises(SubVacuumError):
        gaussian_entropy(contracted)
    # ...but the contracted block remains a representable classical Gaussian
    assert gaussian_purity(contracted) > 1.0


def test_entropy_monotone_in_eta():
    values = []
    for eta in np.linspace(0.1, 2.0, 10):
        st = evolve(vacuum_state(), coupling_transform(eta))
        values.append(gaussian_entropy(reduce_oscillator(st, 1)))
    assert (np.diff(values) > 0).all()


# ---------------------------------------------------------------------------
# areas

def test_vacuum_areas():
    a1, a2 = areas(vacuum_state())
    assert abs(a1 - np.pi) <= 1e-14
    assert abs(a2 - np.pi) <= 1e-14


def test_g3_area_exchange():
    eta = 0.5
    st = evolve(vacuum_state(), generator_to_transform("G3", eta))
    a1, a2 = areas(st)
    assert abs(a1 - np.pi * np.e ** (2 * eta)) <= 1e-12
    assert abs(a2 - np.pi * np.e ** (-2 * eta)) <= 1e-12
    assert abs(a1 * a2 - np.pi ** 2) <= 1e-10


@pytest.mark.parametrize("label", ["S3", "K2", "Q2", "Q1", "K1", "L3"])
def test_single_oscillator_transforms_preserve_each_area(label):
    """Block-diagonal canonical flows leave both areas individually fixed."""
    st = evolve(vacuum_state(), generator_to_transform(label, 0.7))
    a1, a2 = areas(st)
    assert abs(a1 - np.pi) <= 1e-10
    assert abs(a2 - np.pi) <= 1e-10


NON_MIXING = ("L1", "L2", "L3", "S1", "S2", "S3", "K1", "K2", "Q1", "Q2", "G3")
MIXING = ("K3", "Q3", "G1", "G2")


@pytest.mark.parametrize("label", NON_MIXING)
def test_area_product_invariant_for_non_mixing_flows(label):
    st = evolve(vacuum_state(), generator_to_transform(label, 0.6))
    a1, a2 = areas(st)
    assert abs(a1 * a2 - np.pi ** 2) <= 1e-10


@pytest.mark.parametrize("label", MIXING)
def test_marginal_area_product_grows_for_mixing_squeezes(label):
    """Cross-oscillator squeezes correlate the blocks: both marginal areas
    grow like cosh, so their plain product exceeds pi^2 even though the
    transform has determinant one."""
    st = evolve(vacuum_state(), generator_to_transform(label, 0.6))
    a1, a2 = areas(st)
    assert a1 * a2 > np.pi ** 2 * np.cosh(1.2)  # strictly above, by a margin


@pytest.mark.parametrize("label", FIFTEEN_LABELS)
def test_four_volume_invariant_for_all_flows(label):
    st = evolve(vacuum_state(), generator_to_transform(label, 0.6))
    assert abs(area_product(st) - np.pi ** 2) <= 1e-10


# ---------------------------------------------------------------------------
# temperature map

def test_temperature_round_trip():
    for T in (0.5, 1.0, 2.0, 5.0):
        assert abs(temperature_from_eta(eta_from_temperature(T)) - T) <= 1e-12


def test_eta_round_trip():
    for eta in (0.2, 0.7, 1.3):
        assert abs(eta_from_temperature(temperature_from_eta(eta)) - eta) <= 1e-12


def test_temperature_map_invariant():
    for eta in (0.3, 0.9, 1.6):
        T = temperature_from_eta(eta)
        assert abs(np.cosh(2 * eta) * np.tanh(0.5 / T) - 1.0) <= 1e-12


def test_temperature_map_rejects_nonpositive():
    with pytest.raises(ValueError):
        eta_from_temperature(0.0)
    with pytest.raises(ValueError):
        temperature_from_eta(-0.1)


def test_eta_map_agrees_with_arccosh_form():
    for T in (0.2, 0.5, 1.0, 2.0, 10.0):
        direct = 0.5 * np.arccosh(1.0 / np.tanh(0.5 / T))
        assert abs(eta_from_temperature(T) - direct) <= 1e-12


def test_temperature_map_extreme_arguments():
    # small T: the stable form keeps eta positive and monotone
    tiny = eta_from_temperature(0.01)
    assert 0 < tiny < 1e-20
    assert eta_from_temperature(0.02) > tiny
    assert abs(temperature_from_eta(tiny) - 0.01) <= 1e-14
    # large eta: log1p form avoids tanh rounding to one
    big = temperature_from_eta(25.0)
    assert np.isfinite(big)
    assert abs(eta_from_temperature(big) - 25.0) <= 1e-9


@pytest.mark.parametrize("eta", [360.0, 380.0, 1e6])
def test_temperature_map_refuses_overflowing_eta(eta):
    # T ~ e^{2 eta}/4 passes the largest double above eta ~ 355.6
    assert temperature_from_eta(355.0) == 5.584986915404278e+307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="largest double"):
            temperature_from_eta(eta)


def test_entropy_eta_equals_entropy_temperature():
    """S(eta) through the closed form equals S(T) at the matched temperature."""
    from oscsym.fock import thermal_state
    for T in (0.5, 1.0, 2.0, 5.0):
        eta = eta_from_temperature(T)
        c2, s2 = np.cosh(eta) ** 2, np.sinh(eta) ** 2
        s_eta = c2 * np.log(c2) - s2 * np.log(s2)
        assert abs(s_eta - thermal_state(T).entropy()) <= 1e-10


def test_thermal_entropy_monotone_in_temperature():
    from oscsym.fock import thermal_state
    values = [thermal_state(t).entropy() for t in np.linspace(0.2, 5.0, 15)]
    assert (np.diff(values) > 0).all()
