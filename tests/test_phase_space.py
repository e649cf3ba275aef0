"""Symplectic checks, transforms, reduction, entropy, temperature map."""

import ast
import math
import re
import struct
import sys
import warnings

import numpy as np
import pytest
from mpmath import mp

from oscsym.families import FIFTEEN_LABELS, TENFOLD_LABELS, build_generator_set
from oscsym import phase_space
from oscsym.phase_space import (
    GaussianState,
    SubVacuumError,
    areas,
    coupling_transform,
    eta_from_temperature,
    evolve,
    gaussian_entropy,
    gaussian_purity,
    generator_to_transform,
    is_canonical,
    occupation_entropy,
    reduce_oscillator,
    symplectic_deviation,
    temperature_from_eta,
    vacuum_state,
)
from oscsym.phase_space import _VACUUM, _congruence, _det2, _rows
from oscsym.fock import gauss_hermite, moments

EXTENSION_LABELS = ("S1", "S2", "G1", "G2", "G3")


# ---------------------------------------------------------------------------
# symplectic form and canonicality

_J = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
               [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])


def test_symplectic_form_invariants():
    assert np.array_equal(_J.T, -_J)
    assert np.allclose(_J @ _J, -np.eye(4))
    # J J J^T = J: the form the deviation is measured against is this J
    assert symplectic_deviation(_J) == 0.0 and is_canonical(_J)


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
    assert np.abs(np.array(m1) @ m2 - m12).max() <= 1e-12


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


def _bits(m):
    return [struct.pack("<d", x) for row in m for x in row]


# signed zeros, the smallest subnormal and the overflow edge, then seeded draws
_ETAS = [0.0, -0.0, 5e-324, -5e-324, 709.78, -709.78, phase_space._LOG_MAX,
         *np.random.default_rng(30).uniform(-709.78, 709.78, 400).tolist(),
         *np.random.default_rng(31).uniform(-3.0, 3.0, 400).tolist()]


def test_coupling_transform_equals_its_closed_form_rows_bit_for_bit():
    """The 45-degree rotation's +-1/sqrt2 columns at e^eta, e^-eta, e^-eta, e^eta,
    with every zero entry +0.0; past e^709.78 the transform overflows."""
    r = 1.0 / math.sqrt(2.0)
    for eta in _ETAS:
        g, s = math.exp(eta), math.exp(-eta)
        want = ((r * g, 0.0, r * s, 0.0), (0.0, r * s, 0.0, r * g),
                (r * g, 0.0, -r * s, 0.0), (0.0, r * s, 0.0, -r * g))
        assert _bits(coupling_transform(eta)) == _bits(want), eta
    for eta in (math.nextafter(phase_space._LOG_MAX, math.inf), 710.0, -710.0, 1e4):
        with pytest.raises(OverflowError):
            coupling_transform(eta)


@pytest.mark.parametrize("label", FIFTEEN_LABELS)
def test_transform_equals_the_two_term_closed_form_bit_for_bit(label):
    """cos(theta) I + sin(theta) A for a rotation, e^theta P + e^-theta (I - P)
    with P = (I + A)/2 for a squeeze, A = 2 Im G read from the family."""
    a = (2.0 * build_generator_set("sl4r_4")[label].imag + 0.0).tolist()  # + 0.0: no -0.0
    eye = np.eye(4).tolist()
    for theta in _ETAS:
        if label[0] in "LS":
            u, v = math.cos(theta), math.sin(theta)
            want = [[u * i + v * x for i, x in zip(*rows)] for rows in zip(eye, a)]
        else:
            u, v = math.exp(theta), math.exp(-theta)
            p = [[0.5 * (i + x) for i, x in zip(*rows)] for rows in zip(eye, a)]
            want = [[u * q + v * (i - q) for i, q in zip(*rows)] for rows in zip(eye, p)]
        assert _bits(generator_to_transform(label, theta)) == _bits(want), theta


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("flow", ["coupling", *FIFTEEN_LABELS])
def test_flows_refuse_a_non_finite_parameter(flow, theta):
    # unchecked, these gave rows of NaN (coupling, K1) or a math domain error (L1 at inf)
    with pytest.raises(ValueError, match=r"theta \(eta for the coupling\) must be finite"):
        coupling_transform(theta) if flow == "coupling" else generator_to_transform(flow, theta)


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


def test_gaussian_state_cov_cannot_be_assigned():
    state = vacuum_state()
    with pytest.raises(AttributeError):
        state.cov = np.eye(4) / 2
    assert state.cov == vacuum_state().cov


_COUPLED = evolve(vacuum_state(), coupling_transform(0.3))
#: every function that takes a matrix: (route, a valid n x n input)
MATRIX_ROUTES = {
    "symplectic_deviation": (symplectic_deviation, _COUPLED.cov),
    "is_canonical": (is_canonical, _COUPLED.cov),
    "GaussianState": (lambda c: GaussianState(c).cov, _COUPLED.cov),
    "evolve": (lambda m: evolve(_COUPLED, m).cov, _COUPLED.cov),
    "gaussian_purity": (gaussian_purity, reduce_oscillator(_COUPLED, 1)),
    "gaussian_entropy": (gaussian_entropy, reduce_oscillator(_COUPLED, 1)),
}


def _tuples(x):
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


def _spellings(matrix):
    """The same matrix as an ndarray, nested lists and nested tuples."""
    array = np.array(matrix, dtype=float)
    return array, array.tolist(), _tuples(array.tolist())


@pytest.mark.parametrize("name", MATRIX_ROUTES)
def test_ndarray_list_and_tuple_inputs_read_alike(name):
    route, valid = MATRIX_ROUTES[name]
    n = len(valid)
    results = [route(m) for m in _spellings(valid)]
    assert results[0] == results[1] == results[2]
    for wrong in (np.eye(n + 1), np.zeros(n)):
        refusals = []
        for m in _spellings(wrong):
            shape = re.escape(str(wrong.shape))
            with pytest.raises(ValueError, match=rf"must be {n}x{n}, got {shape}$") as exc:
                route(m)
            refusals.append(str(exc.value))
        assert refusals[0] == refusals[1] == refusals[2]


#: every matrix the module builds: (name, the matrix, its size)
LIBRARY_MATRICES = {
    "generator_to_transform": (generator_to_transform("K1", 0.4), 4),
    "coupling_transform": (coupling_transform(0.3), 4),
    "_congruence": (_congruence(coupling_transform(0.3), _VACUUM), 4),
    "GaussianState.cov": (_COUPLED.cov, 4),
    "vacuum_state": (vacuum_state().cov, 4),
    "reduce_oscillator": (reduce_oscillator(_COUPLED, 2), 2),
}


@pytest.mark.parametrize("name", LIBRARY_MATRICES)
def test_library_rows_are_read_as_they_are(name):
    matrix, n = LIBRARY_MATRICES[name]
    assert _rows(matrix, n, "matrix") is matrix
    # the same rows spelled by a caller get the float pass, to the same values
    for spelling in _spellings(matrix):
        rows = _rows(spelling, n, "matrix")
        assert rows is not spelling and rows == [list(row) for row in matrix]


def test_library_rows_of_the_wrong_size_are_refused_as_before():
    block, cov = reduce_oscillator(_COUPLED, 1), _COUPLED.cov
    cases = [(route, block, r"^transform must be 4x4, got \(2, 2\)$")
             for route in (symplectic_deviation, is_canonical, lambda m: evolve(_COUPLED, m))]
    cases.append((GaussianState, block, r"^covariance must be 4x4, got \(2, 2\)$"))
    cases += [(route, cov, r"^covariance must be 2x2, got \(4, 4\)$")
              for route in (gaussian_purity, gaussian_entropy)]
    for route, matrix, message in cases:
        for m in (matrix, _tuples(np.array(matrix).tolist())):
            with pytest.raises(ValueError, match=message):
                route(m)


def _pipeline_outputs(m, spell):
    """Every output of the pipeline from M, with M and each block spelled by spell."""
    try:
        state = evolve(vacuum_state(), spell(m))
    except ValueError as exc:  # GaussianState's 4x4 pivot check: the pd-check defect
        return [str(exc)]
    outputs = [state.cov, is_canonical(spell(m)), symplectic_deviation(spell(m)),
               _outcome(areas, state)]
    for keep in (1, 2):
        block = spell(reduce_oscillator(state, keep))
        outputs += [_outcome(gaussian_purity, block), _outcome(gaussian_entropy, block)]
    return outputs


@pytest.mark.parametrize("source", FIFTEEN_LABELS + ("couple",))
def test_pipeline_outputs_equal_for_library_list_and_ndarray_rows(source):
    thetas = [0.0, 0.05, -0.4, 0.9, 1.7, -2.6, 4.0, -7.5, 9.5, 20.0]
    if source == "couple":
        transforms = [coupling_transform(abs(theta)) for theta in thetas]
    else:
        transforms = [generator_to_transform(source, theta) for theta in thetas]
    for m in transforms:
        outputs = [_pipeline_outputs(m, spell) for spell in
                   (lambda x: x, lambda x: np.array(x).tolist(), np.array)]
        assert outputs[0] == outputs[1] == outputs[2]


def test_state_cov_stays_a_tuple_of_tuples_with_the_same_repr():
    for state in (vacuum_state(), _COUPLED):
        plain = tuple(map(tuple, state.cov))
        assert isinstance(state.cov, tuple) and all(type(row) is tuple for row in state.cov)
        assert state.cov == plain and hash(state.cov) == hash(plain)
        assert repr(state) == f"GaussianState(cov={plain!r})"
    assert repr(vacuum_state()) == (
        "GaussianState(cov=((0.5, 0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.0), "
        "(0.0, 0.0, 0.5, 0.0), (0.0, 0.0, 0.0, 0.5)))")


# no filterwarnings override: the pyproject error::RuntimeWarning filter applies
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_covariance_refuses_non_finite_entries(entry):
    block = np.eye(2) / 2
    block[0, 0] = entry
    for route in (gaussian_purity, gaussian_entropy):
        with pytest.raises(ValueError, match="finite"):
            route(block)
    cov = np.eye(4) / 2
    cov[1, 2] = cov[2, 1] = entry
    with pytest.raises(ValueError, match="finite"):
        GaussianState(cov)
    for cell in np.ndindex(4, 4):
        cov = np.eye(4) / 2
        cov[cell] = entry
        with pytest.raises(ValueError, match="finite"):
            GaussianState(cov)


def test_evolve_refuses_nan_transform():
    # the NaN covariance is refused by name, before its pivots are taken
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
        assert np.abs(np.array(out.cov) - vac.cov).max() <= 1e-14, label


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


@pytest.mark.parametrize("keep", [True, False, 1.0, 2.0, "1", None])
def test_reduce_refuses_a_bool_or_non_integer_keep(keep):
    # True and 2.0 were read as oscillators 1 and 2
    with pytest.raises(TypeError, match="keep must be an integer"):
        reduce_oscillator(_COUPLED, keep)


def test_reduce_reads_any_integer_keep():
    for keep in (1, 2):
        assert reduce_oscillator(_COUPLED, np.int64(keep)) == reduce_oscillator(_COUPLED, keep)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v", [math.nan, -1.0, -1e-300])
def test_occupation_entropy_refuses_nan_and_negative_occupation(v):
    # unchecked, NaN returned NaN and a negative v raised a bare math domain error
    with pytest.raises(ValueError, match=f"v = {v}"):
        occupation_entropy(v)


@pytest.mark.filterwarnings("error")
def test_occupation_entropy_limits():
    # inf gave NaN from inf * log1p(0); -0.0 reads as the vacuum
    assert occupation_entropy(math.inf) == math.inf
    assert math.copysign(1.0, occupation_entropy(-0.0)) == 1.0


def test_entropy_subvacuum_rejected():
    eta = 0.5
    st = evolve(vacuum_state(), generator_to_transform("G3", eta))
    contracted = reduce_oscillator(st, 2)
    assert abs(1.0 / gaussian_purity(contracted) - np.e ** -1.0) <= 1e-12
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
# 2x2 block invariants: one check, and positive definiteness judged by the
# determinant that mu is taken from

BLOCK_ROUTES = (gaussian_purity, gaussian_entropy)


# no filterwarnings override: the pyproject error::RuntimeWarning filter applies
@pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_block_refuses_non_finite_entries_without_a_warning(entry, cell):
    block = np.array([[0.5, 0.1], [0.1, 0.5]])
    block[cell] = entry
    for route in BLOCK_ROUTES:
        with pytest.raises(ValueError, match="finite"):
            route(block)


@pytest.mark.parametrize("block", [
    # eigvalsh reads min 1.8e-12 > 0 here, but det is 0.0: purity divided by
    # zero and entropy reported "mu = 0" as a sub-vacuum state
    [[11256.628253635616, 25776.138655687628], [25776.138655687628, 59023.83102885591]],
    # eigvalsh passes and det < 0: mu = 2 sqrt(det) was NaN
    [[0.6529466265982962, 1.1024726151161643], [1.1024726151161643, 1.8614781324673833]],
])
def test_block_refuses_when_its_det_is_not_positive(block):
    for route in BLOCK_ROUTES:
        with pytest.raises(ValueError, match="positive definite"):
            route(np.array(block))


def test_near_rank_one_blocks_refuse_or_return_a_positive_mu():
    # v v^T with the off-diagonal nudged by a few ulps either way: the
    # eigvalsh check used to pass thousands of these with det <= 0.  Each
    # block also heads a state whose second block is the vacuum: areas
    # refuses exactly when the block routes do
    rng = np.random.default_rng(13)
    refused = 0
    states = {"refused": 0, "equal": 0}
    for x, y, nudge in zip(rng.uniform(0.1, 300.0, 2000), rng.uniform(0.1, 300.0, 2000),
                           rng.uniform(-4e-16, 4e-16, 2000)):
        block = np.array([[x * x, x * y * (1 + nudge)], [x * y * (1 + nudge), y * y]])
        cov = np.eye(4) / 2
        cov[:2, :2] = block
        try:
            state = GaussianState(cov)
        except ValueError:  # the 4x4 pivots refuse it first
            state = None
        try:
            purity = gaussian_purity(block)
        except ValueError as exc:
            assert str(exc) == "covariance must be positive definite"
            refused += 1
            with pytest.raises(ValueError, match="positive definite"):
                gaussian_entropy(block)
            if state is not None:
                with pytest.raises(ValueError, match="^covariance must be positive definite$"):
                    areas(state)
                states["refused"] += 1
        else:
            assert purity > 0
            if state is not None:
                assert areas(state) == _reference_areas(state)
                states["equal"] += 1
    assert 0 < refused < 2000
    assert min(states.values()) > 0


def _reference_mu(cov2):
    """mu by the eigvalsh-checked formula the block routes replaced: the reference."""
    cov2 = np.asarray(cov2, dtype=float)
    if cov2.shape != (2, 2):
        raise ValueError(f"covariance must be 2x2, got {cov2.shape}")
    if not np.abs(cov2 - cov2.T).max() <= 1e-12:
        raise ValueError("covariance must be finite and symmetric (within 1e-12)")
    cov2 = 0.5 * (cov2 + cov2.T)
    if np.linalg.eigvalsh(cov2).min() <= 0:
        raise ValueError("covariance must be positive definite")
    return float(2.0 * np.sqrt(np.linalg.det(cov2)))


def _reference_entropy(cov2):
    mu = _reference_mu(cov2)
    if mu < 1.0 - 1e-12:
        raise SubVacuumError(f"symplectic eigenvalue mu = {mu:.12g} < 1: sub-vacuum "
                             "covariance has no quantum entropy")
    return occupation_entropy(max((mu - 1.0) / 2.0, 0.0))


def _reference_areas(state):
    return tuple(float(2.0 * np.pi * np.sqrt(np.linalg.det(reduce_oscillator(state, keep))))
                 for keep in (1, 2))


def _reference_is_canonical(m):
    m = np.array(m)
    deviation = float(np.abs(m @ _J @ m.T - _J).max())
    return deviation <= 1e-12 * max(1.0, float(np.abs(m).max())) ** 2


PAIRED_ROUTES = ((gaussian_purity, lambda b: 1.0 / _reference_mu(b)),
                 (gaussian_entropy, _reference_entropy))


def _outcome(route, arg):
    """The value a route returns, or the type and message of its refusal."""
    try:
        return route(arg)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("source", FIFTEEN_LABELS + ("couple",))
def test_block_invariants_equal_the_eigvalsh_route(source):
    if source == "couple":
        transforms = [coupling_transform(0.1 * i) for i in range(1, 121)]
    else:
        transforms = [generator_to_transform(source, 0.1 * i) for i in range(-120, 121)]
    compared = 0
    for m in transforms:
        assert is_canonical(m) == _reference_is_canonical(m)
        try:
            state = evolve(vacuum_state(), m)
        except ValueError:  # GaussianState's 4x4 pivot check: the pd-check defect
            continue
        assert areas(state) == _reference_areas(state)
        for keep in (1, 2):
            block = reduce_oscillator(state, keep)
            for route, reference in PAIRED_ROUTES:
                assert _outcome(route, block) == _outcome(reference, block)
            compared += 1
    assert compared >= len(transforms)  # both blocks of at least half the states


@pytest.mark.parametrize("block,match", [
    (np.eye(3) / 2, r"2x2, got \(3, 3\)"),
    ([[1.0, 0.5], [0.5 + 2e-12, 1.0]], r"finite and symmetric \(within 1e-12\)"),
    (-np.eye(2), "positive definite"),
    (np.zeros((2, 2)), "positive definite"),
    ([[1.0, 2.0], [2.0, 1.0]], "positive definite"),
    ([[0.7, 0.2], [0.2 + 9e-13, 0.9]], None),  # asymmetric within the tolerance
    ([[0.5, -3e-13], [0.0, 0.5]], None),
])
def test_block_refusals_and_symmetrisation_equal_the_eigvalsh_route(block, match):
    for route, reference in PAIRED_ROUTES:
        got = _outcome(route, block)
        assert got == _outcome(reference, block)
        if match is not None:
            assert got[0] == "ValueError" and re.search(match, got[1])


# ---------------------------------------------------------------------------
# 2x2 determinants in Python scalars: bit for bit as np.linalg.det on a normal pivot


def test_phase_space_imports_only_the_standard_library():
    tree = ast.parse(open(phase_space.__file__).read())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {"." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert {m.split(".")[0] for m in modules} <= sys.stdlib_module_names, modules


def _det2_draws(count, seed):
    """(count, 2, 2) blocks: wide, near-singular, exactly singular and plain, of either sign."""
    rng = np.random.default_rng(seed)
    n = count // 4
    # entries over e^-12..e^12, about half with |c| > |a| (a row swap)
    wide = rng.choice([-1.0, 1.0], (n, 2, 2)) * np.exp(rng.uniform(-12.0, 12.0, (n, 2, 2)))
    # second row = first row times r, one entry nudged by a few ulps: det near 0
    row = np.exp(rng.uniform(-12.0, 12.0, (n, 1, 2)))
    near = np.concatenate([row, row * np.exp(rng.uniform(-3.0, 3.0, (n, 1, 1)))], axis=1)
    near[:, 1, 1] *= 1.0 + rng.uniform(-4e-16, 4e-16, n)
    # integer rows, the second an integer multiple of the first: det exactly 0
    row = rng.integers(1, 60, (n, 1, 2)).astype(float)
    exact = np.concatenate([row, row * rng.integers(-5, 6, (n, 1, 1))], axis=1)
    # row and column signs keep the singular ones singular
    flips = rng.choice([-1.0, 1.0], (2 * n, 2, 1)) * rng.choice([-1.0, 1.0], (2 * n, 1, 2))
    return np.concatenate([wide, flips * np.concatenate([near, exact]),
                           rng.normal(size=(n, 2, 2))])


def test_det2_equals_numpy_det_on_seeded_draws():
    blocks = _det2_draws(100_000, seed=2002)
    expected = np.linalg.det(blocks).tolist()
    got = [_det2(a, b, c, d) for (a, b), (c, d) in blocks.tolist()]
    assert got == expected
    # the sign of a zero too: 0.0 == -0.0 would hide it
    assert [np.copysign(1.0, x) for x in got] == [np.copysign(1.0, x) for x in expected]
    assert got.count(0.0) > 10_000 and min(got) < 0 < max(got)


SPECIAL_BLOCKS = [
    [[1e-310, 0.0], [0.0, 1.0]],       # subnormal pivot: a bare 1/a is inf, 0 * inf NaN
    # subnormal pivot with a finite 1/a: numpy reads 3.17e-311, the LU steps 7.74e-312
    [[-7.004646341155436e-309, -0.005677696061279298],
     [-4.220642160783096e-309, -0.004526492921104458]],
    [[0.0, 1e-310], [1e-309, 1.0]],    # swap onto a subnormal pivot: -1e-619 rounds to -0.0
    [[5e-324, 5e-324], [5e-324, 5e-324]],
    [[5e-324, 0.0], [0.0, 5e-324]],    # the det underflows to 0
    [[1e-200, 0.0], [0.0, -1e-200]],   # underflows to -0.0
    [[0.0, 0.0], [0.0, 0.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[1e300, 0.0], [0.0, 1e300]],      # the det overflows
    [[1e300, 1.0], [1.0, -1e300]],
    [[1e-300, 1e300], [-1e300, 1e-300]],
    [[1e308, 1.0], [1.0, 1e308]],
    [[1e154, 0.0], [0.0, 1e154]],      # 1e308: just finite
    [[1.5, 2.5], [-3.5, 4.5]],
]
SUBNORMAL_PIVOTS = SPECIAL_BLOCKS[:5]
OVERFLOWS = SPECIAL_BLOCKS[8:12]
#: subnormal pivots where numpy's det is not the exact one: its OpenBLAS scales by 1/p
NUMPY_INEXACT = SPECIAL_BLOCKS[1:3]


def _special(blocks):
    """Parameters named by their row in SPECIAL_BLOCKS."""
    return [pytest.param(block, id=f"block{SPECIAL_BLOCKS.index(block)}") for block in blocks]


@pytest.mark.parametrize("block", _special(
    [block for block in SPECIAL_BLOCKS if block not in OVERFLOWS + NUMPY_INEXACT]))
def test_det2_equals_numpy_det_on_special_blocks(block):
    (a, b), (c, d) = block
    got, expected = _det2(a, b, c, d), float(np.linalg.det(np.array(block)))
    assert (got, math.copysign(1.0, got)) == (expected, math.copysign(1.0, expected))


@pytest.mark.parametrize("block", _special(SUBNORMAL_PIVOTS))
def test_det2_on_a_subnormal_pivot_is_the_exact_det(block):
    # the LU steps divide by the pivot as reference LAPACK's dgetf2 does
    (a, b), (c, d) = block
    with mp.workdps(50):
        exact = float(mp.mpf(a) * mp.mpf(d) - mp.mpf(b) * mp.mpf(c))
    got = _det2(a, b, c, d)
    assert abs(got - exact) <= math.ulp(exact)
    assert math.copysign(1.0, got) == math.copysign(1.0, exact)


@pytest.mark.parametrize("block", _special(OVERFLOWS))
def test_det2_refuses_an_overflowing_det(block):
    (a, b), (c, d) = block
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OverflowError, match="exceeds the largest double"):
            _det2(a, b, c, d)
    assert caught == []


def test_gaussian_functions_refuse_an_overflowing_det():
    # the G3 flow at theta = 180 scales plane 1 by e^180: det e^720 / 4 of its block
    state = evolve(vacuum_state(), generator_to_transform("G3", 180.0))
    block = reduce_oscillator(state, 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for route, arg in ((gaussian_purity, block), (gaussian_entropy, block), (areas, state)):
            with pytest.raises(OverflowError, match="exceeds the largest double"):
                route(arg)
    assert caught == []


# ---------------------------------------------------------------------------
# the 4x4 covariance check: LDL^T pivots in Python scalars


def _reference_state_cov(cov):
    """GaussianState's covariance by the eigvalsh-checked route it replaced: the reference."""
    cov = np.asarray(cov, dtype=float)
    if not np.abs(cov - cov.T).max() <= 1e-12:
        raise ValueError("covariance must be finite and symmetric (within 1e-12)")
    cov = 0.5 * (cov + cov.T)
    if np.linalg.eigvalsh(cov).min() <= 0:
        raise ValueError("covariance must be positive definite")
    return cov


def _state_outcome(route, cov):
    try:
        return np.array(route(cov)).tobytes()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("source", FIFTEEN_LABELS + ("couple",))
def test_covariance_check_accepts_what_eigvalsh_accepts(source):
    # up to |theta| = 8.5, below the rounding-dependent pd-check zone
    params = [0.05 * i for i in range(-170, 171)]
    if source == "couple":
        transforms = [coupling_transform(0.01 * i) for i in range(1, 851)]
    else:
        transforms = [generator_to_transform(source, theta) for theta in params]
    vacuum = np.array(vacuum_state().cov)
    for m in transforms:
        cov = np.array(m) @ vacuum @ np.transpose(m)
        # raw M cov M^T is asymmetric by its rounding; evolve symmetrises it first
        for candidate in (cov, 0.5 * (cov + cov.T)):
            expected = _state_outcome(_reference_state_cov, candidate)
            assert _state_outcome(lambda c: GaussianState(c).cov, candidate) == expected
        # evolve forms M C M^T in plain scalar sums, where BLAS may fuse a
        # multiply-add: the same acceptance, judged on its own product
        got = _state_outcome(lambda t: evolve(vacuum_state(), t).cov, m)
        assert got == _state_outcome(_reference_state_cov, np.array(_congruence(m, _VACUUM)))
        assert isinstance(got, bytes) == isinstance(expected, bytes)


def test_covariance_check_stores_the_symmetrised_copy():
    cov = np.array([[0.7, 0.2, 0.0, 0.1], [0.2 + 9e-13, 0.9, 0.0, 0.0],
                    [0.0, 0.0, 0.5, -3e-13], [0.1, 0.0, 0.0, 0.5]])
    state = GaussianState(cov)
    assert np.array_equal(state.cov, _reference_state_cov(cov))
    assert np.array_equal(state.cov, np.transpose(state.cov))
    assert isinstance(state.cov, tuple) and all(isinstance(row, tuple) for row in state.cov)


ASYMMETRIC = "covariance must be finite and symmetric (within 1e-12)"
NOT_POSITIVE_DEFINITE = "covariance must be positive definite"


@pytest.mark.parametrize("cov,message", [
    (-np.eye(4), NOT_POSITIVE_DEFINITE),
    (np.zeros((4, 4)), NOT_POSITIVE_DEFINITE),
    (np.outer([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]), NOT_POSITIVE_DEFINITE),  # rank one
    (np.diag([0.5, 0.5, 0.5, -1e-300]), NOT_POSITIVE_DEFINITE),
    *((np.diag([0.0 if i == k else 0.5 for i in range(4)]), NOT_POSITIVE_DEFINITE)
      for k in range(4)),  # each LDL^T pivot exactly 0 in turn
    (np.eye(4) / 2 + 2e-12 * np.eye(4, k=1), ASYMMETRIC),
])
def test_covariance_check_refusals_equal_the_eigvalsh_route(cov, message):
    with pytest.raises(ValueError) as exc:
        GaussianState(cov)
    assert str(exc.value) == message == _state_outcome(_reference_state_cov, cov)


def test_areas_refuse_a_block_whose_det_cancels_below_zero():
    # LDL^T accepts this near-rank-one block, and eigvalsh did too (2.3e-13),
    # but the block's LU det is -4.3e-9: areas used to return NaN with numpy's
    # warning; it now refuses the block as gaussian_purity does
    cov = np.diag([18881.969807879806, 1219.860779961226, 0.5, 0.5])
    cov[0, 1] = cov[1, 0] = 4799.309785484219
    state = GaussianState(cov)
    assert _reference_state_cov(cov).tobytes() == np.array(state.cov).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            areas(state)
        assert str(exc.value) == "covariance must be positive definite"
        with pytest.raises(ValueError, match="^covariance must be positive definite$"):
            gaussian_purity(reduce_oscillator(state, 1))


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
    assert abs((2 * np.pi) ** 2 * np.sqrt(np.linalg.det(st.cov)) - np.pi ** 2) <= 1e-10


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
