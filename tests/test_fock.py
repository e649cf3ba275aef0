"""Fock realization, eigenfunction oracles, series and thermal states."""

import json
import sys
import tracemalloc
import warnings
from dataclasses import astuple
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from oscsym import fock
from oscsym.algebra import alge11_table
from oscsym.fock import (
    _HERMITE_BLOCK,
    _MAX_ETA,
    _MAX_NODES,
    _QUADRATICS,
    _SERIES_BLOCK,
    _gauss_hermite_rule,
    _ladder_logs,
    _node_squares,
    _psi_eta_grid,
    _weighted_phi,
    _word_plan,
    _word_values,
    HERMITE_KMAX,
    MAX_KMAX,
    MAX_NMAX,
    ThermalState,
    basis_state,
    dirac_tenfold,
    expansion_coefficient,
    expansion_overlap,
    fock_index,
    gauss_hermite,
    kmax_for_tail,
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
from oscsym.phase_space import (_LOG_MAX, eta_from_temperature, occupation_entropy,
                                temperature_from_eta)


# ---------------------------------------------------------------------------
# product basis

def test_fock_index_bounds():
    with pytest.raises(ValueError):
        fock_index(4, 4, 0)


@pytest.mark.parametrize("call", [
    lambda: fock_index(8.5, 1, 1), lambda: fock_index(8, 1.5, 1),
    lambda: fock_index(8, 1, 1.0), lambda: basis_state(8, 1.0, 0),
    lambda: basis_state(8.0, 0, 0),
])
def test_basis_refuses_non_integer_arguments(call):
    # a float once gave a fractional index (fock_index(8.5, 1, 1) == 9.5) or
    # leaked numpy's own IndexError/TypeError from basis_state
    with pytest.raises(TypeError, match="integer"):
        call()


def test_basis_accepts_numpy_integers():
    assert fock_index(np.int64(8), np.int64(1), 2) == 10
    assert np.array_equal(basis_state(np.int64(4), 1, 1), np.eye(16)[5])


@pytest.mark.parametrize("nmax, error", [(8.5, TypeError), (8.0, TypeError),
                                         (3, ValueError), (-3, ValueError)])
def test_safe_subspace_mask_refuses_what_dirac_tenfold_refuses(nmax, error):
    for build in (safe_subspace_mask, dirac_tenfold):
        with pytest.raises(error):
            build(nmax)


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


@pytest.mark.parametrize("nmax", [*range(4, 11), 12, 16])
def test_tenfold_equals_dense_reference(nmax):
    gens = dirac_tenfold(nmax)
    ref = _dense_tenfold(nmax)
    assert gens.labels == tuple(ref)
    for label, m in ref.items():
        assert gens[label].dtype == m.dtype, label
        assert np.array_equal(gens[label], m), label


def test_tenfold_members_are_read_only_c_contiguous_complex():
    for label, m in dirac_tenfold(6).members.items():
        assert m.dtype == np.complex128 and m.flags.c_contiguous, label
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0


@pytest.mark.parametrize("nmax", [12, 24])
def test_tenfold_holds_no_transient_dense_copy(nmax):
    dirac_tenfold(4)  # the word plan is cached on first use
    assert _peak_bytes(dirac_tenfold, nmax) <= 1.05 * 10 * nmax ** 4 * 16


@pytest.mark.parametrize("nmax", [*range(4, 41), 128, 256])
def test_diagonal_values_equal_the_term_loop_bit_for_bit(nmax):
    """Each one-mode word of the plan is one diagonal of the loop over its
    letters: the product of the truncated dense a and a.T, left to right."""
    a, n = np.diag(np.sqrt(np.arange(1, nmax)), 1), np.arange(nmax)
    words = _word_plan()[0]
    assert len(words) == 25 and max(map(len, words)) == 4
    for word, got in zip(words, _word_values(words, nmax, nmax)):
        dense = reduce(np.matmul, [a if op == "a" else a.T for op in word], np.eye(nmax))
        column = n + word.count("a") - word.count("A")
        inside = (0 <= column) & (column < nmax)
        want = np.zeros(nmax)
        want[inside] = dense[n[inside], column[inside]]
        assert got.tobytes() == want.tobytes(), word


@pytest.mark.parametrize("nmax", [6, 8, 10, 12, 16])
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


@pytest.fixture
def edit_quadratic(monkeypatch):
    """Edit one of ``_QUADRATICS`` for one test; the word plan is rebuilt from
    the edit, and from the shipped formulas again afterwards."""
    def edit(label, quadratic):
        monkeypatch.setitem(_QUADRATICS, label, quadratic)
        _word_plan.cache_clear()
    yield edit
    monkeypatch.undo()
    _word_plan.cache_clear()


@pytest.mark.parametrize("label, quadratic, pair, residual", [
    ("Q1", (-0.25j, "+A1A1 -a1a1 -A2A2 +a2a2"), ("K1", "Q1"), 0.6666666666666665),
    ("S3", (0.5, "+A1a1 +A2a2"), ("K3", "Q3"), 0.08000000000000014),
    ("K3", (0.5, "+A1A2 -a1a2"), ("K3", "Q3"), 0.33333333333333326),
])
def test_fock_check_fails_on_an_edited_generator(edit_quadratic, label, quadratic, pair, residual):
    # the residuals the (s, n1)-grid diagonal check read for the same edits;
    # the plan cancels terms symbolically, so a wrong generator must still show
    edit_quadratic(label, quadratic)
    rep = verify_fock_commutators(8)
    assert not rep.passed
    assert rep.worst_pair == pair and abs(rep.max_residual - residual) <= 1e-15


def test_fock_check_refuses_a_generator_of_the_wrong_phase(edit_quadratic):
    edit_quadratic("L1", (0.5j, "+A1a2 +A2a1"))
    with pytest.raises(ValueError, match="bracket table phases do not match"):
        verify_fock_commutators(8)


def test_fock_check_memory_does_not_grow_with_the_square():
    verify_fock_commutators(6)  # the word plan is cached on first use
    assert _peak_bytes(verify_fock_commutators, 256) < 8 * 2 ** 20


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
    # ten dense members at nmax 51 would exceed the cap; refused before allocating
    with pytest.raises(ValueError, match="MiB"):
        dirac_tenfold(51)


def test_dirac_tenfold_refuses_past_64_mib():
    # nmax 25 takes 59.6 MiB, nmax 26 would take 69.7 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limit 64 MiB"):
            dirac_tenfold(26)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 16
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("nmax", [MAX_NMAX + 1, 10 ** 6])
@pytest.mark.parametrize("build", [safe_subspace_mask, lambda nmax: basis_state(nmax, 0, 0)])
def test_basis_arrays_refuse_nmax_past_the_cap_before_allocating(build, nmax):
    # at nmax 10**6 the mask alone would take about 23 TiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"nmax must be in .*{MAX_NMAX}"):
            build(nmax)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 16
    finally:
        tracemalloc.stop()


def test_basis_arrays_accept_nmax_at_the_cap():
    assert safe_subspace_mask(MAX_NMAX).sum() == (MAX_NMAX - 2) * (MAX_NMAX - 1) // 2
    assert basis_state(MAX_NMAX, 0, 1)[1] == 1.0


def test_quadratics_are_in_the_bracket_table_order():
    # the bracket plan reads alge11_table().f without relabelling
    assert tuple(_QUADRATICS) == alge11_table().labels


@pytest.mark.parametrize("build", [verify_fock_commutators, dirac_tenfold])
def test_fock_refuses_non_integer_nmax(build):
    # refused before the nmax is used to size or index anything
    with pytest.raises(TypeError):
        build(8.5)


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
    h = np.stack([phi(k, x) for k in range(9)])
    gram = (h * w) @ h.T
    assert np.abs(gram - np.eye(9)).max() <= 1e-10


@pytest.mark.parametrize("k", [0, 1, 7, 200])
def test_phi_is_row_k_of_the_hermite_table(k):
    for x in (0.3, np.linspace(-4.0, 4.0, 33)):
        got, want = phi(k, x), _recurrence_table(k, x)[k]
        assert type(got) is type(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [-1, HERMITE_KMAX + 1, 500])
def test_k_refusals_name_k(k):
    # both used to say "kmax ... exceeds the recurrence cap" or "k must be >= 0"
    message = rf"^k must be in \[0, {HERMITE_KMAX}\], got {k}$"
    with pytest.raises(ValueError, match=message):
        phi(k, 0.0)
    with pytest.raises(ValueError, match=message):
        expansion_overlap(1.0, k)


def test_rho_series_refusal_names_kmax():
    with pytest.raises(ValueError, match=rf"^kmax must be in \[0, {HERMITE_KMAX}\], got 201$"):
        rho_series(0.5, 0.1, 0.2, HERMITE_KMAX + 1)


def test_phi_caps_recurrence_depth():
    with pytest.raises(ValueError):
        phi(201, 0.0)
    with pytest.raises(ValueError):
        phi(-1, 0.0)


@pytest.mark.parametrize("call", [lambda: phi(0.5, 0.0), lambda: phi(2.5, 0.0),
                                  lambda: rho_series(0.5, 0.1, 0.2, 3.5)])
def test_non_integer_k_is_refused(call):
    # phi(0.5, 0.0) used to return phi_0(0) silently
    with pytest.raises(TypeError, match=r"^k(max)? must be an integer, got \d\.5$"):
        call()
    assert phi(np.int64(3), 0.3) == phi(3, 0.3)


@pytest.mark.parametrize("n,error", [(0, ValueError), (-1, ValueError), (2.5, TypeError),
                                     (True, TypeError),
                                     (_MAX_NODES + 1, ValueError), (10 ** 6, ValueError)])
def test_gauss_hermite_refuses_rules_past_the_weight_underflow(n, error):
    # unchecked, n = 371 sums its weights to 0.0, n >= 372 gives NaN weights
    # (only RuntimeWarnings), n = 10**6 asks hermgauss for a 7.28 TiB matrix,
    # and True, which operator.index reads as 1, gave the one-node rule
    tracemalloc.start()
    try:
        with pytest.raises(error, match=None if error is TypeError else f"\\[1, {_MAX_NODES}\\]"):
            gauss_hermite(n)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 16
    finally:
        tracemalloc.stop()


def test_gauss_hermite_builds_each_rule_once():
    # the default, a keyword and a numpy integer all read the one cached n = 128 rule
    _gauss_hermite_rule.cache_clear()
    rules = [gauss_hermite(), gauss_hermite(128), gauss_hermite(n=128),
             gauss_hermite(np.int64(128))]
    assert all(x is rules[0][0] and w is rules[0][1] for x, w in rules)
    assert _gauss_hermite_rule.cache_info().misses == 1
    assert not rules[0][0].flags.writeable and not rules[0][1].flags.writeable


@pytest.mark.parametrize("n", [1, 2, 127, 128, _MAX_NODES])
def test_gauss_hermite_nodes_come_in_exactly_negated_pairs(n):
    # the mirrored half of the psi_eta node grid relies on this exactly
    x, w = gauss_hermite(n)
    assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 128, _MAX_NODES])
def test_gauss_hermite_integrates_gaussians(n):
    x, w = gauss_hermite(n)
    assert abs(w @ np.exp(-x * x) / np.sqrt(np.pi) - 1.0) <= 1e-15
    if n > 1:  # exp(-x**2/4) = exp(3 x**2/4) exp(-x**2) is no low polynomial times exp(-x**2)
        assert abs(w @ np.exp(-0.25 * x * x) / (2.0 * np.sqrt(np.pi)) - 1.0) <= 1e-15


def _one_expression_psi_eta(eta, x1, x2):
    """psi_eta as one expression, as it was written before the in-place exponent."""
    quad = (np.exp(2 * eta) * (x1 - x2) ** 2 + np.exp(-2 * eta) * (x1 + x2) ** 2)
    return np.pi ** -0.5 * np.exp(-0.25 * quad)


@pytest.mark.parametrize("eta", [-1.0, -0.0, 0.0, 0.3, 1.45, 2.0, 5.0, float(_MAX_ETA)])
def test_psi_eta_equals_the_one_expression_formula(eta):
    x, _ = gauss_hermite()
    assert np.array_equal(psi_eta(eta, x[:, None], x[None, :]),
                          _one_expression_psi_eta(eta, x[:, None], x[None, :]))
    # a scalar squares by multiplication as an array does; the old scalar path
    # squared through numpy's scalar pow, which rounds differently for about
    # one point in 2000, so scalars are held to the formula on one-element arrays
    nodes = [(x[i], x[j]) for i in range(0, 128, 9) for j in range(0, 128, 13)]
    for a, b in nodes + np.random.default_rng(25).uniform(-6.0, 6.0, (200, 2)).tolist():
        got = psi_eta(eta, a, b)
        assert isinstance(got, np.float64)
        assert got == _one_expression_psi_eta(eta, np.array([a]), np.array([b]))[0]


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


def _direct_overlap(eta, k):
    x, w = gauss_hermite(128)
    weighted = w * _recurrence_table(k, x)[k]
    return float(weighted @ psi_eta(eta, x[:, None], x[None, :]) @ weighted)


@pytest.mark.parametrize("eta", [-1.0, -0.0, 0.0, 0.3, 1.45, 2.0, 5.0])
def test_expansion_overlap_equals_a_freshly_built_grid(eta):
    for k in (0, 1, 5, 8, 40, 200):
        assert expansion_overlap(eta, k) == _direct_overlap(eta, k)


def test_expansion_overlap_serves_no_stale_grid():
    first = [expansion_overlap(0.4, k) for k in range(3)]
    other = [expansion_overlap(1.1, k) for k in range(3)]
    assert [expansion_overlap(0.4, k) for k in range(3)] == first
    assert other == [_direct_overlap(1.1, k) for k in range(3)]
    assert other != first


def test_expansion_overlap_refuses_nan_after_a_cached_call():
    expansion_overlap(0.6, 2)
    with pytest.raises(ValueError, match="finite"):
        expansion_overlap(float("nan"), 2)
    assert expansion_overlap(0.6, 2) == _direct_overlap(0.6, 2)


def test_cached_psi_eta_grid_is_read_only():
    expansion_overlap(0.7, 1)
    grid = _psi_eta_grid(0.7)
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0] = 0.0


@pytest.mark.parametrize("eta", [0.0, -0.0, 0.3, -1.3, 2.0, float(_MAX_ETA), -float(_MAX_ETA)])
def test_mirrored_grid_equals_psi_eta_on_the_node_grid(eta):
    x, _ = gauss_hermite()
    grid = _psi_eta_grid.__wrapped__(eta)  # built afresh, not read from the cache
    assert np.array_equal(grid, psi_eta(eta, x[:, None], x[None, :]))
    assert not grid.flags.writeable


def test_node_squares_are_read_only_and_built_once():
    _node_squares.cache_clear()
    _psi_eta_grid.cache_clear()
    for eta in (0.2, 0.35, 0.2):
        expansion_overlap(eta, 1)
    assert _node_squares.cache_info().misses == 1
    x, _ = gauss_hermite()
    for table, want in zip(_node_squares(), (x[:64, None] - x, x[:64, None] + x)):
        assert table.shape == (64, 128) and not table.flags.writeable
        assert np.array_equal(table, want * want)
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


def test_a_fresh_eta_allocates_only_its_grid():
    expansion_overlap(0.9, 8)  # warms the node squares and the k = 8 row
    # 128 KiB for the grid; building it from psi_eta peaked near 395 KB
    assert _peak_bytes(expansion_overlap, 0.91, 8) < 256 * 2 ** 10


def test_expansion_overlap_reuses_the_grid_at_a_cached_eta():
    expansion_overlap(0.9, 0)
    # a fresh 128 x 128 grid, built from the cached node squares, peaks near 132 KB
    assert _peak_bytes(expansion_overlap, 0.9, 8) < 16 * 2 ** 10


def test_expansion_rejects_negative_k():
    with pytest.raises(ValueError):
        expansion_overlap(0.5, -1)
    with pytest.raises(ValueError):
        expansion_coefficient(0.5, -1)


@pytest.mark.parametrize("call", [
    lambda: expansion_coefficient(0.5, 1.5),
    lambda: expansion_overlap(0.5, 1.5),
    lambda: series_weights(0.5, 2.5),
    lambda: series_weights(0.0, 2.5),
    lambda: series_tail_bound(0.5, 2.5),
    lambda: series_tail_bound(0.5, -1.0),
    lambda: moments(0.5, 2.5),
], ids=["coefficient", "overlap", "weights", "weights-pure", "tail", "tail-negative",
        "moments"])
def test_series_functions_refuse_non_integer_k(call):
    # one TypeError, raised before moments' tail warning (an error here)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match="integer"):
            call()


@pytest.mark.parametrize("eta", [0.05, 0.8, 2.0, -1.3])
def test_expansion_overlap_equals_a_freshly_weighted_row(eta):
    # the cached w * phi(k, x) rows against rows and a grid built here
    x, w = gauss_hermite()
    grid = psi_eta(eta, x[:, None], x[None, :])
    for k in range(HERMITE_KMAX + 1):
        weighted = w * phi(k, x)
        assert expansion_overlap(eta, k) == float(weighted @ grid @ weighted), k


def test_expansion_overlap_refusals_leave_the_row_cache_bounded():
    for k in range(HERMITE_KMAX + 1):
        expansion_overlap(0.5, k)
    for k in (-1, HERMITE_KMAX + 1):
        with pytest.raises(ValueError):
            expansion_overlap(0.5, k)
        assert _weighted_phi.cache_info().currsize <= HERMITE_KMAX + 1
    with pytest.raises(TypeError):
        expansion_overlap(0.5, 0.5)  # not silently read as phi_0


def test_cached_weighted_rows_are_read_only():
    expansion_overlap(0.7, 3)
    row = _weighted_phi(3)
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0] = 0.0


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


@pytest.mark.parametrize("eta", [0.0, 0.5])
@pytest.mark.parametrize("kmax", [-1, -2])
def test_series_weights_negative_kmax_is_empty_ladder(eta, kmax):
    # the pure state (eta = 0) takes its own branch; both read kmax < 0 as no terms
    w = series_weights(eta, kmax)
    assert w.shape == (0,) and w.dtype == np.float64
    assert series_tail_bound(eta, kmax) == 1.0
    with pytest.warns(UserWarning, match="tail bound"):
        m = moments(eta, kmax)
    assert (m.purity, m.entropy) == (w @ w, 0.0)


def test_moments_pure_state():
    m = moments(0.0, 10)
    assert series_weights(0.0, 10).sum() == 1.0
    assert m.purity == 1.0
    assert m.entropy == 0.0
    assert series_tail_bound(0.0, 10) == 0.0


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
    (8.0, "MAX_KMAX"),          # 6.1e7 terms
    (19.0, "MAX_KMAX"),         # tanh^2 == 1.0, but ln q from e^{-2 eta}: 2.2e17 terms
    (float("nan"), "finite"),
    (float("inf"), "finite"),
    (_MAX_ETA + 1.0, f"-{_MAX_ETA}, {_MAX_ETA}"),  # "eta must be a finite number in [-350, 350]"
])
def test_kmax_for_tail_refuses_unbounded_series(eta, match):
    with pytest.raises(ValueError, match=match):
        kmax_for_tail(eta)


_X = np.array([0.0, 0.5])
ETA_ORACLES = {
    "moments": lambda eta: astuple(moments(eta)),
    "series_weights": lambda eta: series_weights(eta),
    "series_tail_bound": lambda eta: series_tail_bound(eta),
    "rho_reduced": lambda eta: rho_reduced(eta, _X, _X),
    "rho_series": lambda eta: rho_series(eta, _X, _X),
    "rho_partial_trace": lambda eta: rho_partial_trace(eta, _X, _X),
    "psi_eta": lambda eta: psi_eta(eta, _X, _X),
    "expansion_coefficient": lambda eta: expansion_coefficient(eta, 2),
    "expansion_overlap": lambda eta: expansion_overlap(eta, 2),
}


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("oracle", ETA_ORACLES)
def test_eta_oracles_refuse_non_finite_eta(oracle, eta):
    # without the check each oracle returns NaN or a silent limit, not an error
    with pytest.raises(ValueError, match="finite"):
        ETA_ORACLES[oracle](eta)


@pytest.mark.parametrize("eta", [_MAX_ETA + 1.0, -_MAX_ETA - 1.0])
@pytest.mark.parametrize("oracle", ETA_ORACLES)
def test_eta_oracles_refuse_eta_past_the_bound(oracle, eta):
    # past the bound e^{2|eta|} times a squared node gap overflows
    bound = rf"\[-{_MAX_ETA}, {_MAX_ETA}\]"
    with pytest.raises(ValueError, match=rf"^eta must be a finite number in {bound}, got "):
        ETA_ORACLES[oracle](eta)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore:series tail bound")
@pytest.mark.parametrize("eta", [float(_MAX_ETA), -float(_MAX_ETA)])
@pytest.mark.parametrize("oracle", ETA_ORACLES)
def test_eta_oracles_run_clean_at_the_bound(oracle, eta):
    assert np.isfinite(ETA_ORACLES[oracle](eta)).all()


# ---------------------------------------------------------------------------
# streamed kernels against the full-array formulas they replace

def _full_ladder_sums(q, kmax):
    """Trace, purity, entropy of (1 - q) q**k from whole arrays (pow + xlogx)."""
    w = (1.0 - q) * q ** np.arange(kmax + 1)
    safe = np.where(w > 0, w, 1.0)
    xlogx = np.where(w > 0, w * np.log(safe), 0.0)
    return w.sum(), (w ** 2).sum(), -xlogx.sum() + 0.0


def _recurrence_table(kmax, x):
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if kmax >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, kmax):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * x * out[k] - np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def _bench_grid():
    xs = np.linspace(-3.0, 3.0, 21)
    return np.meshgrid(xs, xs, indexing="ij")


def _assert_rel_close(got, want, rtol):
    for g, w in zip(got, want):
        assert abs(g - w) <= rtol * abs(w), (g, w)


def _geometric_sums(log_q, log_head, kmax):
    """Total, purity and entropy of w_k = e^{log_head + k log_q}, k = 0..kmax, in
    the closed forms of geometric sums; mpf logs, evaluated at the caller's precision."""
    n = kmax + 1
    q, head = mp.exp(log_q), mp.exp(log_head)
    total = head * mp.expm1(n * log_q) / mp.expm1(log_q)
    purity = head ** 2 * mp.expm1(2 * n * log_q) / mp.expm1(2 * log_q)
    k_q_k = q * (1 - n * q ** (n - 1) + (n - 1) * q ** n) / (1 - q) ** 2  # sum k q^k
    return float(total), float(purity), float(-log_head * total - log_q * head * k_q_k)


def _truncated_sums_at(eta, kmax):
    """60-digit total, purity and entropy of the ladder terms k = 0..kmax at eta itself."""
    with mp.workdps(60):
        eta = mp.mpf(eta)
        return _geometric_sums(2 * mp.log(mp.tanh(eta)), -2 * mp.log(mp.cosh(eta)), kmax)


@pytest.mark.filterwarnings("ignore:series tail bound")
@pytest.mark.parametrize("kmax", [_SERIES_BLOCK - 1, _SERIES_BLOCK, _SERIES_BLOCK + 1,
                                  3 * _SERIES_BLOCK + 7])
@pytest.mark.parametrize("eta", [0.5, 2.0, 4.0, 6.0])
def test_moments_blocks_match_full_array_formula(eta, kmax):
    m = moments(eta, kmax)
    _assert_rel_close((series_weights(eta, kmax).sum(), m.purity, m.entropy),
                      _truncated_sums_at(eta, kmax), 1e-14)


@pytest.mark.parametrize("eta", [0.05, 0.7, 1.5, 3.0, 4.5, 6.0])
def test_moments_match_full_array_formula_at_the_tail_rule(eta):
    kmax = kmax_for_tail(eta)
    m = moments(eta, kmax)
    _assert_rel_close((series_weights(eta, kmax).sum(), m.purity, m.entropy),
                      _truncated_sums_at(eta, kmax), 1e-14)


@pytest.mark.parametrize("T", [0.5, 2.0, 10.0])
def test_thermal_entropy_series_matches_full_array_formula(T):
    # the series at the matched eta against the thermal ladder q = e^{-1/T}
    got = moments(eta_from_temperature(T), 3000).entropy
    _, _, want = _full_ladder_sums(np.exp(-1.0 / T), 3000)
    assert abs(got - want) <= 1e-14 * want


@pytest.mark.filterwarnings("ignore:series tail bound")
@pytest.mark.parametrize("eta", [0.0, 0.7])
@pytest.mark.parametrize("kmax", [-1, 0, 1])
def test_moments_of_short_ladders_match_full_array_formula(eta, kmax):
    m = moments(eta, kmax)
    want = _full_ladder_sums(np.tanh(eta) ** 2, kmax)
    got = (series_weights(eta, kmax).sum(), m.purity, m.entropy)
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("eta", [3.0, 4.5, 5.25, 6.0])
def test_moments_at_the_tail_rule_match_high_precision(eta):
    m = moments(eta, kmax_for_tail(eta))
    with mp.workdps(50):
        c2, s2 = mp.cosh(eta) ** 2, mp.sinh(eta) ** 2
        purity = 1 / mp.cosh(2 * mp.mpf(eta))
        entropy = c2 * mp.log(c2) - s2 * mp.log(s2)
        assert abs(m.purity - purity) <= 1e-15
        assert abs(m.entropy - entropy) <= 1e-10


@pytest.mark.filterwarnings("ignore:series tail bound")
@pytest.mark.parametrize("eta", [10.0, 15.0, 18.5, 20.0, 100.0, 350.0])
def test_moments_past_eta_seven_match_high_precision(eta):
    # read from q = tanh^2 eta, 1 - q loses digits to rounding (1e-8 relative
    # at eta = 10, 45 % near 19) and from eta ~ 19, where q is 1.0, the sums
    # were 0, 0 and NaN; the reference w_k = sech^2 eta tanh^{2k} eta keeps 1 - q
    m = moments(eta, kmax=200)
    with mp.workdps(50):
        head, q = mp.sech(eta) ** 2, mp.tanh(eta) ** 2
        w = [head * q ** k for k in range(201)]
        want = (mp.fsum(w), mp.fsum(x * x for x in w), -mp.fsum(x * mp.log(x) for x in w))
    for got, ref in zip((series_weights(eta).sum(), m.purity, m.entropy), want):
        # the purity at eta = 350, about 3e-605, rounds to 0.0 in both
        assert abs(got - float(ref)) <= 1e-14 * float(ref), (got, ref)


@pytest.mark.parametrize("eta", [10.0, 15.0, 18.5, 20.0, 100.0, 350.0,
                                 -10.0, -15.0, -18.5, -20.0, -100.0, -350.0])
def test_series_weights_past_eta_seven_match_high_precision(eta):
    # from the rounded tanh^2, w_0 was 1.7e-4 relative off at eta = 15 and
    # every weight was 0.0 from eta ~ 19 on
    w = series_weights(eta, 200)
    with mp.workdps(50):
        head, q = mp.sech(eta) ** 2, mp.tanh(eta) ** 2
        want = np.array([float(head * q ** k) for k in range(201)])
    assert (np.abs(w - want) <= 1e-14 * want).all()


@pytest.mark.filterwarnings("ignore:series tail bound")
@pytest.mark.parametrize("kmax", [0, 1, 200, _SERIES_BLOCK - 1])
@pytest.mark.parametrize("eta", [0.0, 1e-10, 0.7, -3.0, 6.0, 7.5, 20.0, 350.0])
def test_moments_sum_the_series_weights(eta, kmax):
    # one ladder formula: within one block the purity is the weights' own sum
    # of squares, bit for bit, summed by einsum as moments sums it
    w = series_weights(eta, kmax)
    assert np.einsum("i,i->", w, w) == moments(eta, kmax).purity


def test_moments_entropy_keeps_the_vacuum_term_at_tiny_eta():
    # 1 - q rounds to 1 at q = tanh^2(1e-10) = 1e-20; log1p(-q) keeps the
    # -w_0 ln w_0 = q term that ln(1 - q) would drop (a 2 % loss)
    eta = 1e-10
    with mp.workdps(50):
        c2, s2 = mp.cosh(eta) ** 2, mp.sinh(eta) ** 2
        entropy = float(c2 * mp.log(c2) - s2 * mp.log(s2))
    assert abs(moments(eta).entropy - entropy) <= 1e-13 * entropy


@pytest.mark.filterwarnings("error")
def test_whole_ladder_moments_match_high_precision():
    # the whole ladder against 60-digit closed forms on 409 log-uniform eta:
    # purity 1/cosh 2 eta and entropy log1p(v) + v log1p(1/v), v = sinh^2 eta.
    # With ln q and ln(1 - q) read from the rounded tanh^2 eta up to |eta| = 7,
    # the entropy was 9.7e-13 and the purity 1.2e-11 off at eta = 6.4
    worst = [0.0, 0.0]
    for eta in np.geomspace(1e-6, _MAX_ETA, 409):
        m = moments(eta)
        with mp.workdps(60):
            x = mp.mpf(float(eta))
            v = mp.sinh(x) ** 2
            want = (float(1 / mp.cosh(2 * x)), float(mp.log1p(v) + v * mp.log1p(1 / v)))
        for i, (got, ref) in enumerate(zip((m.purity, m.entropy), want)):
            worst[i] = max(worst[i], abs(got - ref) / ref)
    assert worst[0] <= 1e-13 and worst[1] <= 1e-14, worst


@pytest.mark.parametrize("eta", [0.5, 6.0, 350.0])
def test_whole_ladder_allocates_one_block(eta):
    moments(eta)  # warms the imports
    assert _peak_bytes(moments, eta) < 2 ** 20


def _exact_truncated_sums(eta, kmax):
    """60-digit purity and entropy of w_k = e^{ln(1 - q) + k ln q}, k = 0..kmax.

    Geometric closed forms at the two doubles ``_ladder_logs`` returns, so
    they measure the summation, not the rounding of ln q.
    """
    log_q, log_head = _ladder_logs(eta)
    with mp.workdps(60):
        return _geometric_sums(mp.mpf(log_q), mp.mpf(log_head), kmax)[1:]


@pytest.mark.filterwarnings("ignore:series tail bound")
@pytest.mark.parametrize("kmax", [_SERIES_BLOCK - 1, _SERIES_BLOCK, _SERIES_BLOCK + 1,
                                  3 * _SERIES_BLOCK + 7, "tail", MAX_KMAX])
@pytest.mark.parametrize("eta", [4.0, 5.25, 6.0, 7.0, 7.3])
def test_moments_match_exact_truncated_sums(eta, kmax):
    # later blocks are the first block rescaled; the rescaled sums stay as
    # close to the exact truncated ladder as a term-by-term pass
    kmax = kmax_for_tail(eta) if kmax == "tail" else kmax
    m = moments(eta, kmax)
    _assert_rel_close((m.purity, m.entropy), _exact_truncated_sums(eta, kmax), 1e-14)


@pytest.mark.filterwarnings("ignore:series tail bound")
@pytest.mark.parametrize("eta", [6.0, -7.3])
@pytest.mark.parametrize("kmax", [_SERIES_BLOCK, "tail", MAX_KMAX])
def test_moments_exponentiate_one_block_plus_a_scale_per_block(eta, kmax, monkeypatch):
    kmax = kmax_for_tail(eta) if kmax == "tail" else kmax
    sizes, exp = [], np.exp

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    moments(eta, kmax)
    monkeypatch.undo()
    assert max(sizes) == _SERIES_BLOCK
    # plus the tail bound's q^{kmax+1} and, past |eta| = 7, e^{-2|eta|} twice
    assert sum(sizes) <= _SERIES_BLOCK + kmax / _SERIES_BLOCK + 3, sizes


@pytest.mark.parametrize("call", [series_weights, moments])
def test_series_refuse_kmax_past_the_cap_before_allocating(call):
    # 8.0 would warn about its tail first; the refusal comes before that
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError,
                               match=f"^kmax must be <= {MAX_KMAX}, got {MAX_KMAX + 1}$"):
                call(8.0, MAX_KMAX + 1)
            assert tracemalloc.get_traced_memory()[1] < 2 ** 16
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("eta", [0.0, 0.5, -350.0])
@pytest.mark.parametrize("kmax", [pytest.param(2 ** 1023, id="2**1023"),
                                  pytest.param(int(sys.float_info.max), id="DBL_MAX"),
                                  pytest.param(10 ** 400, id="10**400")])
def test_series_tail_bound_past_the_float_range_is_zero(eta, kmax):
    # (kmax + 1) ln q had no float past the largest double: a bare OverflowError
    assert series_tail_bound(eta, kmax) == 0.0


@pytest.mark.parametrize("kmax", [0, 1, 2, _HERMITE_BLOCK - 1, _HERMITE_BLOCK,
                                  _HERMITE_BLOCK + 1, 2 * _HERMITE_BLOCK + 1, 200])
def test_hermite_functions_bit_identical_to_recurrence_table(kmax):
    x, xp = _bench_grid()
    for points in (0.3, np.linspace(-4.0, 4.0, 33), x):
        want = _recurrence_table(kmax, points)
        for k in range(kmax + 1):
            got = phi(k, points)
            assert got.shape == want[k].shape
            assert np.array_equal(got, want[k])


@pytest.mark.parametrize("eta", [0.05, 0.5, 1.0, 1.45, 2.0, -1.3, 3.0])
def test_streamed_rho_routes_match_full_array_formulas(eta):
    kmax = min(kmax_for_tail(eta), 200)
    t, w = gauss_hermite(128)
    pts = np.linspace(-2.0, 2.0, 7)
    scattered = np.random.default_rng(25).uniform(-4.0, 4.0, (2, 50))
    for x, xp in (_bench_grid(), (np.float64(0.3), np.float64(-1.1)),
                  (pts[:, None], pts[None, :]), tuple(scattered)):
        full_series = np.einsum("k,k...,k...->...", series_weights(eta, kmax),
                                _recurrence_table(kmax, x), _recurrence_table(kmax, xp))
        assert np.abs(rho_series(eta, x, xp, kmax) - full_series).max() <= 1e-15
        full_trace = (psi_eta(eta, x[..., None], t) * psi_eta(eta, xp[..., None], t)) @ w
        assert np.abs(rho_partial_trace(eta, x, xp) - full_trace).max() <= 1e-15


_COORDINATE_ROUTES = {
    "phi": lambda x, xp: (phi(3, x), phi(3, xp)),
    "psi_eta": lambda x, xp: psi_eta(0.5, x, xp),
    "rho_reduced": lambda x, xp: rho_reduced(0.5, x, xp),
    "rho_series": lambda x, xp: rho_series(0.5, x, xp, 3),
    "rho_partial_trace": lambda x, xp: rho_partial_trace(0.5, x, xp),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["x", "xp", "both", "array"])
@pytest.mark.parametrize("route", _COORDINATE_ROUTES)
def test_coordinate_routes_refuse_non_finite_points(route, where, value):
    # unchecked, x = inf gave 0.0 from the closed forms and phi_0 but NaN with
    # a warning from the recurrence, and x = x' = inf NaN from rho_reduced
    x, xp = {"x": (value, 0.2), "xp": (0.2, value), "both": (value, value),
             "array": (np.array([0.1, value, 0.3]), np.array([0.2, 0.2, 0.2]))}[where]
    with pytest.raises(ValueError, match="finite"):
        _COORDINATE_ROUTES[route](x, xp)


def _mp_phi(k, x):
    return (mp.pi ** -0.25 / mp.sqrt(2 ** k * mp.factorial(k))
            * mp.hermite(k, x) * mp.exp(-x * x / 2))


def _mp_rho(eta, x, xp):
    c2 = mp.cosh(2 * eta)
    return (mp.pi * c2) ** -0.5 * mp.exp(-(x + xp) ** 2 / (4 * c2) - c2 * (x - xp) ** 2 / 4)


_MP_ROUTES = {  # 50-digit references; the partial trace integrates to the closed form
    "phi": _mp_phi,
    "psi_eta": lambda eta, x1, x2: mp.exp(-(mp.exp(2 * eta) * (x1 - x2) ** 2
                                           + mp.exp(-2 * eta) * (x1 + x2) ** 2) / 4)
    / mp.sqrt(mp.pi),
    "rho_reduced": _mp_rho,
    "rho_series": lambda eta, x, xp, kmax: mp.fsum(
        mp.tanh(eta) ** (2 * k) / mp.cosh(eta) ** 2 * _mp_phi(k, x) * _mp_phi(k, xp)
        for k in range(kmax + 1)),
    "rho_partial_trace": _mp_rho,
}


@pytest.mark.parametrize("route, args", [
    ("phi", (1, 1.5e308)), ("phi", (3, 1e160)), ("phi", (200, -1e300)), ("phi", (5, 30.0)),
    ("psi_eta", (350.0, 100.0, -100.0)), ("psi_eta", (-350.0, 1.7e308, -1.7e308)),
    ("psi_eta", (-350.0, 1e150, -1e150)),
    ("rho_reduced", (300.0, 1e3, -1e3)), ("rho_reduced", (350.0, 1e3, -1e3)),
    ("rho_reduced", (0.5, 1e200, 0.0)), ("rho_reduced", (350.0, 1e150, 1e150)),
    ("rho_series", (0.5, 1e200, 0.0, 10)), ("rho_series", (0.5, -1.7e308, 1.7e308, 200)),
    ("rho_series", (0.5, 12.0, 11.0, 10)),
    ("rho_partial_trace", (0.5, 1e200, 1e200)), ("rho_partial_trace", (350.0, 1e3, -1e3)),
    ("rho_partial_trace", (0.5, 1.7e308, -1.7e308)),
    # at the edge of the near range no square overflows even at |eta| = 350
    ("psi_eta", (350.0, 64.0, -64.0)), ("psi_eta", (-350.0, 64.0, 64.0)),
    ("rho_reduced", (350.0, 64.0, -64.0)), ("rho_partial_trace", (350.0, 64.0, -64.0)),
])
def test_coordinate_routes_run_clean_on_far_finite_points(route, args):
    # squares of far coordinates overflow to inf and exp(-inf) reads the underflowed 0.0;
    # phi(1, 1.5e308) was NaN (inf * 0.0), the others returned 0.0 with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = getattr(fock, route)(*args)
    with mp.workdps(50):
        want = float(_MP_ROUTES[route](*(a if isinstance(a, int) else mp.mpf(a) for a in args)))
    if want == 0.0:
        assert got == 0.0
    else:
        assert abs(got - want) <= 1e-14 * abs(want)


def _high_precision_rho(eta, x, xp):
    """The closed-form reduced density matrix at 50 digits, rounded to doubles."""
    want = np.empty(x.shape)
    with mp.workdps(50):
        c2 = mp.cosh(2 * mp.mpf(eta))
        for i in np.ndindex(x.shape):
            s, d = mp.mpf(x[i]) + mp.mpf(xp[i]), mp.mpf(x[i]) - mp.mpf(xp[i])
            want[i] = float((mp.pi * c2) ** -0.5 * mp.exp(-(s ** 2 + d ** 2 * c2 ** 2) / (4 * c2)))
    return want


@pytest.mark.parametrize("eta", [0.05, 0.5, 1.0])
def test_rho_partial_trace_matches_high_precision(eta):
    x, xp = _bench_grid()
    assert np.abs(rho_partial_trace(eta, x, xp) - _high_precision_rho(eta, x, xp)).max() <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eta", [200.0, 300.0])
def test_rho_reduced_matches_high_precision_at_strong_coupling(eta):
    # cosh^2(2 eta) overflows from |eta| ~ 178, so the exponent keeps its terms apart
    x, xp = _bench_grid()
    got, want = rho_reduced(eta, x, xp), _high_precision_rho(eta, x, xp)
    assert (want > 0).any()
    assert (np.abs(got - want) <= 1e-15 * want).all()


def test_rho_routes_broadcast_and_refuse_like_the_recurrence():
    pts = np.linspace(-2.0, 2.0, 7)
    full = rho_series(0.8, *np.meshgrid(pts, pts, indexing="ij"))
    assert np.array_equal(rho_series(0.8, pts[:, None], pts[None, :]), full)
    assert rho_partial_trace(0.8, pts[:, None], pts[None, :]).shape == (7, 7)
    for route in (rho_series, rho_partial_trace):
        assert isinstance(route(0.8, 0.1, 0.2), np.float64)
    for kmax in (-1, 201):
        with pytest.raises(ValueError):
            rho_series(0.8, pts, pts, kmax)


def _per_point_partial_trace(eta, x, xp):
    """Reference: the partial trace integrated once per point, not per distinct h."""
    x, xp = np.broadcast_arrays(np.asarray(x, float), np.asarray(xp, float))
    t, w = gauss_hermite()
    h = (0.5 * (x + xp)).reshape(-1, 1)
    c_minus, c_plus = -0.5 * np.exp(2 * eta), -0.5 * np.exp(-2 * eta)
    sums = np.empty(len(h))
    block = max(1, 2 ** 16 // (8 * len(t)))
    for lo in range(0, len(h), block):
        hb = h[lo:lo + block]
        exponent = t - hb
        exponent *= exponent
        exponent *= c_minus
        plus = t + hb
        plus *= plus
        plus *= c_plus
        exponent += plus
        sums[lo:lo + block] = np.exp(exponent, out=exponent) @ w
    d = x - xp
    return (np.exp(-0.25 * np.cosh(2 * eta) * d * d) / np.pi * sums.reshape(x.shape))[()]


def test_rho_partial_trace_per_distinct_h_matches_the_per_point_integral():
    # the same integrand; only how BLAS blocks the weighted row sums differs:
    # 2.8e-17 at most on the bench grid, and 1.1e-16 (one eps relative) at
    # rho = 0.497 on the demo grid, whose values reach 0.56
    x, xp = _bench_grid()
    demo = np.array([-1.0, 0.0, 0.5])
    for eta in np.arange(1, 81) * 0.05:
        got, want = rho_partial_trace(eta, x, xp), _per_point_partial_trace(eta, x, xp)
        assert np.abs(got - want).max() <= 1e-16, eta
        got = rho_partial_trace(eta, demo[:, None], demo[None, :])
        want = _per_point_partial_trace(eta, demo[:, None], demo[None, :])
        assert (np.abs(got - want) <= 2 * np.finfo(float).eps * want).all(), eta


@pytest.mark.parametrize("eta", [0.05, 0.8, 1.49, -1.3, 4.0])
def test_rho_partial_trace_is_exactly_symmetric(eta):
    x, xp = _bench_grid()
    rho = rho_partial_trace(eta, x, xp)
    assert np.array_equal(rho, rho.T)
    assert np.array_equal(rho_partial_trace(eta, xp, x), rho)
    assert rho_partial_trace(eta, 0.3, -1.1) == rho_partial_trace(eta, -1.1, 0.3)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_oracles_memory_does_not_grow_with_the_ladder():
    assert _peak_bytes(moments, 6.0, kmax_for_tail(6.0)) < 2 ** 20
    x, xp = _bench_grid()
    assert _peak_bytes(rho_series, 1.45, x, xp, kmax_for_tail(1.45)) < 2 ** 18


# ---------------------------------------------------------------------------
# thermal state

def test_thermal_state_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        thermal_state(0.0)
    with pytest.raises(ValueError):
        thermal_state(-1.0)


@pytest.mark.parametrize("given", [-0.0, 0, 2, np.int64(2), np.float64(2.5)])
def test_thermal_state_stores_the_checked_float(given):
    # the temperature was stored as given: -0.0 stayed in the repr, an np.float64 stayed one
    state = ThermalState(given)
    assert type(state.temperature) is float and state.temperature == given
    assert np.copysign(1.0, state.temperature) == 1.0
    assert repr(state) == f"ThermalState(temperature={float(given) + 0.0!r})"
    assert state == ThermalState(float(given))


def test_thermal_vacuum_limit():
    # T = 0 matches eta = 0, whose ladder is (1, 0, 0, ...)
    weights = series_weights(0.0)
    assert weights[0] == 1.0
    assert np.abs(weights[1:]).max() == 0.0
    assert wigner_radius(0.0) == 1.0
    assert ThermalState(0.0).entropy() == 0.0
    assert moments(0.0).entropy == 0.0


def test_thermal_weights_normalized():
    weights = series_weights(eta_from_temperature(2.0))
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert (weights > 0).all()


def test_thermal_entropy_series_matches_closed_form():
    for T in (0.5, 1.0, 1.8362, 5.0):
        eta = eta_from_temperature(T)
        series = moments(eta, kmax_for_tail(eta)).entropy
        assert abs(series - thermal_state(T).entropy()) <= 1e-10, T


def test_thermal_weights_equal_series_weights():
    """At matched eta and T the two weight ladders are the same geometric law."""
    for T in (0.5, 1.0, 2.0, 5.0):
        ratio = np.tanh(eta_from_temperature(T)) ** 2
        assert abs(np.exp(-1.0 / T) - ratio) <= 1e-15, T


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("T", [1e-3, 1.4e-3, 1e-300, 5e-324])
def test_thermal_entropy_below_the_overflow_temperature(T):
    # below T = 1/709.78 e^{1/T} overflows a double; the true entropy is below 1e-297
    assert ThermalState(T).entropy() == 0.0


def _errstate_thermal_entropy(T):
    # the reference: the closed form evaluated through the overflow, warning silenced
    with np.errstate(over="ignore"):
        return occupation_entropy(1.0 / np.expm1(1.0 / T))


def test_thermal_entropy_equals_the_overflow_guarded_formula():
    log_t = np.random.default_rng(27).uniform(np.log(1e-4), np.log(1e4), 2000)
    at_edge = 1.0 / _LOG_MAX
    edge = [at_edge]
    for direction in (0.0, np.inf):
        t = at_edge
        for _ in range(64):
            t = np.nextafter(t, direction)
            edge.append(t)
    for T in [float(t) for t in np.exp(log_t)] + [float(t) for t in edge]:
        got = ThermalState(T).entropy()
        assert type(got) is float and got == _errstate_thermal_entropy(T), T
    with np.errstate(over="ignore"):  # the edge is expm1's own last finite value
        assert np.isfinite(np.expm1(_LOG_MAX))
        assert np.isinf(np.expm1(np.nextafter(_LOG_MAX, np.inf)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bridge", [temperature_from_eta, eta_from_temperature,
                                    thermal_state, ThermalState, wigner_radius])
def test_thermal_bridge_refuses_non_finite(bridge, value):
    with pytest.raises(ValueError, match="finite"):
        bridge(value)


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
    """Every pair's residual equals, bit for bit, the one recorded (float.hex)
    when the brackets became sums of one-mode word products; the order of
    each bracket diagonal's terms is part of the result."""
    path = Path(__file__).parent / "data" / "fock_pair_residuals.json"
    recorded = json.loads(path.read_text())
    for nmax, residuals in recorded.items():
        rep = verify_fock_commutators(int(nmax))
        assert {f"{a},{b}": r.hex() for (a, b), r in rep.residuals.items()} == residuals, nmax
