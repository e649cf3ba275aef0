"""Acceptance checks: every oracle-backed identity the package must satisfy.

One test per numbered check; each prints a PASS/FAIL line (visible with
``pytest -s``).  Two checks pin the exact form a published claim takes in
the closed algebra:

* ``test_03_gamma_bilinear_correspondence_pattern``: 13 of the 15 gamma
  bilinear recipes match the sl4r_4 members exactly, L1 is off by a factor
  i and S2 by a sign.  The S2 flip is forced by closure: with the recipe's
  sign [S1, S2] = -i S3, so the fifteen-generator table of check 2 fails at
  [S1, S2], while the shipped family closes.

* ``test_09b_area_product_under_all_fifteen``: det M = 1 fixes the
  correlated 4-volume (2 pi)^2 sqrt(det cov) = pi^2 under all fifteen flows.
  The product of the two marginal areas stays pi^2 for the eleven flows that
  leave the oscillators uncorrelated and is exactly pi^2 cosh^2(2 theta)
  for the four cross-oscillator squeezes K3, Q3, G1, G2.
"""

import time

import numpy as np

from oscsym.algebra import (
    TABLE1_RECIPES,
    alge11_table,
    anticommutator,
    check_isomorphism,
    o33gen_table,
    table1_correspondence,
    verify_algebra,
)
from oscsym.families import (
    FIFTEEN_LABELS,
    TENFOLD_LABELS,
    GeneratorSet,
    build_generator_set,
    gamma_matrices,
)
from oscsym.fock import (
    expansion_coefficient,
    expansion_overlap,
    gauss_hermite,
    moments,
    rho_reduced,
    rho_series,
    thermal_state,
    verify_fock_commutators,
    wigner_radius,
)
from oscsym.phase_space import (
    areas,
    coupling_transform,
    eta_from_temperature,
    evolve,
    gaussian_entropy,
    gaussian_purity,
    generator_to_transform,
    reduce_oscillator,
    symplectic_deviation,
    temperature_from_eta,
    vacuum_state,
)

EXTENSION_LABELS = ("S1", "S2", "G1", "G2", "G3")
MIXING_LABELS = ("K3", "Q3", "G1", "G2")
ETA_GRID = (0.25, 0.5, 1.0, 1.5)


def _report(num: str, name: str, ok: bool) -> bool:
    print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _closed_entropy(eta: float) -> float:
    c2, s2 = np.cosh(eta) ** 2, np.sinh(eta) ** 2
    return float(c2 * np.log(c2) - s2 * np.log(s2)) if eta else 0.0


def _reduced_block(eta: float) -> np.ndarray:
    state = evolve(vacuum_state(), coupling_transform(eta))
    return reduce_oscillator(state, 1)


def test_01_bracket_table_three_representations():
    """Ten-generator table holds for the 4x4, 5x5 and Fock realizations."""
    start = time.perf_counter()
    reps = [
        verify_algebra(build_generator_set("sp4_4"), alge11_table(), 1e-12),
        verify_algebra(build_generator_set("o32_5"), alge11_table(), 1e-12),
        verify_fock_commutators(8, 1e-12),
    ]
    elapsed = time.perf_counter() - start
    worst = max(r.max_residual for r in reps)
    ok = worst <= 1e-12 and elapsed < 1.0
    _report("01", f"ten-generator table x3 (worst {worst:.2e}, {elapsed:.2f}s)", ok)
    assert all(r.passed for r in reps), [r.summary() for r in reps]
    assert elapsed < 1.0


def test_02_extended_table_and_local_isomorphism():
    """Fifteen-generator table for sl4r_4 and o33_6; tables entrywise equal."""
    start = time.perf_counter()
    sl4r = build_generator_set("sl4r_4")
    o33 = build_generator_set("o33_6")
    rep_a = verify_algebra(sl4r, o33gen_table(), 1e-12)
    rep_b = verify_algebra(o33, o33gen_table(), 1e-12)
    iso = check_isomorphism(sl4r, o33, 1e-12)
    elapsed = time.perf_counter() - start
    ok = rep_a.passed and rep_b.passed and iso.passed and elapsed < 1.0
    _report("02", f"fifteen-generator table + isomorphism "
                  f"(gap {iso.max_deviation:.2e}, {elapsed:.2f}s)", ok)
    assert rep_a.passed, rep_a.summary()
    assert rep_b.passed, rep_b.summary()
    assert iso.passed, iso.summary()
    assert elapsed < 1.0


def test_03_gamma_bilinear_correspondence_pattern():
    """13 EXACT recipes, L1 off by a factor i, S2 off by a sign; the flip is
    what closure requires.

    The S2 recipe (i/2) g1 g2 reproduces the widely printed extension matrix,
    but with that sign [S1, S2] = -i S3: the set with the recipe's S2 in
    place of the shipped one fails the fifteen-generator table of check 2 at
    [S1, S2], while the shipped sl4r_4 passes it.
    """
    report = table1_correspondence(1e-12)
    l1 = report.entries["L1"]
    s2 = report.entries["S2"]
    statuses = {l: e.status for l, e in report.entries.items()}
    pattern_ok = (
        report.count("EXACT") == 13
        and [l for l, s in statuses.items() if s == "FACTOR_MISMATCH"] == ["L1"]
        and [l for l, s in statuses.items() if s == "SIGN_FLIP"] == ["S2"]
        and report.count("UNRELATED") == 0
        and abs(l1.ratio - 1j) <= 1e-12
        and abs(s2.ratio + 1.0) <= 1e-12
    )

    sl4r = build_generator_set("sl4r_4")
    coeff, (fa, fb) = TABLE1_RECIPES["S2"]
    g = gamma_matrices()
    block = sl4r.block.copy()
    block[sl4r.labels.index("S2")] = coeff * g[fa] @ g[fb]
    recipe_s2 = GeneratorSet("sl4r_4 with recipe S2", sl4r.labels, block)
    shipped = verify_algebra(sl4r, o33gen_table(), 1e-12)
    flipped = verify_algebra(recipe_s2, o33gen_table(), 1e-12)
    s1s2 = flipped.residuals[("S1", "S2")]

    ok = pattern_ok and shipped.passed and s1s2 > 1e-12
    _report("03", f"bilinear recipes: {report.summary()} "
                  f"(expected 13 EXACT + L1 factor i + S2 sign flip; "
                  f"recipe-S2 [S1,S2] residual {s1s2:.2e})", ok)
    assert pattern_ok, (
        f"expected 13 EXACT, L1 off by factor i and S2 by a sign; "
        f"got {report.summary()}"
    )
    assert shipped.passed, shipped.summary()
    assert s1s2 > 1e-12, (
        f"the recipe's S2 sign should break closure at [S1,S2]; "
        f"got {flipped.summary()}"
    )


def test_04_clifford_relations():
    """{g_mu, g_nu} = 2 diag(+,-,-,-) I and g5 anticommutation at 1e-14."""
    g = gamma_matrices()
    metric = np.diag([1.0, -1.0, -1.0, -1.0])
    order = ("g0", "g1", "g2", "g3")
    worst = 0.0
    for mu, a in enumerate(order):
        for nu, b in enumerate(order):
            r = anticommutator(g[a], g[b]) - 2 * metric[mu, nu] * np.eye(4)
            worst = max(worst, float(np.abs(r).max()))
    g5_worst = max(float(np.abs(anticommutator(g["g5"], g[m])).max())
                   for m in order)
    ok = worst <= 1e-14 and g5_worst <= 1e-14
    _report("04", f"Clifford relations (worst {max(worst, g5_worst):.2e})", ok)
    assert ok


def test_05_purity_identity():
    """Series purity, Gaussian purity and 1/cosh(2 eta) agree pairwise."""
    worst = 0.0
    for eta in ETA_GRID:
        series = moments(eta, 200).purity
        gauss = gaussian_purity(_reduced_block(eta))
        closed = 1.0 / np.cosh(2 * eta)
        worst = max(worst, abs(series - gauss), abs(series - closed),
                    abs(gauss - closed))
    at_one = moments(1.0, 200).purity
    ok = worst <= 1e-9 and abs(at_one - 0.2658022) <= 1e-6
    _report("05", f"purity identity (worst gap {worst:.2e}, "
                  f"purity(1) = {at_one:.7f})", ok)
    assert worst <= 1e-9
    assert abs(at_one - 0.2658022) <= 1e-6


def test_06_entropy_identity():
    """Series, Gaussian, closed-form and thermal entropies agree pairwise."""
    worst = 0.0
    for eta in ETA_GRID:
        series = moments(eta, 200).entropy
        gauss = gaussian_entropy(_reduced_block(eta))
        closed = _closed_entropy(eta)
        thermal = thermal_state(temperature_from_eta(eta)).entropy()
        values = (series, gauss, closed, thermal)
        worst = max(worst, max(values) - min(values))
    ok = worst <= 1e-9
    _report("06", f"entropy identity, four routes (worst gap {worst:.2e})", ok)
    assert ok


def test_07_expansion_identity():
    """Quadrature overlaps equal tanh(eta)^k / cosh(eta) for k <= 8."""
    start = time.perf_counter()
    worst = 0.0
    for eta in (0.3, 0.8, 1.2):
        for k in range(9):
            gap = abs(expansion_overlap(eta, k) - expansion_coefficient(eta, k))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report("07", f"expansion overlaps (worst {worst:.2e}, {elapsed:.2f}s)", ok)
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_08_density_matrix_identity():
    """Closed form vs 60-term series on a 21x21 grid; unit trace by quadrature."""
    eta = 0.8
    grid = np.linspace(-3.0, 3.0, 21)
    x, xp = np.meshgrid(grid, grid)
    gap = float(np.abs(rho_series(eta, x, xp, kmax=60)
                       - rho_reduced(eta, x, xp)).max())
    nodes, weights = gauss_hermite(128)
    trace_gap = abs(float(weights @ rho_reduced(eta, nodes, nodes)) - 1.0)
    ok = gap <= 1e-9 and trace_gap <= 1e-9
    _report("08", f"density-matrix identity (grid gap {gap:.2e}, "
                  f"trace gap {trace_gap:.2e})", ok)
    assert gap <= 1e-9
    assert trace_gap <= 1e-9


def test_09a_canonical_split_and_determinants():
    """Sp(4) flows canonical at +-0.7; extension flows break the form; det 1."""
    canonical_worst = 0.0
    for label in TENFOLD_LABELS:
        for theta in (0.7, -0.7):
            canonical_worst = max(
                canonical_worst,
                symplectic_deviation(generator_to_transform(label, theta)))
    extension_min = min(
        symplectic_deviation(generator_to_transform(label, 0.5))
        for label in EXTENSION_LABELS)
    det_worst = 0.0
    for label in FIFTEEN_LABELS:
        theta = 0.5 if label in EXTENSION_LABELS else 0.7
        m = generator_to_transform(label, theta)
        det_worst = max(det_worst, abs(np.linalg.det(m) - 1.0))
    ok = canonical_worst <= 1e-12 and extension_min > 0.1 and det_worst <= 1e-10
    _report("09a", f"canonical split (sp4 worst {canonical_worst:.2e}, "
                   f"extension min {extension_min:.2f}, det gap {det_worst:.2e})",
            ok)
    assert canonical_worst <= 1e-12
    assert extension_min > 0.1
    assert det_worst <= 1e-10


def test_09b_area_product_under_all_fifteen():
    """4-volume pi^2 under all fifteen flows; marginal product pi^2 for the
    eleven non-mixing flows and pi^2 cosh^2(2 theta) for the mixing squeezes.

    det M = 1 fixes the correlated 4-volume (2 pi)^2 sqrt(det cov), not the
    product of the two marginal determinants.  For K3, Q3, G1 and G2 the flow
    applied to the vacuum yields marginal blocks (cosh(2 theta)/2) I on both
    oscillators, so A1 A2 = pi^2 cosh^2(2 theta).
    """
    offenders = {}
    worst = 0.0
    for label in FIFTEEN_LABELS:
        theta = 0.5 if label in EXTENSION_LABELS else 0.7
        state = evolve(vacuum_state(), generator_to_transform(label, theta))
        a1, a2 = areas(state)
        growth = np.cosh(2 * theta) ** 2 if label in MIXING_LABELS else 1.0
        # the correlated 4-volume, computed here as the reference
        volume = (2 * np.pi) ** 2 * np.sqrt(np.linalg.det(state.cov))
        gaps = {
            "4-volume": abs(volume - np.pi ** 2),
            "marginal product": abs(a1 * a2 - np.pi ** 2 * growth),
        }
        for law, gap in gaps.items():
            worst = max(worst, gap)
            if gap > 1e-10:
                offenders[(label, law)] = gap
    ok = worst <= 1e-10
    _report("09b", f"4-volume and marginal-area product x15 "
                   f"(worst gap {worst:.2e})", ok)
    assert ok, (
        f"area laws broken for {sorted(offenders)}: expected 4-volume pi^2 "
        "for all flows, A1*A2 = pi^2 for the non-mixing flows and "
        "pi^2 cosh^2(2 theta) for K3, Q3, G1, G2"
    )


def test_10_thermal_bridge():
    """eta <-> T round trip, matched ladder ratio, matched Wigner radius."""
    worst_rt = max(
        abs(temperature_from_eta(eta_from_temperature(t)) - t)
        for t in (0.5, 1.0, 2.0, 5.0))
    worst_q = 0.0
    worst_r = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        eta = eta_from_temperature(t)
        worst_q = max(worst_q, abs(np.exp(-1.0 / t) - np.tanh(eta) ** 2))
        worst_r = max(worst_r,
                      abs(wigner_radius(t) - np.sqrt(np.cosh(2 * eta))))
    ok = worst_rt <= 1e-12 and worst_q <= 1e-12 and worst_r <= 1e-12
    _report("10", f"thermal bridge (roundtrip {worst_rt:.2e}, "
                  f"ratio {worst_q:.2e}, radius {worst_r:.2e})", ok)
    assert worst_rt <= 1e-12
    assert worst_q <= 1e-12
    assert worst_r <= 1e-12
