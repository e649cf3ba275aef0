"""Construction checks for the five generator families."""

import numpy as np
import pytest

from oscsym.families import (
    _GAMMAS,
    _LITERAL,
    FAMILIES,
    FIFTEEN_LABELS,
    GAMMA_LABELS,
    TENFOLD_LABELS,
    GeneratorSet,
    build_generator_set,
    gamma_matrices,
)
from oscsym.fock import dirac_tenfold


SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def blk(a, b, c, d):
    return np.block([[a, b], [c, d]])


Z2 = np.zeros((2, 2), dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        build_generator_set("su3")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_member_counts_and_dimensions(family):
    dim, labels = FAMILIES[family]
    gens = build_generator_set(family)
    assert gens.dim == dim
    assert gens.labels == labels
    assert len(gens) in (10, 15)
    for m in gens.members.values():
        assert m.shape == (dim, dim)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_is_one_read_only_block(family):
    gens = build_generator_set(family)
    assert gens.block.shape == (len(gens), gens.dim, gens.dim)
    assert not gens.block.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        gens.block[0, 0, 0] = 1.0
    with pytest.raises(TypeError):
        gens.members["L1"] = np.eye(gens.dim)
    assert np.shares_memory(gens.block, gens.stack())
    for k, label in enumerate(gens.labels):
        assert np.shares_memory(gens[label], gens.block)
        assert np.array_equal(gens[label], gens.block[k])
    with pytest.raises(KeyError):
        gens["no such label"]


def test_dirac_tenfold_members_are_views_of_its_block():
    gens = dirac_tenfold(8)
    assert not gens.block.flags.writeable
    assert all(np.shares_memory(m, gens.block) for m in gens.members.values())
    assert np.shares_memory(gens.block, gens.stack())


def test_generator_set_takes_its_block_without_a_copy():
    block = np.zeros((2, 3, 3), complex)
    gens = GeneratorSet("pair", ("A", "B"), block)
    assert np.shares_memory(gens.block, block) and gens.dim == 3
    assert block.flags.writeable  # the set's view is read-only, not the caller's array


@pytest.mark.parametrize("labels, block", [
    (("A",), np.zeros((2, 3, 3))),
    (("A", "B"), np.zeros((2, 3, 4))),
    (("A", "B"), np.zeros((2, 3))),
    (("A", "A"), np.zeros((2, 3, 3))),
], ids=["label-count", "non-square", "not-3d", "duplicate-labels"])
def test_generator_set_refuses_an_inconsistent_block(labels, block):
    with pytest.raises(ValueError):
        GeneratorSet("bad", labels, block)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_members_traceless(family):
    gens = build_generator_set(family)
    worst = max(abs(np.trace(m)) for m in gens.members.values())
    assert worst <= 1e-14


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_members_purely_imaginary(family):
    gens = build_generator_set(family)
    worst = max(np.abs(m.real).max() for m in gens.members.values())
    assert worst == 0.0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_members_linearly_independent(family):
    gens = build_generator_set(family)
    assert np.linalg.matrix_rank(gens.stack()) == len(gens)


def test_gamma5_block_form():
    g = gamma_matrices()
    assert np.array_equal(g["g5"], blk(SIGMA2, Z2, Z2, -SIGMA2))


def test_gamma_label_sets():
    assert len(GAMMA_LABELS) == 15
    assert "eye" not in GAMMA_LABELS  # identity excluded
    assert len(TENFOLD_LABELS) == 10
    assert len(FIFTEEN_LABELS) == 15
    dropped = set(FIFTEEN_LABELS) - set(TENFOLD_LABELS)
    assert dropped == {"S1", "S2", "G1", "G2", "G3"}


def test_clifford_relations():
    g = gamma_matrices()
    metric = np.diag([1.0, -1.0, -1.0, -1.0])
    order = ("g0", "g1", "g2", "g3")
    for mu, a in enumerate(order):
        for nu, b in enumerate(order):
            anti = g[a] @ g[b] + g[b] @ g[a]
            assert np.abs(anti - 2 * metric[mu, nu] * np.eye(4)).max() <= 1e-14


def test_gamma5_anticommutes():
    g = gamma_matrices()
    for mu in ("g0", "g1", "g2", "g3"):
        assert np.abs(g["g5"] @ g[mu] + g[mu] @ g["g5"]).max() <= 1e-14


def test_pseudovector_members_match_displayed_blocks():
    gens = build_generator_set("dirac_gamma")
    assert np.array_equal(gens["g5g1"], 1j * blk(-SIGMA1, Z2, Z2, SIGMA1))
    assert np.array_equal(gens["g5g2"], -1j * blk(Z2, I2, I2, Z2))
    assert np.array_equal(gens["g5g0"], 1j * blk(Z2, I2, -I2, Z2))
    assert np.array_equal(gens["g5g3"], 1j * blk(-SIGMA3, Z2, Z2, SIGMA3))


def test_tensor_members_match_displayed_blocks():
    gens = build_generator_set("dirac_gamma")
    assert np.array_equal(gens["g0g1"], -1j * blk(Z2, SIGMA1, SIGMA1, Z2))
    assert np.array_equal(gens["g0g2"], -1j * blk(-I2, Z2, Z2, I2))
    assert np.array_equal(gens["g0g3"], -1j * blk(Z2, SIGMA3, SIGMA3, Z2))
    assert np.array_equal(gens["g1g2"], 1j * blk(Z2, -SIGMA1, SIGMA1, Z2))
    assert np.array_equal(gens["g2g3"], -1j * blk(Z2, -SIGMA3, SIGMA3, Z2))
    assert np.array_equal(gens["g3g1"], blk(SIGMA2, Z2, Z2, SIGMA2))


def test_o33_rotation_block_entries():
    gens = build_generator_set("o33_6")
    l3 = gens["L3"]
    expected = np.zeros((6, 6), dtype=complex)
    expected[0, 1] = -1j
    expected[1, 0] = 1j
    assert np.array_equal(l3, expected)


def test_o33_boost_placement():
    gens = build_generator_set("o33_6")
    # K_i couples space axis i with the first time axis (coordinate 4)
    for i in range(3):
        k = gens[f"K{i + 1}"]
        assert k[i, 3] == 1j and k[3, i] == 1j
        assert np.count_nonzero(k) == 2
        q = gens[f"Q{i + 1}"]
        assert q[i, 4] == 1j and q[4, i] == 1j
        g = gens[f"G{i + 1}"]
        assert g[i, 5] == 1j and g[5, i] == 1j


def test_o32_is_o33_restriction():
    o32 = build_generator_set("o32_5")
    o33 = build_generator_set("o33_6")
    for label in TENFOLD_LABELS:
        assert np.array_equal(o32[label], o33[label][:5, :5])
        # restricted members never touch the sixth axis
        assert np.abs(o33[label][5, :]).max() == 0
        assert np.abs(o33[label][:, 5]).max() == 0


def test_o32_explicit_displays():
    """The four 5x5 matrices given explicitly: L3, K3, Q3, S3."""
    gens = build_generator_set("o32_5")

    def only(entries):
        m = np.zeros((5, 5), dtype=complex)
        for (r, c), v in entries.items():
            m[r, c] = v
        return m

    assert np.array_equal(gens["L3"], only({(0, 1): -1j, (1, 0): 1j}))
    assert np.array_equal(gens["K3"], only({(2, 3): 1j, (3, 2): 1j}))
    assert np.array_equal(gens["Q3"], only({(2, 4): 1j, (4, 2): 1j}))
    assert np.array_equal(gens["S3"], only({(3, 4): -1j, (4, 3): 1j}))


def test_sl4r_symmetry_split():
    """Six antisymmetric members (L_i, S_i) and nine symmetric (K, Q, G)."""
    gens = build_generator_set("sl4r_4")
    antisymmetric = {l for l, m in gens.members.items()
                     if np.abs(m + m.T).max() <= 1e-14}
    symmetric = {l for l, m in gens.members.items()
                 if np.abs(m - m.T).max() <= 1e-14}
    assert antisymmetric == {"L1", "L2", "L3", "S1", "S2", "S3"}
    assert symmetric == {"K1", "K2", "K3", "Q1", "Q2", "Q3", "G1", "G2", "G3"}


def test_sp4_matches_sl4r_subset():
    sp4 = build_generator_set("sp4_4")
    sl4r = build_generator_set("sl4r_4")
    for label in TENFOLD_LABELS:
        assert np.array_equal(sp4[label], sl4r[label])


def test_members_read_only():
    gens = build_generator_set("sp4_4")
    with pytest.raises(ValueError):
        gens["L1"][0, 0] = 1.0


# ---------------------------------------------------------------------------
# literal members against the block recipes they replaced

Z3 = np.zeros((3, 3), dtype=complex)


def _reference_members(family):
    """The members assembled from 2x2 and 3x3 blocks, label by label."""
    if family in ("sp4_4", "sl4r_4"):
        m = {
            "L1": -0.5 * blk(Z2, SIGMA2, SIGMA2, Z2),
            "L2": 0.5j * blk(Z2, -I2, I2, Z2),
            "L3": 0.5 * blk(-SIGMA2, Z2, Z2, SIGMA2),
            "S3": 0.5 * blk(SIGMA2, Z2, Z2, SIGMA2),
            "K1": 0.5j * blk(SIGMA1, Z2, Z2, -SIGMA1),
            "K2": 0.5j * blk(SIGMA3, Z2, Z2, SIGMA3),
            "K3": -0.5j * blk(Z2, SIGMA1, SIGMA1, Z2),
            "Q1": 0.5j * blk(-SIGMA3, Z2, Z2, SIGMA3),
            "Q2": 0.5j * blk(SIGMA1, Z2, Z2, SIGMA1),
            "Q3": 0.5j * blk(Z2, SIGMA3, SIGMA3, Z2),
            "G1": 0.5j * blk(Z2, I2, I2, Z2),
            "G2": 0.5 * blk(Z2, -SIGMA2, SIGMA2, Z2),
            "G3": 0.5j * blk(I2, Z2, Z2, -I2),
            "S1": 0.5j * blk(Z2, SIGMA3, -SIGMA3, Z2),
            "S2": 0.5j * blk(Z2, SIGMA1, -SIGMA1, Z2),
        }
    elif family in ("o32_5", "o33_6"):
        m = {}
        for i in range(3):
            a = np.zeros((3, 3), dtype=complex)
            a[(i + 1) % 3, (i + 2) % 3], a[(i + 2) % 3, (i + 1) % 3] = -1j, 1j
            m[f"L{i + 1}"] = np.block([[a, Z3], [Z3, Z3]])
            m[f"S{i + 1}"] = np.block([[Z3, Z3], [Z3, a]])
            for name, col in (("K", 0), ("Q", 1), ("G", 2)):
                b = np.zeros((3, 3), dtype=complex)
                b[i, col] = 1j
                m[f"{name}{i + 1}"] = np.block([[Z3, b], [b.T, Z3]])
        if family == "o32_5":
            m = {label: m[label][:5, :5] for label in TENFOLD_LABELS}
    else:
        g = {"g1": 1j * blk(SIGMA3, Z2, Z2, SIGMA3), "g2": blk(Z2, -SIGMA2, SIGMA2, Z2),
             "g3": -1j * blk(SIGMA1, Z2, Z2, SIGMA1), "g0": blk(Z2, SIGMA2, SIGMA2, Z2)}
        g["g5"] = 1j * (g["g0"] @ g["g1"] @ g["g2"] @ g["g3"])
        m = dict(g)
        for mu in ("g1", "g2", "g3", "g0"):
            m[f"g5{mu}"] = 1j * (g["g5"] @ g[mu])
        for a, b in (("g0", "g1"), ("g0", "g2"), ("g0", "g3"),
                     ("g1", "g2"), ("g2", "g3"), ("g3", "g1")):
            m[a + b] = 1j * (g[a] @ g[b])
    return {label: m[label] for label in FAMILIES[family][1]}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_literal_members_byte_equal_block_recipes(family):
    """Same labels, dtype, shape and bytes; + 0.0 maps the -0.0 left in some
    zero real or imaginary parts by the recipes' scalar products to +0.0."""
    gens = build_generator_set(family)
    ref = _reference_members(family)
    assert gens.labels == tuple(ref)
    for label, m in ref.items():
        assert gens[label].dtype == m.dtype and gens[label].shape == m.shape, label
        assert (gens[label] + 0.0).tobytes() == (m + 0.0).tobytes(), label


def _parsed_cells(cells, scale, labels, dim):
    """Members written cell by cell from the literal "rc+"/"rc-" strings."""
    out = np.zeros((len(labels), dim, dim), complex)
    for k, label in enumerate(labels):
        for r, c, sign in cells[label].split():
            out.imag[k, int(r), int(c)] = scale if sign == "+" else -scale
    return out


def _parsed_block(family):
    dim, labels = FAMILIES[family]
    if family != "dirac_gamma":
        return _parsed_cells(*_LITERAL[family], labels, dim)
    g = dict(zip(_GAMMAS, _parsed_cells(_GAMMAS, 1.0, tuple(_GAMMAS), 4)))
    g["g5"] = 1j * (g["g0"] @ g["g1"] @ g["g2"] @ g["g3"])
    return np.array([g[l] if l in g else 1j * (g[l[:2]] @ g[l[2:]]) for l in labels])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_block_is_the_parsed_cells_built_once_and_shared_read_only(family):
    a, b = build_generator_set(family), build_generator_set(family)
    assert a is not b
    assert a.block.tobytes() == _parsed_block(family).tobytes()
    assert a.block.base is b.block.base and not a.block.base.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a.block.base[0, 0, 0] = 1.0


def test_gamma_matrices_are_fresh_copies_of_the_block():
    block = build_generator_set("dirac_gamma").block
    g, h = gamma_matrices(), gamma_matrices()
    assert list(g) == list(GAMMA_LABELS[:5])
    for k, (label, m) in enumerate(g.items()):
        assert m.tobytes() == block[k].tobytes() and m.flags.writeable, label
        assert not np.shares_memory(m, block) and not np.shares_memory(m, h[label]), label
    g["g1"][0, 0] = 7.0  # the caller owns its copy
    assert gamma_matrices()["g1"].tobytes() == block[0].tobytes()
