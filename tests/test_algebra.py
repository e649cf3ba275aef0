"""Bracket tables, verification reports, isomorphism and correspondence."""

from functools import reduce

import numpy as np
import pytest

from oscsym.algebra import (
    SP2_TRIPLES,
    TABLE1_RECIPES,
    CorrespondenceEntry,
    _pair_plan,
    StructureTable,
    alge11_table,
    check_isomorphism,
    commutator,
    decompose,
    o33gen_table,
    sp2_table,
    structure_table,
    table1_correspondence,
    verify_algebra,
)
from oscsym.families import (FAMILIES, FIFTEEN_LABELS, GeneratorSet,
                             build_generator_set, gamma_matrices)
from oscsym.fock import dirac_tenfold, verify_fock_commutators

SP4 = build_generator_set("sp4_4")
SL4R = build_generator_set("sl4r_4")
O32 = build_generator_set("o32_5")
O33 = build_generator_set("o33_6")


# ---------------------------------------------------------------------------
# commutator and decompose

def test_commutator_self_is_zero():
    assert np.abs(commutator(SP4["K2"], SP4["K2"])).max() == 0.0


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        commutator(SP4["L1"], O33["L1"])


def test_commutator_l1_l2_gives_il3():
    assert np.abs(commutator(SP4["L1"], SP4["L2"]) - 1j * SP4["L3"]).max() <= 1e-15


def test_commutator_k1_q1_gives_minus_is3():
    assert np.abs(commutator(SP4["K1"], SP4["Q1"]) + 1j * SP4["S3"]).max() <= 1e-15


def test_decompose_single_member():
    coeffs, residual = decompose(1j * SP4["L3"], SP4)
    expected = {l: (1j if l == "L3" else 0) for l in SP4.labels}
    for c, l in zip(coeffs, SP4.labels):
        assert abs(c - expected[l]) <= 1e-14
    assert residual <= 1e-14


def test_decompose_g3_l1_bracket():
    coeffs, residual = decompose(commutator(SL4R["G3"], SL4R["L1"]), SL4R)
    by_label = dict(zip(SL4R.labels, coeffs))
    assert abs(by_label["G2"] - 1j) <= 1e-14
    assert residual <= 1e-14
    others = max(abs(v) for l, v in by_label.items() if l != "G2")
    assert others <= 1e-14


def test_decompose_identity_off_span():
    # the identity is not in the span of traceless generators
    _, residual = decompose(np.eye(4, dtype=complex), SP4)
    assert residual > 0.1


def test_decompose_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        decompose(np.eye(5, dtype=complex), SP4)


# ---------------------------------------------------------------------------
# shipped tables verified against the matrices (build fails on disagreement)

def test_alge11_covers_all_pairs():
    labels = ("L1", "L2", "L3", "S3", "K1", "K2", "K3", "Q1", "Q2", "Q3")
    pairs = set(alge11_table().entries)
    expected = {(a, b) for a in labels for b in labels if a != b}
    assert pairs == expected


def test_o33gen_covers_all_pairs():
    pairs = set(o33gen_table().entries)
    assert len(pairs) == 15 * 14


@pytest.mark.parametrize("table_builder", [alge11_table, o33gen_table])
def test_tables_antisymmetric(table_builder):
    table = table_builder()
    for (a, b), terms in table.entries.items():
        mirrored = dict((l, -c) for c, l in table.entries[(b, a)])
        assert dict((l, c) for c, l in terms) == mirrored


@pytest.mark.parametrize("gens,table_builder", [
    (SP4, alge11_table),
    (O32, alge11_table),
    (SL4R, o33gen_table),
    (O33, o33gen_table),
])
def test_shipped_tables_match_computed(gens, table_builder):
    """Freeze check: the shipped tensor equals the projected one exactly."""
    shipped = table_builder()
    computed = structure_table(gens)
    assert computed.max_closure_residual() == 0.0
    perm = [computed.labels.index(l) for l in shipped.labels]
    assert np.array_equal(computed.f[np.ix_(perm, perm, perm)], shipped.f)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_structure_table_exact_on_every_family(family):
    table = structure_table(build_generator_set(family))
    assert set(table.closure_residuals.values()) == {0.0}
    assert np.array_equal(table.f, np.round(table.f.real))  # integer, no imaginary part


def test_table_coefficients_purely_imaginary():
    for table in (alge11_table(), o33gen_table()):
        for terms in table.entries.values():
            for c, _ in terms:
                assert c.real == 0.0 and abs(abs(c.imag) - 1.0) == 0.0


# ---------------------------------------------------------------------------
# verify_algebra

def test_verify_sp4_passes():
    rep = verify_algebra(SP4, alge11_table(), 1e-12)
    assert rep.passed
    assert rep.max_residual <= 1e-14


def test_verify_o33_passes():
    rep = verify_algebra(O33, o33gen_table(), 1e-12)
    assert rep.passed


def test_verify_unknown_label_rejected():
    with pytest.raises(ValueError, match="absent"):
        verify_algebra(SP4, o33gen_table(), 1e-12)


def test_verify_fails_against_wrong_table():
    wrong = sp2_table("L1", "L2", "S3")
    rep = verify_algebra(SP4, wrong, 1e-12)
    assert not rep.passed
    assert rep.worst_pair in wrong.entries


@pytest.mark.parametrize("triple", SP2_TRIPLES)
def test_sp2_triples_close(triple):
    x, y, z = triple
    rep = verify_algebra(SP4, sp2_table(x, y, z), 1e-12)
    assert rep.passed, rep.summary()


def test_sp2_first_triple_brackets():
    # (S3, K2, Q2): [S3,K2] = iQ2, [S3,Q2] = -iK2, [K2,Q2] = -iS3
    assert np.abs(commutator(SP4["S3"], SP4["K2"]) - 1j * SP4["Q2"]).max() <= 1e-15
    assert np.abs(commutator(SP4["S3"], SP4["Q2"]) + 1j * SP4["K2"]).max() <= 1e-15
    assert np.abs(commutator(SP4["K2"], SP4["Q2"]) + 1j * SP4["S3"]).max() <= 1e-15


# ---------------------------------------------------------------------------
# structure_table

def test_structure_table_single_member_trivially_closed():
    solo = GeneratorSet("solo", ("L3",), [SP4["L3"]])
    table = structure_table(solo)
    assert table.entries == {}
    assert table.max_closure_residual() == 0.0
    assert table.worst_closure_pair() is None


def _reference_table(genset):
    """One least-squares solve per ordered pair, dropping coefficients at or below 1e-10.

    This is the general expansion the trace projection replaces; it needs no
    orthogonal basis, so it serves as an independent oracle.  Each closure
    residual is divided by max(1, max|[G_a, G_b]|), the scale of its rounding.
    """
    stack = genset.stack().T
    entries, closure = {}, {}
    for a in genset.labels:
        for b in genset.labels:
            if a == b:
                continue
            rhs = commutator(genset[a], genset[b]).ravel()
            coeffs, *_ = np.linalg.lstsq(stack, rhs, rcond=None)
            scale = max(1.0, float(np.abs(rhs).max()))
            closure[(a, b)] = float(np.abs(stack @ coeffs - rhs).max()) / scale
            entries[(a, b)] = {l: complex(c) for c, l in zip(coeffs, genset.labels)
                               if abs(c) > 1e-10}
    return entries, closure


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_structure_table_matches_per_pair_reference(family):
    genset = build_generator_set(family)
    entries, closure = _reference_table(genset)
    table = structure_table(genset)
    assert list(table.entries) == list(entries)
    for pair, terms in table.entries.items():
        expected = entries[pair]
        assert [l for _, l in terms] == list(expected), pair
        for c, l in terms:
            assert abs(c - expected[l]) <= 1e-15, (pair, l)
    assert set(table.closure_residuals) == set(closure)
    for pair, resid in closure.items():
        assert table.closure_residuals[pair] == 0.0 and resid <= 1e-15, pair


def test_structure_table_reports_non_closure():
    # [K1, K2] = -i L3 leaves span{K1, K2}: reported, not raised
    pair_set = GeneratorSet("k1k2", ("K1", "K2"), [SP4["K1"], SP4["K2"]])
    table = structure_table(pair_set)
    assert table.closure_residuals == {("K1", "K2"): 0.5, ("K2", "K1"): 0.5}
    assert table.entries == {("K1", "K2"): (), ("K2", "K1"): ()}


def test_structure_table_drops_zero_coefficients():
    table = structure_table(SP4)
    assert table.entries[("L1", "S3")] == ()
    terms = dict((l, c) for c, l in table.entries[("L1", "L2")])
    assert set(terms) == {"L3"}
    assert abs(terms["L3"] - 1j) <= 1e-14


def test_structure_table_json_schema():
    import json

    data = json.loads(alge11_table().to_json())
    assert set(data) == {"pairs"}
    by_pair = {(p["a"], p["b"]): p["terms"] for p in data["pairs"]}
    # complex coefficients serialize as [re, im]
    assert by_pair[("L1", "L2")] == [{"coeff": [0.0, 1.0], "label": "L3"}]
    assert by_pair[("L1", "S3")] == []


# ---------------------------------------------------------------------------
# isomorphism

def test_isomorphism_sl4r_o33():
    rep = check_isomorphism(SL4R, O33, 1e-12)
    assert rep.passed, rep.summary()
    assert rep.max_deviation <= 1e-12


def test_isomorphism_sp4_o32():
    rep = check_isomorphism(SP4, O32, 1e-12)
    assert rep.passed


def test_isomorphism_self():
    rep = check_isomorphism(SP4, SP4, 1e-12)
    assert rep.passed
    assert rep.max_deviation == 0.0


def test_isomorphism_matches_by_label_not_position():
    permuted = GeneratorSet("sl4r_reversed", SL4R.labels[::-1], SL4R.block[::-1])
    assert permuted.labels == SL4R.labels[::-1]
    rep = check_isomorphism(permuted, O33, 1e-12)
    assert rep.passed, rep.summary()
    assert rep.max_deviation <= 1e-15


def test_isomorphism_names_worst_closure_pairs():
    # span{K1, K2} does not close: both brackets leave it with residual 0.5
    pair_set = GeneratorSet("k1k2", ("K1", "K2"), [SP4["K1"], SP4["K2"]])
    rep = check_isomorphism(pair_set, pair_set, 1e-12)
    assert not rep.passed
    residuals = structure_table(pair_set).closure_residuals
    for pair, worst in ((rep.worst_closure_a, rep.closure_a),
                        (rep.worst_closure_b, rep.closure_b)):
        assert pair == ("K1", "K2")
        assert residuals[pair] == worst == max(residuals.values()) == 0.5
    assert "worst closure [K1,K2] 5.000e-01 / [K1,K2] 5.000e-01" in rep.summary()


@pytest.mark.parametrize("gens,table_builder", [
    (SP4, alge11_table), (O32, alge11_table), (SL4R, o33gen_table), (O33, o33gen_table),
], ids=["sp4_4", "o32_5", "sl4r_4", "o33_6"])
def test_zero_residuals_name_no_worst_pair(gens, table_builder):
    rep = verify_algebra(gens, table_builder(), 1e-12)
    assert rep.max_residual == 0.0 and rep.worst_pair is None
    assert "(worst [-] residual 0.000e+00," in rep.summary()
    assert structure_table(gens).worst_closure_pair() is None


def test_non_orthogonal_basis_rejected():
    skew = GeneratorSet("skew", ("A", "B"), [SP4["L3"], SP4["L3"] + SP4["K1"]])
    zero = GeneratorSet("zero", ("A", "B"), [SP4["L3"], 0 * SP4["K1"]])
    for genset in (skew, zero):
        with pytest.raises(ValueError, match="orthogonal"):
            structure_table(genset)
        with pytest.raises(ValueError, match="orthogonal"):
            decompose(SP4["L3"], genset)
        with pytest.raises(ValueError, match="orthogonal"):
            check_isomorphism(genset, genset, 1e-12)


def test_isomorphism_label_mismatch_rejected():
    with pytest.raises(ValueError, match="label mismatch"):
        check_isomorphism(SP4, O33, 1e-12)


# ---------------------------------------------------------------------------
# gamma-bilinear correspondence

def test_correspondence_actual_pattern():
    """13 exact recipes; L1 off by a factor i; S2 off by a sign.

    The S2 recipe (i/2) g1 g2 reproduces the widely printed extension matrix,
    whose sign is incompatible with the closed fifteen-generator table
    ([S1, S2] would come out as -i S3); the shipped family flips it, and the
    checker reports the flip here.
    """
    report = table1_correspondence(1e-12)
    assert report.count("EXACT") == 13
    statuses = {l: e.status for l, e in report.entries.items()}
    assert [l for l, s in statuses.items() if s == "FACTOR_MISMATCH"] == ["L1"]
    assert [l for l, s in statuses.items() if s == "SIGN_FLIP"] == ["S2"]
    assert report.count("UNRELATED") == 0
    assert abs(report.entries["L1"].ratio - 1j) <= 1e-12
    assert abs(report.entries["S2"].ratio + 1.0) <= 1e-12


def test_correspondence_exact_examples():
    report = table1_correspondence(1e-12)
    for label in ("L2", "K2", "S3", "G3", "Q1"):
        assert report.entries[label].status == "EXACT"


def _looped_correspondence(tolerance):
    """Recipe by recipe: each candidate multiplied out and classified on its own."""
    g, sl4r = gamma_matrices(), build_generator_set("sl4r_4")
    entries = {}
    for label, (coeff, factors) in TABLE1_RECIPES.items():
        candidate = coeff * reduce(np.matmul, [g[f] for f in factors])
        member = sl4r[label]
        deviation = float(np.abs(candidate - member).max())
        if deviation <= tolerance:
            entries[label] = CorrespondenceEntry("EXACT", None, deviation)
            continue
        ratio = complex(np.vdot(member, candidate) / np.vdot(member, member))
        if np.abs(candidate - ratio * member).max() <= tolerance:
            status = "SIGN_FLIP" if abs(ratio + 1) <= tolerance else "FACTOR_MISMATCH"
            entries[label] = CorrespondenceEntry(status, ratio, deviation)
        else:
            entries[label] = CorrespondenceEntry("UNRELATED", None, deviation)
    return entries


@pytest.mark.parametrize("tolerance", [1e-300, 1e-12, 0.5, 0.75, 1.0, 2.0])
def test_correspondence_equals_the_recipe_loop(tolerance):
    entries = table1_correspondence(tolerance).entries
    reference = _looped_correspondence(tolerance)
    assert entries == reference
    assert [repr(e.ratio) for e in entries.values()] == [repr(e.ratio) for e in reference.values()]


def test_correspondence_of_edited_recipes_equals_the_recipe_loop(monkeypatch):
    """An unrelated recipe and a three-factor one, so shorter recipes are padded twice."""
    monkeypatch.setitem(TABLE1_RECIPES, "K2", (0.5, ("g0",)))
    monkeypatch.setitem(TABLE1_RECIPES, "S1", (0.5j, ("g0", "g5", "g1")))
    for tolerance in (1e-12, 0.5, 1.0):
        assert table1_correspondence(tolerance).entries == _looped_correspondence(tolerance)
    assert table1_correspondence(1e-12).entries["K2"].status == "UNRELATED"


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0, 0.0])
def test_correspondence_refuses_a_tolerance_that_is_not_finite_and_positive(tolerance):
    with pytest.raises(ValueError, match="finite number > 0"):
        table1_correspondence(tolerance)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0, 0.0])
@pytest.mark.parametrize("check", [
    pytest.param(lambda tolerance: verify_algebra(SP4, alge11_table(), tolerance),
                 id="verify_algebra"),
    pytest.param(lambda tolerance: check_isomorphism(SP4, O32, tolerance),
                 id="check_isomorphism"),
    pytest.param(lambda tolerance: verify_fock_commutators(8, tolerance),
                 id="verify_fock_commutators"),
])
def test_checkers_refuse_a_tolerance_that_is_not_finite_and_positive(check, tolerance):
    # each used to report FAIL on exact results: nan and 0 fail a residual of 0
    with pytest.raises(ValueError, match="^tolerance must be a finite number > 0, got "):
        check(tolerance)


def test_decompose_reconstruct_random_combinations():
    """Round trip on the span: coefficients recovered to 1e-10."""
    rng = np.random.default_rng(42)
    for gens in (SP4, SL4R, O33):
        stack = gens.stack()
        for _ in range(5):
            true_coeffs = rng.normal(size=len(gens))
            x = (true_coeffs @ stack).reshape(gens.dim, gens.dim)
            coeffs, residual = decompose(x, gens)
            assert residual <= 1e-10
            assert np.abs(coeffs - true_coeffs).max() <= 1e-10


def test_isomorphism_single_member_passes_trivially():
    solo = GeneratorSet("solo", ("L3",), [SP4["L3"]])
    rep = check_isomorphism(solo, solo, 1e-12)
    assert rep.passed
    assert rep.max_deviation == 0.0 and rep.worst is None
    assert (rep.worst_closure_a, rep.worst_closure_b) == (None, None)


def test_isomorphism_zero_gap_names_no_pair():
    for set_a, set_b in ((SP4, SP4), (SL4R, O33), (SP4, O32)):
        rep = check_isomorphism(set_a, set_b, 1e-12)
        assert (rep.worst, rep.worst_closure_a, rep.worst_closure_b) == (None, None, None)
        summary = rep.summary()
        assert "gap 0.000e+00 on [-]; worst closure [-] 0.000e+00 / [-] 0.000e+00" in summary
        assert "->" not in summary


def test_verify_against_own_empty_table():
    solo = GeneratorSet("solo", ("L3",), [SP4["L3"]])
    rep = verify_algebra(solo, structure_table(solo), 1e-12)
    assert rep.passed
    assert rep.residuals == {}
    assert rep.max_residual == 0.0 and rep.worst_pair is None
    assert "worst [-]" in rep.summary()


@pytest.mark.parametrize("labels", [(), ("L3",)])
def test_table_with_no_pairs_passes_with_residual_zero(labels):
    n = len(labels)
    rep = verify_algebra(SP4, StructureTable(labels, np.zeros((n, n, n), np.int8)), 1e-12)
    assert rep.passed and rep.residuals == {}
    assert rep.max_residual == 0.0 and rep.worst_pair is None


@pytest.mark.parametrize("labels,shape", [
    (("S3", "S3", "Q2"), (3, 3, 3)),
    (("S3", "K2", "Q2"), (3, 3)),
    (("S3", "K2", "Q2"), (3, 3, 2)),
    (("S3", "K2"), (3, 3, 3)),
])
def test_structure_table_refuses_repeated_labels_and_misshapen_tensors(labels, shape):
    with pytest.raises(ValueError, match="distinct labels"):
        StructureTable(labels, np.zeros(shape, np.int8))


def test_structure_table_holds_f_as_a_read_only_view():
    f = np.zeros((2, 2, 2))
    table = StructureTable(("a", "b"), f)
    assert not table.f.flags.writeable and f.flags.writeable
    assert table.f.base is f
    for table in (alge11_table(), o33gen_table(), sp2_table(*SP2_TRIPLES[0]),
                  structure_table(SP4)):
        assert not table.f.flags.writeable


def test_sp2_table_refuses_a_repeated_label():
    with pytest.raises(ValueError, match="distinct labels"):
        sp2_table("S3", "S3", "Q2")


# ---------------------------------------------------------------------------
# the tensor contraction against a plain per-pair loop

def _per_pair_residuals(genset, table):
    """One commutator and one subtraction per listed term, pair by pair."""
    scale = max(1.0, *(float(np.abs(m).max()) for m in genset.members.values())) ** 2
    residuals = {}
    for (a, b), terms in table.entries.items():
        r = genset[a] @ genset[b] - genset[b] @ genset[a]
        for c, label in terms:
            r = r - c * genset[label]
        residuals[(a, b)] = float(np.abs(r).max()) / scale
    return residuals


@pytest.mark.parametrize("gens,table", [
    (SP4, alge11_table()), (O32, alge11_table()),
    (SL4R, o33gen_table()), (O33, o33gen_table()),
    *((SP4, sp2_table(*triple)) for triple in SP2_TRIPLES),
], ids=["sp4_4", "o32_5", "sl4r_4", "o33_6", *(",".join(t) for t in SP2_TRIPLES)])
def test_verify_matches_per_pair_reference(gens, table):
    rep = verify_algebra(gens, table, 1e-12)
    assert rep.residuals == _per_pair_residuals(gens, table)  # bit for bit


@pytest.mark.parametrize("gens,table_builder,pair,label", [
    (SP4, alge11_table, ("K1", "Q1"), "S3"),
    (O32, alge11_table, ("L1", "K2"), "K3"),
    (SL4R, o33gen_table, ("G1", "S1"), "Q1"),
    (O33, o33gen_table, ("S1", "S2"), "S3"),
])
def test_flipped_sign_in_shipped_tensor_fails_at_that_pair(gens, table_builder, pair, label):
    table = table_builder()
    a, b, c = (table.labels.index(l) for l in (*pair, label))
    f = table.f.copy()
    assert f[a, b, c] != 0
    f[a, b, c] = -f[a, b, c]
    rep = verify_algebra(gens, StructureTable(table.labels, f), 1e-12)
    assert not rep.passed
    assert rep.worst_pair == pair
    assert rep.residuals[pair] == 2 * float(np.abs(gens[label]).max())
    assert max(r for p, r in rep.residuals.items() if p != pair) == 0.0
    assert rep.residuals == _per_pair_residuals(gens, StructureTable(table.labels, f))
    assert f"FAIL (worst [{pair[0]},{pair[1]}]" in rep.summary()


def test_shipped_tensors_are_integer_and_read_only():
    for table in (alge11_table(), o33gen_table(), sp2_table(*SP2_TRIPLES[0])):
        assert table.f.dtype.kind == "i"
        assert set(np.unique(table.f)) <= {-1, 0, 1}
        assert np.array_equal(table.f, -table.f.transpose(1, 0, 2))
        with pytest.raises(ValueError):
            table.f[0, 1, 2] = 1


def test_computed_tensor_is_read_only():
    # a write would silently rewrite the frozen table's entries
    table = structure_table(SP4)
    with pytest.raises(ValueError, match="read-only"):
        table.f[0, 1, 2] = 5
    assert table.entries[("L1", "L2")] == ((1j, "L3"),)


# ---------------------------------------------------------------------------
# the real form A = Im G against complex arithmetic on G itself

def _complex_verify(genset, expected):
    """verify_algebra's residuals computed on the complex members, whatever the block."""
    scale = max(1.0, float(np.abs(genset.block).max())) ** 2
    g = np.array([genset[l] for l in expected.labels])
    m, d = len(g), genset.dim
    products = (g.reshape(m * d, d) @ g.transpose(1, 0, 2).reshape(d, m * d)
                ).reshape(m, d, m, d).transpose(0, 2, 1, 3)
    expansion = (expected.f.reshape(m * m, m) @ g.reshape(m, d * d)).reshape(m, m, d, d)
    r = np.abs(products - products.transpose(1, 0, 2, 3) - 1j * expansion)
    return {(a, b): float(r[i, j].max()) / scale
            for i, a in enumerate(expected.labels)
            for j, b in enumerate(expected.labels) if i != j}


def _complex_table(genset):
    """structure_table's f and closure residuals projected on the complex members."""
    n, d = len(genset), genset.dim
    stack = genset.block.reshape(n, d * d)
    pairs = [(a, b) for a in genset.labels for b in genset.labels if a != b]
    x = np.array([commutator(genset[a], genset[b]).ravel() for a, b in pairs])
    coeffs = x @ stack.conj().T / (stack @ stack.conj().T).diagonal().real
    f = np.zeros((n, n, n), complex)
    rows, cols = zip(*[(genset.labels.index(a), genset.labels.index(b)) for a, b in pairs])
    f[rows, cols] = -1j * coeffs
    closure = np.abs(x - coeffs @ stack).max(axis=1)
    return f, dict(zip(pairs, closure.tolist()))


def _complex_isomorphism(set_a, set_b, tolerance):
    (f_a, closure_a), (f_b, closure_b) = _complex_table(set_a), _complex_table(set_b)
    perm = [set_b.labels.index(l) for l in set_a.labels]
    gap = np.abs(f_a - f_b[np.ix_(perm, perm, perm)])
    worst = None
    if gap.max():
        a, b, c = np.unravel_index(gap.argmax(), gap.shape)
        worst = ((set_a.labels[a], set_a.labels[b]), set_a.labels[c])

    def worst_pair(closure):
        return max(closure, key=closure.get) if max(closure.values()) else None
    return (float(gap.max()), worst, max(closure_a.values()), max(closure_b.values()),
            worst_pair(closure_a), worst_pair(closure_b), tolerance)


#: 1j times the sp4_4 block: real-valued, so it is checked on G itself
SP4_REAL = GeneratorSet("sp4_real", SP4.labels, 1j * SP4.block)


@pytest.mark.parametrize("gens,table", [
    (SP4, alge11_table()), (O32, alge11_table()),
    (SL4R, o33gen_table()), (O33, o33gen_table()),
    (SP4_REAL, alge11_table()), (SP4_REAL, structure_table(SP4_REAL)),
    (SP4, structure_table(SP4_REAL)),
], ids=["sp4_4", "o32_5", "sl4r_4", "o33_6", "real", "real-own", "sp4-on-real"])
def test_verify_equals_complex_reference(gens, table):
    assert verify_algebra(gens, table, 1e-12).residuals == _complex_verify(gens, table)


def test_verify_tenfold_equals_complex_reference():
    # real and imaginary Fock members: the 1j branch, with rounding-level residuals
    tenfold = dirac_tenfold(6)
    assert tenfold.block.real.any() and tenfold.block.imag.any()
    rep = verify_algebra(tenfold, alge11_table(), 1e-12)
    assert rep.residuals == _complex_verify(tenfold, alge11_table())
    assert max(rep.residuals.values()) > 0.0


@pytest.mark.parametrize("gens", [SP4, O32, SL4R, O33, SP4_REAL],
                         ids=["sp4_4", "o32_5", "sl4r_4", "o33_6", "real"])
def test_structure_table_equals_complex_reference(gens):
    f, closure = _complex_table(gens)
    table = structure_table(gens)
    assert table.f.dtype == complex and not table.f.flags.writeable
    assert np.array_equal(table.f, f)
    assert table.closure_residuals == closure


def test_real_valued_set_has_i_times_the_shipped_coefficients():
    # [iG_a, iG_b] = -i f_abc G_c = i (i f_abc) (iG_c)
    assert np.array_equal(structure_table(SP4_REAL).f, 1j * alge11_table().f)


@pytest.mark.parametrize("set_a,set_b", [
    (SL4R, O33), (SP4, O32), (O33, SL4R), (SP4_REAL, SP4), (SP4, SP4_REAL), (SP4_REAL, SP4_REAL),
], ids=["sl4r~o33", "sp4~o32", "o33~sl4r", "real~sp4", "sp4~real", "real~real"])
def test_isomorphism_equals_complex_reference(set_a, set_b):
    rep = check_isomorphism(set_a, set_b, 1e-12)
    assert (rep.max_deviation, rep.worst, rep.closure_a, rep.closure_b,
            rep.worst_closure_a, rep.worst_closure_b, rep.tolerance) == \
        _complex_isomorphism(set_a, set_b, 1e-12)
    assert rep.passed == (set_a.block.real.any() == set_b.block.real.any())


@pytest.mark.parametrize("part", ["imag", "real"])
def test_nan_member_fails_in_both_branches(part):
    block = SP4.block.copy()
    getattr(block, part)[0, 1, 2] = np.nan  # "imag" keeps the real form, "real" leaves it
    nan_set = GeneratorSet("nan", SP4.labels, block)
    rep = verify_algebra(nan_set, alge11_table(), 1e-12)
    assert not rep.passed and np.isnan(rep.max_residual)
    with pytest.raises(ValueError, match="orthogonal"):
        structure_table(nan_set)
    with pytest.raises(ValueError, match="orthogonal"):
        check_isomorphism(nan_set, SP4, 1e-12)


@pytest.mark.parametrize("n", [1, 3, 10, 15])
def test_pair_plan_is_row_major(n):
    labels = FIFTEEN_LABELS[:n]
    pairs, rows, cols = _pair_plan(labels)
    assert pairs == tuple((a, b) for a in labels for b in labels if a != b)
    assert [(labels[r], labels[c]) for r, c in zip(rows, cols)] == list(pairs)
