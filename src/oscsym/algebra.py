"""Commutator algebra: structure tables, verification, isomorphism checks.

The expected bracket tables shipped here (``o33gen_table``, its ten-generator
restriction ``alge11_table``, and ``sp2_table``) are frozen data; the test
suite recomputes every table numerically from the explicit matrices and
fails the build if a shipped coefficient disagrees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .families import TENFOLD_LABELS, GeneratorSet, build_generator_set, gamma_matrices

__all__ = [
    "DEFAULT_TOLERANCE",
    "COEFF_TOLERANCE",
    "commutator",
    "anticommutator",
    "decompose",
    "StructureTable",
    "alge11_table",
    "o33gen_table",
    "sp2_table",
    "SP2_TRIPLES",
    "VerificationReport",
    "verify_algebra",
    "structure_table",
    "IsomorphismReport",
    "check_isomorphism",
    "TABLE1_RECIPES",
    "CorrespondenceEntry",
    "CorrespondenceReport",
    "table1_correspondence",
]

DEFAULT_TOLERANCE = 1e-12
COEFF_TOLERANCE = 1e-10

Term = Tuple[complex, str]

#: the four Sp(2) subalgebra triples, each ordered (X, Y, Z) so that
#: [X, Y] = iZ, [X, Z] = -iY, [Y, Z] = -iX
SP2_TRIPLES = (
    ("S3", "K2", "Q2"),
    ("S3", "K1", "Q1"),
    ("L3", "K1", "K2"),
    ("L3", "Q1", "Q2"),
)


def _square_pair(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA for square matrices of equal dimension."""
    a, b = _square_pair(a, b)
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB + BA for square matrices of equal dimension."""
    a, b = _square_pair(a, b)
    return a @ b + b @ a


def _expand(stack: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Least-squares expansion of every column of ``rhs`` over ``stack``.

    ``stack`` is (dim*dim, n_members), ``rhs`` is (dim*dim, k); returns the
    (n_members, k) coefficients from one ``lstsq`` call and the (k,) max-abs
    reconstruction residual of each column.
    """
    coeffs, *_ = np.linalg.lstsq(stack, rhs, rcond=None)
    residuals = np.abs(stack @ coeffs - rhs).max(axis=0)
    return coeffs, residuals


def decompose(x: np.ndarray, basis: GeneratorSet) -> Tuple[np.ndarray, float]:
    """Least-squares expansion of a matrix over a generator family.

    Returns the coefficient vector (aligned with ``basis.labels``) and the
    max-abs residual of the reconstruction.  A residual above tolerance means
    the matrix is not in the family's span (e.g. the identity over a
    traceless family).  This is the one-column case of ``structure_table``'s
    solve.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (basis.dim, basis.dim):
        raise ValueError(f"dimension mismatch: {x.shape} vs {(basis.dim, basis.dim)}")
    coeffs, residuals = _expand(basis.stack().T, x.reshape(-1, 1))
    return coeffs[:, 0], float(residuals[0])


@dataclass(frozen=True)
class StructureTable:
    """Commutator expansions: (label_a, label_b) -> ((coeff, label), ...).

    An empty term tuple means the bracket vanishes.  Tables built here list
    both orders of every pair, with entry(b, a) = -entry(a, b).  Tables
    computed numerically additionally carry the per-pair least-squares
    closure residual.
    """

    entries: Mapping[Tuple[str, str], Tuple[Term, ...]]
    closure_residuals: Optional[Mapping[Tuple[str, str], float]] = field(default=None)

    def pairs(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(self.entries)

    def terms(self, a: str, b: str) -> Tuple[Term, ...]:
        return self.entries[(a, b)]

    def coefficient(self, a: str, b: str, label: str) -> complex:
        for c, l in self.entries.get((a, b), ()):
            if l == label:
                return c
        return 0j

    def labels(self) -> Tuple[str, ...]:
        seen = []
        for (a, b), terms in self.entries.items():
            for name in (a, b, *(l for _, l in terms)):
                if name not in seen:
                    seen.append(name)
        return tuple(sorted(seen))

    def max_closure_residual(self) -> float:
        if not self.closure_residuals:
            return 0.0
        return max(self.closure_residuals.values())

    def worst_closure_pair(self) -> Optional[Tuple[str, str]]:
        """The pair with the largest closure residual (None without residuals)."""
        if not self.closure_residuals:
            return None
        return max(self.closure_residuals, key=self.closure_residuals.__getitem__)

    def to_json(self) -> str:
        pairs = [
            {
                "a": a,
                "b": b,
                "terms": [
                    {"coeff": [c.real, c.imag], "label": l} for c, l in terms
                ],
            }
            for (a, b), terms in self.entries.items()
        ]
        return json.dumps({"pairs": pairs}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "StructureTable":
        data = json.loads(text)
        entries = {}
        for pair in data["pairs"]:
            terms = tuple(
                (complex(t["coeff"][0], t["coeff"][1]), t["label"])
                for t in pair["terms"]
            )
            entries[(pair["a"], pair["b"])] = terms
        return cls(entries)


# ordered index triples with their Levi-Civita signs
_EPS: Dict[Tuple[int, int], Tuple[int, int]] = {
    (1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
    (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1),
}


def _put2(entries: Dict[Tuple[str, str], Tuple[Term, ...]],
          a: str, b: str, terms: Iterable[Term] = ()) -> None:
    terms = tuple(terms)
    entries[(a, b)] = terms
    entries[(b, a)] = tuple((-c, l) for c, l in terms)


def alge11_table() -> StructureTable:
    """The ten-generator bracket table, ``o33gen_table`` on the closed TENFOLD_LABELS.

    [L_i, L_j] = i eps_ijk L_k         [L_i, K_j] = i eps_ijk K_k
    [L_i, Q_j] = i eps_ijk Q_k         [K_i, K_j] = [Q_i, Q_j] = -i eps_ijk L_k
    [L_i, S3] = 0                      [K_i, Q_j] = -i delta_ij S3
    [K_i, S3] = -i Q_i                 [Q_i, S3] = i K_i
    """
    ten = set(TENFOLD_LABELS)
    return StructureTable({
        (a, b): terms for (a, b), terms in o33gen_table().entries.items()
        if a in ten and b in ten
    })


def o33gen_table() -> StructureTable:
    """The fifteen-generator bracket table.

    Extends the ten-generator table by a second rotation triple S1..S3 and
    the squeezes G1..G3:

    [S_i, S_j] = i eps_ijk S_k         [L_i, S_j] = 0
    [L_i, G_j] = i eps_ijk G_k         [G_i, G_j] = -i eps_ijk L_k
    [K_i, Q_j] = -i delta_ij S3        [Q_i, G_j] = -i delta_ij S1
    [G_i, K_j] = -i delta_ij S2
    [K_i, S3] = -i Q_i   [Q_i, S3] = i K_i    [G_i, S3] = 0
    [K_i, S1] = 0        [Q_i, S1] = -i G_i   [G_i, S1] = i Q_i
    [K_i, S2] = i G_i    [Q_i, S2] = 0        [G_i, S2] = -i K_i

    The [G_i, G_j] row reads -i eps_ijk L_k, completing the pattern of the
    other squeeze pairs; the shipped value is validated against the o33_6
    matrices by the test suite.
    """
    e: Dict[Tuple[str, str], Tuple[Term, ...]] = {}
    for (i, j), (k, s) in _EPS.items():
        if s == 1:
            _put2(e, f"L{i}", f"L{j}", [(1j, f"L{k}")])
            _put2(e, f"S{i}", f"S{j}", [(1j, f"S{k}")])
            _put2(e, f"K{i}", f"K{j}", [(-1j, f"L{k}")])
            _put2(e, f"Q{i}", f"Q{j}", [(-1j, f"L{k}")])
            _put2(e, f"G{i}", f"G{j}", [(-1j, f"L{k}")])
        _put2(e, f"L{i}", f"K{j}", [(1j * s, f"K{k}")])
        _put2(e, f"L{i}", f"Q{j}", [(1j * s, f"Q{k}")])
        _put2(e, f"L{i}", f"G{j}", [(1j * s, f"G{k}")])
    for i in (1, 2, 3):
        _put2(e, f"L{i}", f"K{i}")
        _put2(e, f"L{i}", f"Q{i}")
        _put2(e, f"L{i}", f"G{i}")
        for j in (1, 2, 3):
            _put2(e, f"L{i}", f"S{j}")
            _put2(e, f"K{i}", f"Q{j}", [(-1j, "S3")] if i == j else [])
            _put2(e, f"Q{i}", f"G{j}", [(-1j, "S1")] if i == j else [])
            _put2(e, f"G{i}", f"K{j}", [(-1j, "S2")] if i == j else [])
        _put2(e, f"K{i}", "S3", [(-1j, f"Q{i}")])
        _put2(e, f"Q{i}", "S3", [(1j, f"K{i}")])
        _put2(e, f"G{i}", "S3")
        _put2(e, f"K{i}", "S1")
        _put2(e, f"Q{i}", "S1", [(-1j, f"G{i}")])
        _put2(e, f"G{i}", "S1", [(1j, f"Q{i}")])
        _put2(e, f"K{i}", "S2", [(1j, f"G{i}")])
        _put2(e, f"Q{i}", "S2")
        _put2(e, f"G{i}", "S2", [(-1j, f"K{i}")])
    return StructureTable(e)


def sp2_table(x: str, y: str, z: str) -> StructureTable:
    """Bracket table of one Sp(2) triple ordered (X, Y, Z).

    [X, Y] = iZ, [X, Z] = -iY, [Y, Z] = -iX: one rotation-like and two
    squeeze-like generators of a single-oscillator phase space.
    """
    e: Dict[Tuple[str, str], Tuple[Term, ...]] = {}
    _put2(e, x, y, [(1j, z)])
    _put2(e, x, z, [(-1j, y)])
    _put2(e, y, z, [(-1j, x)])
    return StructureTable(e)


@dataclass(frozen=True)
class VerificationReport:
    """Per-pair residuals of an expected bracket table against a family."""

    family: str
    tolerance: float
    residuals: Mapping[Tuple[str, str], float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def worst_pair(self) -> Tuple[str, str]:
        return max(self.residuals, key=self.residuals.__getitem__)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def summary(self) -> str:
        a, b = self.worst_pair
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.family}: {verdict} "
                f"(worst [{a},{b}] residual {self.max_residual:.3e}, "
                f"tolerance {self.tolerance:.1e})")


def verify_algebra(genset: GeneratorSet, expected: StructureTable,
                   tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Check every listed bracket of ``expected`` against the matrices.

    The residual for a pair (a, b) is
    max|[A, B] - sum(coeff * G)| / max(1, max_l max|G_l|)**2, the scale taken
    once over all members of the set; the report passes iff every residual
    is within tolerance.  Every shipped 4x4, 5x5 and 6x6 family has entries
    of at most 1, so its scale is 1 and its residuals are absolute.

    Raises:
        ValueError: the expected table references a label absent from the set.
    """
    return _verify_brackets(genset.family, genset.members, expected, tolerance,
                            lambda m: float(np.abs(m).max()))


def _verify_brackets(family: str, members: Mapping, expected: StructureTable,
                     tolerance: float,
                     max_abs: Callable[[object], float]) -> VerificationReport:
    """The bracket loop shared by ``verify_algebra`` and the Fock check.

    ``members`` maps labels to operators supporting ``@``, ``-`` and scalar
    ``*``; ``max_abs`` reads the max-abs entry of one operator over the
    entries being checked, and serves both the residuals and the scale.
    """
    missing = set(expected.labels()) - set(members)
    if missing:
        raise ValueError(
            f"expected table references labels absent from {family}: "
            f"{sorted(missing)}"
        )
    scale = max(1.0, *(max_abs(m) for m in members.values())) ** 2
    residuals = {}
    for (a, b), terms in expected.entries.items():
        x, y = members[a], members[b]
        r = x @ y - y @ x
        for c, l in terms:
            r = r - c * members[l]
        residuals[(a, b)] = max_abs(r) / scale
    return VerificationReport(family, tolerance, residuals)


def structure_table(genset: GeneratorSet,
                    coeff_tolerance: float = COEFF_TOLERANCE) -> StructureTable:
    """Expand every ordered commutator pair in the set's own basis.

    All n(n-1) off-diagonal commutators come from one broadcast product and
    are expanded by one least-squares solve with a column per pair.
    Coefficients below ``coeff_tolerance`` are dropped.  The least-squares
    residual of each expansion is kept in ``closure_residuals``; a residual
    above tolerance marks a pair whose bracket leaves the span (non-closure)
    and is reported rather than raised.
    """
    labels = genset.labels
    n, d = len(labels), genset.dim
    mats = np.stack(list(genset.members.values()))  # (n, d, d)
    products = mats[:, None] @ mats[None, :]  # products[i, j] = M_i M_j
    brackets = products - products.transpose(1, 0, 2, 3)
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))  # row-major: (a, b) order
    rhs = brackets[rows, cols].reshape(-1, d * d).T  # (d*d, n(n-1))
    coeffs, residuals = _expand(mats.reshape(n, d * d).T, rhs)
    keep = np.abs(coeffs) > coeff_tolerance
    pairs = [(labels[i], labels[j]) for i, j in zip(rows.tolist(), cols.tolist())]
    entries = {
        pair: tuple((c, l) for c, l, k in zip(cs, labels, ks) if k)
        for pair, cs, ks in zip(pairs, coeffs.T.tolist(), keep.T.tolist())
    }
    return StructureTable(entries, dict(zip(pairs, residuals.tolist())))


@dataclass(frozen=True)
class IsomorphismReport:
    """Entrywise comparison of two families' numerically computed tables.

    ``worst_closure_a`` and ``worst_closure_b`` name the pair whose bracket
    has the largest closure residual on each side.
    """

    family_a: str
    family_b: str
    tolerance: float
    max_deviation: float
    worst: Tuple[Tuple[str, str], str]
    closure_a: float
    closure_b: float
    worst_closure_a: Optional[Tuple[str, str]] = None
    worst_closure_b: Optional[Tuple[str, str]] = None

    @property
    def passed(self) -> bool:
        return (self.max_deviation <= self.tolerance
                and self.closure_a <= self.tolerance
                and self.closure_b <= self.tolerance)

    def summary(self) -> str:
        (a, b), l = self.worst
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.family_a} ~ {self.family_b}: {verdict} "
                f"(worst coefficient gap {self.max_deviation:.3e} "
                f"on [{a},{b}] -> {l}; worst closure "
                f"{_pair_text(self.worst_closure_a)} {self.closure_a:.3e} / "
                f"{_pair_text(self.worst_closure_b)} {self.closure_b:.3e})")


def _pair_text(pair: Optional[Tuple[str, str]]) -> str:
    return "[-]" if pair is None else f"[{pair[0]},{pair[1]}]"


def check_isomorphism(set_a: GeneratorSet, set_b: GeneratorSet,
                      tolerance: float = DEFAULT_TOLERANCE) -> IsomorphismReport:
    """Compare structure constants of two families sharing one label list.

    Passes iff the two numerically computed tables agree entrywise (same
    labels, same coefficients) within tolerance, certifying a local
    isomorphism at the algebra level under the identity label map.

    Raises:
        ValueError: the families carry different label sets.
    """
    if set(set_a.labels) != set(set_b.labels):
        raise ValueError(
            f"label mismatch: {set_a.family} has {sorted(set_a.labels)}, "
            f"{set_b.family} has {sorted(set_b.labels)}"
        )
    table_a = structure_table(set_a)
    table_b = structure_table(set_b)
    max_dev = 0.0
    worst = ((set_a.labels[0], set_a.labels[1]), set_a.labels[0])
    for pair, terms_a in table_a.entries.items():
        ca = {l: c for c, l in terms_a}
        cb = {l: c for c, l in table_b.entries[pair]}
        for label in set(ca) | set(cb):
            dev = abs(ca.get(label, 0j) - cb.get(label, 0j))
            if dev > max_dev:
                max_dev, worst = dev, (pair, label)
    return IsomorphismReport(
        family_a=set_a.family,
        family_b=set_b.family,
        tolerance=tolerance,
        max_deviation=float(max_dev),
        worst=worst,
        closure_a=table_a.max_closure_residual(),
        closure_b=table_b.max_closure_residual(),
        worst_closure_a=table_a.worst_closure_pair(),
        worst_closure_b=table_b.worst_closure_pair(),
    )


#: gamma-bilinear recipes claimed for the fifteen sl4r members:
#: label -> (coefficient, product of gamma factors)
TABLE1_RECIPES: Dict[str, Tuple[complex, Tuple[str, ...]]] = {
    "L1": (-0.5j, ("g0",)),
    "L2": (-0.5j, ("g5", "g0")),
    "L3": (-0.5, ("g5",)),
    "S1": (0.5j, ("g2", "g3")),
    "S2": (0.5j, ("g1", "g2")),
    "S3": (0.5j, ("g3", "g1")),
    "K1": (-0.5j, ("g5", "g1")),
    "K2": (0.5, ("g1",)),
    "K3": (0.5j, ("g0", "g1")),
    "Q1": (0.5j, ("g5", "g3")),
    "Q2": (-0.5, ("g3",)),
    "Q3": (-0.5j, ("g0", "g3")),
    "G1": (-0.5j, ("g5", "g2")),
    "G2": (0.5, ("g2",)),
    "G3": (0.5j, ("g0", "g2")),
}


@dataclass(frozen=True)
class CorrespondenceEntry:
    label: str
    status: str  # EXACT | SIGN_FLIP | FACTOR_MISMATCH | UNRELATED
    ratio: Optional[complex]
    deviation: float


@dataclass(frozen=True)
class CorrespondenceReport:
    """Classification of each gamma-bilinear recipe against the sl4r member."""

    entries: Dict[str, CorrespondenceEntry]

    def count(self, status: str) -> int:
        return sum(1 for e in self.entries.values() if e.status == status)

    def with_status(self, status: str) -> List[str]:
        return [l for l, e in self.entries.items() if e.status == status]

    def summary(self) -> str:
        parts = [f"{status}: {self.count(status)}"
                 for status in ("EXACT", "SIGN_FLIP", "FACTOR_MISMATCH", "UNRELATED")
                 if self.count(status)]
        return ", ".join(parts)


def table1_correspondence(tolerance: float = DEFAULT_TOLERANCE) -> CorrespondenceReport:
    """Check the gamma-bilinear recipes against the sl4r_4 matrices.

    For each of the fifteen labels the recipe candidate (a scalar times a
    product of gamma matrices) is compared with the shipped sl4r_4 member:
    EXACT on entrywise match, SIGN_FLIP when the candidate equals minus the
    member, FACTOR_MISMATCH with the complex ratio candidate/member when the
    two are otherwise proportional, UNRELATED when not proportional at all.
    The recipes are checked as claimed, never used as constructors, so sign
    and factor slips show up here instead of propagating.
    """
    g = gamma_matrices()
    sl4r = build_generator_set("sl4r_4")
    entries = {}
    for label, (coeff, factors) in TABLE1_RECIPES.items():
        candidate = coeff * np.linalg.multi_dot([g[f] for f in factors]) \
            if len(factors) > 1 else coeff * g[factors[0]]
        member = sl4r[label]
        deviation = float(np.abs(candidate - member).max())
        if deviation <= tolerance:
            entries[label] = CorrespondenceEntry(label, "EXACT", None, deviation)
            continue
        ratio = complex(np.vdot(member, candidate) / np.vdot(member, member))
        if np.abs(candidate - ratio * member).max() <= tolerance:
            status = "SIGN_FLIP" if abs(ratio + 1) <= tolerance else "FACTOR_MISMATCH"
            entries[label] = CorrespondenceEntry(label, status, ratio, deviation)
        else:
            entries[label] = CorrespondenceEntry(label, "UNRELATED", None, deviation)
    return CorrespondenceReport(entries)
