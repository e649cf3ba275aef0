"""Commutator algebra: structure tables, verification, isomorphism checks.

Every bracket table is one (n, n, n) tensor f with
[G_a, G_b] = i sum_c f_abc G_c, and every check is a batched contraction
over it.  The checks run on A = -iG, where the same f reads
[A_a, A_b] = sum_c f_abc A_c; all five shipped families are purely
imaginary, so their A is real.
The expected tables shipped here (``o33gen_table``, its
ten-generator restriction ``alge11_table``, and ``sp2_table``) are frozen
integer tensors; the test suite projects every table out of the explicit
matrices and fails the build unless it equals the shipped tensor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .phase_space import DEFAULT_TOLERANCE, _check_tolerance
from .families import FIFTEEN_LABELS, TENFOLD_LABELS, GeneratorSet, build_generator_set

__all__ = [
    "DEFAULT_TOLERANCE", "commutator", "anticommutator",
    "decompose", "StructureTable", "alge11_table", "o33gen_table",
    "sp2_table", "SP2_TRIPLES", "VerificationReport", "verify_algebra",
    "structure_table", "IsomorphismReport", "check_isomorphism",
    "TABLE1_RECIPES", "CorrespondenceEntry", "CorrespondenceReport",
    "table1_correspondence",
]

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
    a, b = np.asarray(a), np.asarray(b)
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


def _brackets(mats: np.ndarray) -> np.ndarray:
    """brackets[a, b] = M_a M_b - M_b M_a of stacked (n, d, d) members;
    every M_a M_b is one block of the members as block rows times block columns."""
    n, d, _ = mats.shape
    blocks = mats.reshape(n * d, d) @ mats.transpose(1, 0, 2).reshape(d, n * d)
    products = blocks.reshape(n, d, n, d).transpose(0, 2, 1, 3)
    return products - products.transpose(1, 0, 2, 3)


def _real_form(block: np.ndarray) -> np.ndarray:
    """A = -iG, as its real part when G is purely imaginary.

    [G_a, G_b] = i sum_c f_abc G_c is exactly [A_a, A_b] = sum_c f_abc A_c,
    and multiplying by -i only swaps and negates parts, so no digit is lost.
    """
    a = -1j * block
    return a if a.imag.any() else a.real


@lru_cache(maxsize=64)
def _pair_plan(labels: Tuple[str, ...]) -> Tuple[Tuple[Tuple[str, str], ...],
                                                 np.ndarray, np.ndarray]:
    """Every ordered pair of distinct labels, row-major, and its (row, col) indices."""
    rows, cols = np.nonzero(~np.eye(len(labels), dtype=bool))
    rows.flags.writeable = cols.flags.writeable = False
    return tuple((labels[a], labels[b]) for a, b in zip(rows.tolist(), cols.tolist())), rows, cols


def _project(family: str, stack: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Coefficients tr(X M_c^H) / tr(M_c M_c^H) of each row X of ``x`` (k, dim*dim)
    over the rows M_c of ``stack``, and each row's max-abs remainder; the
    members must be trace-orthogonal."""
    gram = stack @ stack.conj().T
    norms = gram.diagonal().real
    if np.any(gram - np.diag(norms)) or not norms.all():
        raise ValueError(f"{family}: members are not all nonzero and mutually "
                         f"orthogonal under tr(G_a G_b^H)")
    coeffs = x @ stack.conj().T / norms
    return coeffs, np.abs(x - coeffs @ stack).max(axis=1)


def decompose(x: np.ndarray, basis: GeneratorSet) -> Tuple[np.ndarray, float]:
    """Expansion of a matrix over a generator family by trace projection.

    Returns the coefficient vector (aligned with ``basis.labels``) and the
    max-abs residual of the reconstruction.  A residual above tolerance means
    the matrix is not in the family's span (e.g. the identity over a
    traceless family).  It is the one-row case of ``structure_table``'s
    projection and refuses the same bases.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (basis.dim, basis.dim):
        raise ValueError(f"dimension mismatch: {x.shape} vs {(basis.dim, basis.dim)}")
    coeffs, residuals = _project(basis.family, basis.stack(), x.reshape(1, -1))
    return coeffs[0], float(residuals[0])


@dataclass(frozen=True, eq=False)
class StructureTable:
    """Bracket table [G_a, G_b] = i sum_c f[a, b, c] G_c over ``labels``.

    It covers every ordered pair of distinct labels (a pair a JSON table
    omits is a vanishing bracket).  ``f`` is held as a read-only view.  The
    shipped tables are integer (every coefficient is +-i or 0), computed ones
    complex with the per-pair closure residual, and both antisymmetric in
    (a, b).  Labels that are not n distinct names, or f not (n, n, n), raise ValueError.
    """

    labels: Tuple[str, ...]
    f: np.ndarray
    closure_residuals: Optional[Mapping[Tuple[str, str], float]] = field(default=None)

    def __post_init__(self):
        n, f = len(self.labels), np.asarray(self.f).view()
        if len(set(self.labels)) != n or f.shape != (n, n, n):
            raise ValueError(f"need {n} distinct labels and an ({n}, {n}, {n}) table, "
                             f"got {tuple(self.labels)} and shape {f.shape}")
        f.flags.writeable = False
        object.__setattr__(self, "f", f)

    @property
    def entries(self) -> Dict[Tuple[str, str], Tuple[Term, ...]]:
        """(a, b) -> ((i f_abc, c), ...) over the nonzero coefficients, row-major."""
        n = len(self.labels)
        coeffs, nonzero = (1j * self.f).tolist(), (self.f != 0).tolist()
        return {(self.labels[a], self.labels[b]): tuple(
                    (c, l) for c, l, nz in zip(coeffs[a][b], self.labels, nonzero[a][b]) if nz)
                for a in range(n) for b in range(n) if a != b}

    def max_closure_residual(self) -> float:
        return max((self.closure_residuals or {}).values(), default=0.0)

    def worst_closure_pair(self) -> Optional[Tuple[str, str]]:
        """The pair with the largest closure residual (None when every one is 0)."""
        residuals = self.closure_residuals or {}
        return _worst(list(residuals), list(residuals.values()))

    def to_json(self) -> str:
        pairs = [{"a": a, "b": b,
                  "terms": [{"coeff": [c.real, c.imag], "label": l} for c, l in terms]}
                 for (a, b), terms in self.entries.items()]
        return json.dumps({"pairs": pairs}, indent=2)


def _worst(keys: Sequence, values: Sequence[float]):
    """The key of the first largest value; None when there is none or it is 0."""
    values = np.ravel(values)
    return keys[int(values.argmax())] if values.size and values.max() else None


@lru_cache(maxsize=None)
def _o33gen_f() -> np.ndarray:
    eps = np.zeros((3, 3, 3), np.int8)  # cyclic half of the Levi-Civita symbol
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
    full = eps - eps.transpose(1, 0, 2)
    eye = np.eye(3, dtype=np.int8)
    L, S, K, Q, G = (slice(3 * m, 3 * m + 3) for m in range(5))  # FIFTEEN_LABELS
    s1, s2, s3 = 3, 4, 5
    f = np.zeros((15, 15, 15), np.int8)
    f[L, L, L] = f[S, S, S] = eps
    f[K, K, L] = f[Q, Q, L] = f[G, G, L] = -eps
    f[L, K, K] = f[L, Q, Q] = f[L, G, G] = full
    f[K, Q, s3] = f[Q, G, s1] = f[G, K, s2] = -eye
    f[K, s3, Q] = f[Q, s1, G] = f[G, s2, K] = -eye
    f[Q, s3, K] = f[G, s1, Q] = f[K, s2, G] = eye
    return f - f.transpose(1, 0, 2)  # the full table from one entry per unordered pair


def o33gen_table() -> StructureTable:
    """The fifteen-generator bracket table over FIFTEEN_LABELS.

    [L_i, L_j] = i eps_ijk L_k         [S_i, S_j] = i eps_ijk S_k
    [L_i, K_j] = i eps_ijk K_k         [K_i, K_j] = -i eps_ijk L_k
    (likewise Q and G for K)           [L_i, S_j] = 0
    [K_i, Q_j] = -i delta_ij S3        [Q_i, G_j] = -i delta_ij S1
    [G_i, K_j] = -i delta_ij S2
    [K_i, S3] = -i Q_i   [Q_i, S3] = i K_i    [G_i, S3] = 0
    [K_i, S1] = 0        [Q_i, S1] = -i G_i   [G_i, S1] = i Q_i
    [K_i, S2] = i G_i    [Q_i, S2] = 0        [G_i, S2] = -i K_i

    The [G_i, G_j] row reads -i eps_ijk L_k, completing the pattern of the
    other squeeze pairs; the shipped value is validated against the o33_6
    matrices by the test suite.
    """
    return StructureTable(FIFTEEN_LABELS, _o33gen_f())


@lru_cache(maxsize=None)
def _alge11_f() -> np.ndarray:
    ten = [FIFTEEN_LABELS.index(l) for l in TENFOLD_LABELS]
    return _o33gen_f()[np.ix_(ten, ten, ten)]


def alge11_table() -> StructureTable:
    """The ten-generator bracket table, ``o33gen_table`` on the closed TENFOLD_LABELS.

    [L_i, L_j] = i eps_ijk L_k         [L_i, K_j] = i eps_ijk K_k
    [L_i, Q_j] = i eps_ijk Q_k         [K_i, K_j] = [Q_i, Q_j] = -i eps_ijk L_k
    [L_i, S3] = 0                      [K_i, Q_j] = -i delta_ij S3
    [K_i, S3] = -i Q_i                 [Q_i, S3] = i K_i
    """
    return StructureTable(TENFOLD_LABELS, _alge11_f())


def sp2_table(x: str, y: str, z: str) -> StructureTable:
    """Bracket table of one Sp(2) triple ordered (X, Y, Z).

    [X, Y] = iZ, [X, Z] = -iY, [Y, Z] = -iX: one rotation-like and two
    squeeze-like generators of a single-oscillator phase space.
    """
    f = np.zeros((3, 3, 3), np.int8)
    f[0, 1, 2], f[0, 2, 1], f[1, 2, 0] = 1, -1, -1
    return StructureTable((x, y, z), f - f.transpose(1, 0, 2))


@dataclass(frozen=True)
class VerificationReport:
    """Per-pair residuals of an expected bracket table against a family."""

    family: str
    tolerance: float
    residuals: Mapping[Tuple[str, str], float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    @property
    def worst_pair(self) -> Optional[Tuple[str, str]]:  # None when every residual is 0
        return _worst(list(self.residuals), list(self.residuals.values()))

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.family}: {verdict} "
                f"(worst {_pair_text(self.worst_pair)} residual {self.max_residual:.3e}, "
                f"tolerance {self.tolerance:.1e})")


def verify_algebra(genset: GeneratorSet, expected: StructureTable,
                   tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Check every bracket of ``expected`` against the matrices.

    The residual for a pair (a, b) is
    max|[G_a, G_b] - i sum_c f_abc G_c| / max(1, max_l max|G_l|)**2, the
    scale taken once over all members of the set; the report passes iff
    every residual is within tolerance.  It is read on A = -iG as
    max|[A_a, A_b] - sum_c f_abc A_c|, the same number.  All pairs come from
    one product of the members with themselves and one contraction of ``f``
    with them.  Every shipped 4x4, 5x5 and 6x6 family has entries of at most
    1, so its scale is 1 and its residuals are absolute.

    Raises:
        ValueError: a tolerance not finite and > 0, or a table label absent from the set.
    """
    _check_tolerance(tolerance)
    missing = set(expected.labels) - set(genset.labels)
    if missing:
        raise ValueError(f"expected table references labels absent from "
                         f"{genset.family}: {sorted(missing)}")
    members = _real_form(genset.block)
    scale = max(1.0, float(np.abs(members).max())) ** 2
    index = {l: k for k, l in enumerate(genset.labels)}
    g = members[[index[l] for l in expected.labels]]
    m, d = len(g), genset.dim
    expansion = (expected.f.reshape(m * m, m) @ g.reshape(m, d * d)).reshape(m, m, d, d)
    r = _brackets(g) - expansion
    residuals = np.abs(r).reshape(m, m, d * d).max(axis=2) / scale
    pairs, rows, cols = _pair_plan(tuple(expected.labels))
    return VerificationReport(genset.family, tolerance,
                              dict(zip(pairs, residuals[rows, cols].tolist())))


def structure_table(genset: GeneratorSet) -> StructureTable:
    """Expand every ordered commutator pair in the set's own basis.

    The bracket is expanded on A = -iG, f_abc = tr([A_a, A_b] A_c^H) / tr(A_c A_c^H),
    with A real for a purely imaginary family.  All n(n-1) off-diagonal
    commutators come from one broadcast product and are expanded by one
    trace projection, which raises ``ValueError`` unless the members are
    nonzero and trace-orthogonal.  Each remainder is kept in
    ``closure_residuals``; a residual above tolerance marks a pair whose
    bracket leaves the span (non-closure) and is reported rather than raised.
    """
    members = _real_form(genset.block)
    n, d = len(genset), genset.dim
    pairs, rows, cols = _pair_plan(genset.labels)
    coeffs, residuals = _project(genset.family, members.reshape(n, d * d),
                                 _brackets(members)[rows, cols].reshape(-1, d * d))
    f = np.zeros((n, n, n), complex)
    f[rows, cols] = coeffs
    return StructureTable(genset.labels, f, dict(zip(pairs, residuals.tolist())))


@dataclass(frozen=True)
class IsomorphismReport:
    """Entrywise comparison of two families' numerically computed tables.

    ``worst`` names the bracket and label of the largest coefficient gap
    (None when none differs); ``worst_closure_a``/``_b`` name each side's
    pair with the largest closure residual.
    """

    family_a: str
    family_b: str
    tolerance: float
    max_deviation: float
    worst: Optional[Tuple[Tuple[str, str], str]]
    closure_a: float
    closure_b: float
    worst_closure_a: Optional[Tuple[str, str]]
    worst_closure_b: Optional[Tuple[str, str]]

    @property
    def passed(self) -> bool:
        return max(self.max_deviation, self.closure_a, self.closure_b) <= self.tolerance

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        gap = "[-]" if self.worst is None else \
            f"{_pair_text(self.worst[0])} -> {self.worst[1]}"
        return (f"{self.family_a} ~ {self.family_b}: {verdict} "
                f"(worst coefficient gap {self.max_deviation:.3e} "
                f"on {gap}; worst closure "
                f"{_pair_text(self.worst_closure_a)} {self.closure_a:.3e} / "
                f"{_pair_text(self.worst_closure_b)} {self.closure_b:.3e})")


def _pair_text(pair: Optional[Tuple[str, str]]) -> str:
    return "[-]" if pair is None else f"[{pair[0]},{pair[1]}]"


def check_isomorphism(set_a: GeneratorSet, set_b: GeneratorSet,
                      tolerance: float = DEFAULT_TOLERANCE) -> IsomorphismReport:
    """Compare structure constants of two families sharing one label list.

    Passes iff the two numerically computed tensors agree entrywise (same
    labels, same coefficients) within tolerance, certifying a local
    isomorphism at the algebra level under the identity label map.  Set b's
    tensor is permuted into set a's label order; the worst gap is an argmax.

    Raises:
        ValueError: a tolerance not finite and > 0, label sets that differ, or
            members that are not trace-orthogonal.
    """
    _check_tolerance(tolerance)
    if set(set_a.labels) != set(set_b.labels):
        raise ValueError(f"label mismatch: {set_a.family} has {sorted(set_a.labels)}, "
                         f"{set_b.family} has {sorted(set_b.labels)}")
    table_a, table_b = structure_table(set_a), structure_table(set_b)
    index_b = {l: k for k, l in enumerate(set_b.labels)}
    perm = [index_b[l] for l in set_a.labels]
    gap = np.abs(table_a.f - table_b.f[np.ix_(perm, perm, perm)])
    k = _worst(range(gap.size), gap)
    a, b, c = (set_a.labels[i] for i in np.unravel_index(k or 0, gap.shape))
    return IsomorphismReport(
        set_a.family, set_b.family, tolerance, float(gap.max()),
        None if k is None else ((a, b), c),
        table_a.max_closure_residual(), table_b.max_closure_residual(),
        table_a.worst_closure_pair(), table_b.worst_closure_pair())


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
    status: str  # EXACT | SIGN_FLIP | FACTOR_MISMATCH | UNRELATED
    ratio: Optional[complex]
    deviation: float


@dataclass(frozen=True)
class CorrespondenceReport:
    """Classification of each gamma-bilinear recipe against the sl4r member."""

    entries: Dict[str, CorrespondenceEntry]

    def count(self, status: str) -> int:
        return sum(1 for e in self.entries.values() if e.status == status)

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
    and factor slips show up here instead of propagating.  The candidates are
    one stacked product of gamma block members, padded with the identity.  A
    tolerance that is not a finite number > 0 raises ValueError.
    """
    _check_tolerance(tolerance)
    dirac, sl4r = build_generator_set("dirac_gamma"), build_generator_set("sl4r_4")
    labels, (coeffs, recipes) = list(TABLE1_RECIPES), zip(*TABLE1_RECIPES.values())
    width, names = max(map(len, recipes)), dirac.labels + ("1",)
    factors = np.concatenate((dirac.block, np.eye(4)[None]))[
        [[names.index(f) for f in tuple(fs) + ("1",) * (width - len(fs))] for fs in recipes]]
    candidates = np.array(coeffs)[:, None, None] * reduce(np.matmul, factors.transpose(1, 0, 2, 3))
    members = sl4r.block[[sl4r.labels.index(label) for label in labels]]
    entries = {}
    for label, candidate, member, deviation in zip(
            labels, candidates, members, np.abs(candidates - members).max(axis=(1, 2)).tolist()):
        ratio = complex(np.vdot(member, candidate) / np.vdot(member, member)) \
            if deviation > tolerance else None
        close = ratio is not None and np.abs(candidate - ratio * member).max() <= tolerance
        status = ("EXACT" if ratio is None else "UNRELATED" if not close
                  else "SIGN_FLIP" if abs(ratio + 1) <= tolerance else "FACTOR_MISMATCH")
        entries[label] = CorrespondenceEntry(status, ratio if close else None, deviation)
    return CorrespondenceReport(entries)
