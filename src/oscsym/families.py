"""Generator families for the coupled-oscillator symmetry groups.

Five families of explicit matrices, each one read-only labelled block:

``dirac_gamma``
    The fifteen traceless 4x4 gamma bilinears in the Majorana
    representation, where every entry is purely imaginary: the vectors
    ``g1, g2, g3, g0``, the pseudoscalar ``g5 = i g0 g1 g2 g3``, the
    pseudovector ``i g5 g_mu`` (labels ``g5g1 .. g5g0``) and the
    antisymmetric tensor ``i g_mu g_nu`` (labels ``g0g1 .. g3g1``).
    Bilinear labels carry the conventional factor i, keeping all entries
    imaginary.

``sp4_4``
    The ten 4x4 oscillator matrices generating Sp(4), acting on the
    phase-space coordinates (x1, p1, x2, p2): rotations L1..L3, S3 and
    squeezes K1..K3, Q1..Q3.

``sl4r_4``
    The Sp(4) ten plus the five non-canonical extension generators
    G1..G3, S1, S2, spanning sl(4,R).

``o32_5``
    Ten 5x5 generators of O(3,2) on coordinates (x, y, z, t, s),
    obtained by restricting the O(3,3) members that leave the sixth
    axis alone.

``o33_6``
    Fifteen 6x6 generators of O(3,3) on three space and three time
    axes: rotations L_i = diag(A_i, 0) and S_i = diag(0, A_i), and
    off-diagonal boosts K_i, Q_i, G_i pairing the i-th space axis with the
    first, second and third time axis.

The four matrix families and the gamma matrices are written from literal
cells (row, column, +-i times a scale) by one scatter, once per process, into
blocks every ``GeneratorSet`` of the family shares; the bilinears are their
products.  All entries are exact multiples of 1/2 and i/2 (or products of
such), so construction is exact in double precision and every algebraic
check below is rounding-limited.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

import numpy as np

from .phase_space import _SL4R

__all__ = [
    "GAMMA_LABELS", "TENFOLD_LABELS", "FIFTEEN_LABELS", "FAMILIES",
    "GeneratorSet", "gamma_matrices", "build_generator_set",
]

TENFOLD_LABELS = ("L1", "L2", "L3", "S3", "K1", "K2", "K3", "Q1", "Q2", "Q3")
FIFTEEN_LABELS = (
    "L1", "L2", "L3",
    "S1", "S2", "S3",
    "K1", "K2", "K3",
    "Q1", "Q2", "Q3",
    "G1", "G2", "G3",
)
GAMMA_LABELS = (
    "g1", "g2", "g3", "g0", "g5",
    "g5g1", "g5g2", "g5g3", "g5g0",
    "g0g1", "g0g2", "g0g3", "g1g2", "g2g3", "g3g1",
)

#: family tag -> (dimension, label tuple)
FAMILIES: Dict[str, Tuple[int, Tuple[str, ...]]] = {
    "dirac_gamma": (4, GAMMA_LABELS),
    "sp4_4": (4, TENFOLD_LABELS),
    "sl4r_4": (4, FIFTEEN_LABELS),
    "o32_5": (5, TENFOLD_LABELS),
    "o33_6": (6, FIFTEEN_LABELS),
}

# Literal members: each cell "rc+" or "rc-" puts +-i times the family scale
# at row r, column c; every other entry is zero.

#: the Majorana gamma matrices g1, g2, g3, g0 (scale 1)
_GAMMAS = {"g1": "00+ 11- 22+ 33-", "g2": "03+ 12- 21- 30+",
           "g3": "01- 10- 23- 32-", "g0": "03- 12+ 21- 30+"}

#: the fifteen o33_6 members on (x, y, z, t, s, u), scale 1: rotations
#: L_i = diag(A_i, 0) and S_i = diag(0, A_i) with (A_i)_jk = -i eps_ijk, and
#: boosts K_i, Q_i, G_i pairing space axis i with time axis t, s, u.  The ten
#: TENFOLD_LABELS never touch u, so o32_5 is their restriction to 5x5.
_O33 = {
    "L1": "12- 21+", "L2": "20- 02+", "L3": "01- 10+",
    "S1": "45- 54+", "S2": "53- 35+", "S3": "34- 43+",
    "K1": "03+ 30+", "K2": "13+ 31+", "K3": "23+ 32+",
    "Q1": "04+ 40+", "Q2": "14+ 41+", "Q3": "24+ 42+",
    "G1": "05+ 50+", "G2": "15+ 51+", "G3": "25+ 52+",
}

#: family tag -> (literal members, scale); the sl4r_4 cells live with the
#: scalar flows that read them, which import no numpy
_LITERAL = {"sp4_4": (_SL4R, 0.5), "sl4r_4": (_SL4R, 0.5),
            "o32_5": (_O33, 1.0), "o33_6": (_O33, 1.0)}


def _literal(cells: Dict[str, str], scale: float, labels: Tuple[str, ...],
             dim: int) -> np.ndarray:
    """The (n, dim, dim) stack of the literal members ``labels``."""
    out = np.zeros((len(labels), dim, dim), complex)
    k, r, c, v = zip(*[(k, int(r), int(c), scale if sign == "+" else -scale)
                       for k, label in enumerate(labels) for r, c, sign in cells[label].split()])
    out.imag[k, r, c] = v
    return out


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """A named family of same-dimension generator matrices.

    ``block`` is one read-only complex (n, dim, dim) array, member k labelled
    ``labels[k]``; ``members``, ``gens[label]`` and ``stack()`` are views of
    it.  A block that is not (n, dim, dim), or labels that are not n distinct
    names, raise ValueError.
    """

    family: str
    labels: Tuple[str, ...]
    block: np.ndarray

    def __post_init__(self):
        block, labels = np.asarray(self.block, complex).view(), tuple(self.labels)
        if block.ndim != 3 or block.shape[1] != block.shape[2]:
            raise ValueError(f"{self.family}: block shape {block.shape} is not (n, dim, dim)")
        if len(labels) != len(block) or len(set(labels)) != len(labels):
            raise ValueError(f"{self.family}: need {len(block)} distinct labels, got {labels}")
        block.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "block", block)

    @property
    def dim(self) -> int:
        return self.block.shape[1]

    @cached_property
    def members(self) -> Mapping[str, np.ndarray]:
        return MappingProxyType(dict(zip(self.labels, self.block)))

    def __getitem__(self, label: str) -> np.ndarray:
        return self.members[label]

    def __len__(self) -> int:
        return len(self.labels)

    def stack(self) -> np.ndarray:
        """Members flattened row-wise into (n_members, dim*dim); a view of a C-contiguous block."""
        return self.block.reshape(len(self.block), -1)


def gamma_matrices() -> Dict[str, np.ndarray]:
    """The four Majorana gamma matrices plus the pseudoscalar g5, as fresh arrays.

    g5 is computed as i g0 g1 g2 g3 and comes out block-diagonal
    (sigma_2, -sigma_2).  Every entry is purely imaginary.
    """
    return dict(zip(GAMMA_LABELS[:5], _family_block("dirac_gamma")[:5].copy()))


@lru_cache(maxsize=None)
def _family_block(family: str) -> np.ndarray:
    """One family's read-only block, built on first use; "g{a}g{b}" is i g_a g_b."""
    dim, labels = FAMILIES[family]
    if family == "dirac_gamma":
        g = dict(zip(_GAMMAS, _literal(_GAMMAS, 1.0, tuple(_GAMMAS), 4)))
        g["g5"] = 1j * (g["g0"] @ g["g1"] @ g["g2"] @ g["g3"])
        block = np.array([g[l] if l in g else 1j * (g[l[:2]] @ g[l[2:]]) for l in labels])
    else:
        block = _literal(*_LITERAL[family], labels, dim)
    block.flags.writeable = False
    return block


def build_generator_set(family: str) -> GeneratorSet:
    """Construct one of the five generator families by tag.

    Args:
        family: one of ``dirac_gamma``, ``sp4_4``, ``sl4r_4``, ``o32_5``,
            ``o33_6``.

    Returns:
        GeneratorSet with 15, 10, 15, 10 or 15 members respectively, all
        traceless, wrapping the family's one shared read-only block.

    Raises:
        ValueError: unknown family tag.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    return GeneratorSet(family, FAMILIES[family][1], _family_block(family))
