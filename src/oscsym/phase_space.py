"""Gaussian Wigner-function simulator over (x1, p1, x2, p2).

Conventions, fixed once and used everywhere:

* Coordinates are ordered (x1, p1, x2, p2); the symplectic form J is
  block-diagonal [[0, 1], [-1, 0]] per oscillator.
* The vacuum is the Gaussian with zero mean and covariance I/2, whose
  Wigner function is (1/pi)^2 exp(-(x1^2 + p1^2 + x2^2 + p2^2)).
* A generator G (purely imaginary 4x4 member of the sl4r_4 family) maps to
  the finite transformation M(theta) = exp(-2i theta G) = exp(theta A),
  A = 2 Im G.  The factor two absorbs the 1/2 carried by every generator
  entry: the S3 rotation has period 2 pi in theta, and the G3 flow at
  theta = eta scales the two oscillator planes by e^{+eta} and e^{-eta}.
  A^2 = -I for the rotations (L, S) and +I for the squeezes (K, Q, G), so
  M = cos(theta) I + sin(theta) A or e^theta P + e^-theta (I - P), P = (I + A)/2.
* A 2x2 block's symplectic eigenvalue mu = 2 sqrt(det) gives its purity
  1/mu, so the vacuum block I/2 gives exactly 1, and its phase-space area
  pi mu = 2 pi sqrt(det), so the vacuum area is pi.
* Entropy is S(v) = (v + 1) ln(v + 1) - v ln v at the mean occupation
  v = (mu - 1)/2 = 1/(e^{1/T} - 1) = sinh^2(eta) of the reduced state.

The arithmetic lives in the private ``_scalar`` module, in Python floats and
``math``; these functions check and convert ndarrays to and from its 4x4 row
tuples.  ``oscsym simulate`` calls ``_scalar`` directly, without numpy, so
its rows equal what this module returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import _scalar
from ._scalar import (DEFAULT_TOLERANCE, SubVacuumError, eta_from_temperature,
                      occupation_entropy, temperature_from_eta)

__all__ = [
    "DEFAULT_TOLERANCE", "symplectic_deviation", "is_canonical", "generator_to_transform",
    "coupling_transform", "GaussianState", "vacuum_state", "evolve", "reduce_oscillator",
    "gaussian_purity", "SubVacuumError", "occupation_entropy", "gaussian_entropy",
    "areas", "eta_from_temperature", "temperature_from_eta",
]


def _rows(m: np.ndarray, shape: Tuple[int, int], what: str) -> list:
    """A float array's nested lists, after checking its shape."""
    m = np.asarray(m, dtype=float)
    if m.shape != shape:
        raise ValueError(f"{what} must be {shape[0]}x{shape[1]}, got {m.shape}")
    return m.tolist()


def symplectic_deviation(m: np.ndarray) -> float:
    """Max-abs entry of M J M^T - J (zero iff M is canonical)."""
    return _scalar.symplectic_deviation(_rows(m, (4, 4), "transform"))


def is_canonical(m: np.ndarray) -> bool:
    """True iff M preserves the symplectic form within DEFAULT_TOLERANCE.

    The deviation max|M J M^T - J| is compared with
    DEFAULT_TOLERANCE * max(1, max|M|)**2: the rounding of M J M^T grows with
    the square of the entries, which reach e^|theta| under a squeeze.
    """
    return _scalar.is_canonical(_rows(m, (4, 4), "transform"))


def generator_to_transform(label: str, theta: float) -> np.ndarray:
    """Finite transformation M(theta) = exp(-2i theta G) for one generator.

    G is the named sl4r_4 member; since its entries are purely imaginary the
    exponent theta A, A = 2 Im G, is real and so is M, evaluated in the
    closed forms of the module conventions.  M(0) = I and
    M(theta1 + theta2) = M(theta1) M(theta2) along each one-parameter flow.

    Raises:
        ValueError: unknown generator label.
        OverflowError: a squeeze with e^|theta| above the largest double.
    """
    return np.array(_scalar.flow(label, theta))


def coupling_transform(eta: float) -> np.ndarray:
    """The oscillator-coupling canonical transformation at squeeze eta.

    Composition of the 45-degree normal-mode rotation with reciprocal
    squeezes e^{+-eta} of the two modes (x modes squeezed oppositely to p
    modes), oriented so the vacuum evolves into the correlated ground state:

        cov = [[cosh 2eta, 0,          sinh 2eta,  0        ],
               [0,         cosh 2eta,  0,         -sinh 2eta],
               [sinh 2eta, 0,          cosh 2eta,  0        ],
               [0,        -sinh 2eta,  0,          cosh 2eta]] / 2.

    The transpose of the returned matrix is the corresponding coordinate
    substitution ((x1 + x2) e^{eta} / sqrt2, (x1 - x2) e^{-eta} / sqrt2 and
    reciprocally for the momenta).

    Raises:
        OverflowError: e^|eta| above the largest double.
    """
    return np.array(_scalar.coupling(eta))


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian state over (x1, p1, x2, p2), held as its covariance.

    The covariance must be symmetric positive definite; sub-vacuum
    covariances (symplectic eigenvalue below 1) are representable --
    classically legal states produced by non-canonical contraction -- and
    are only flagged when a quantum entropy is requested.
    """

    cov: np.ndarray

    def __post_init__(self):
        cov = np.array(_scalar.checked_cov(_rows(self.cov, (4, 4), "covariance")))
        cov.flags.writeable = False
        object.__setattr__(self, "cov", cov)


def vacuum_state() -> GaussianState:
    """Ground state of both oscillators: covariance I/2."""
    return GaussianState(np.array(_scalar.VACUUM))


def evolve(state: GaussianState, m: np.ndarray) -> GaussianState:
    """Push a Gaussian state through a linear phase-space map.

    cov -> M cov M^T, i.e. the Wigner function transforms by substitution
    W'(xi) = W(M^{-1} xi).
    """
    return GaussianState(_scalar.congruence(_rows(m, (4, 4), "transform"), state.cov.tolist()))


def reduce_oscillator(state: GaussianState, keep: int) -> np.ndarray:
    """2x2 marginal covariance of the kept oscillator (1 or 2).

    For a Gaussian Wigner function, integrating out the other oscillator's
    pair of variables leaves exactly the corresponding diagonal sub-block.
    """
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep!r}")
    i = 0 if keep == 1 else 2
    return state.cov[i:i + 2, i:i + 2].copy()


def _block_mu(cov2: np.ndarray) -> float:
    """mu = 2 sqrt(det cov2) of a 2x2 covariance given as an array, checked."""
    (a, b), (c, d) = _rows(cov2, (2, 2), "covariance")
    return _scalar._mu(a, b, c, d)


def gaussian_purity(cov2: np.ndarray) -> float:
    """Tr(rho^2) of the Gaussian state with 2x2 covariance cov2.

    1/(2 sqrt(det cov2)) under the vacuum = I/2 convention: 1 for the
    vacuum block, 1/cosh(2 eta) for the reduced coupled ground state.
    """
    return 1.0 / _block_mu(cov2)


def gaussian_entropy(cov2: np.ndarray) -> float:
    """von Neumann entropy from the symplectic eigenvalue of cov2.

    With mu = 2 sqrt(det cov2) this is occupation_entropy((mu - 1)/2).  For
    the reduced coupled ground state mu = cosh(2 eta), so v = sinh^2(eta)
    and S = cosh^2(eta) ln cosh^2(eta) - sinh^2(eta) ln sinh^2(eta).

    Raises:
        SubVacuumError: mu < 1 - DEFAULT_TOLERANCE.
    """
    return _scalar.mu_entropy(_block_mu(cov2))


def areas(state: GaussianState) -> Tuple[float, float]:
    """Phase-space areas (A1, A2) of the two oscillators.

    A_i = pi mu_i = 2 pi sqrt(det of the i-th 2x2 covariance block), so the
    vacuum occupies area pi per oscillator (the unit-circle contour).  A block
    is checked as gaussian_purity checks it: one whose det rounds to <= 0 is refused.
    """
    mu1, mu2 = _scalar.block_mus(state.cov.tolist())
    return math.pi * mu1, math.pi * mu2
