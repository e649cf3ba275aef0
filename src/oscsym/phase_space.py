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
* Purity of a 2x2 reduced covariance is 1/(2 sqrt(det)), so the vacuum
  block I/2 gives exactly 1; the phase-space area of a block is
  2 pi sqrt(det), so the vacuum area is pi.
* Entropy is S(v) = (v + 1) ln(v + 1) - v ln v at the mean occupation
  v = (mu - 1)/2 = 1/(e^{1/T} - 1) = sinh^2(eta) of the reduced state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .algebra import DEFAULT_TOLERANCE
from .families import build_generator_set

__all__ = [
    "DEFAULT_TOLERANCE", "symplectic_form", "symplectic_deviation",
    "is_canonical", "generator_to_transform", "coupling_transform",
    "GaussianState", "vacuum_state", "evolve", "reduce_oscillator",
    "gaussian_purity", "symplectic_eigenvalue", "SubVacuumError",
    "occupation_entropy", "gaussian_entropy", "areas", "area_product",
    "eta_from_temperature", "temperature_from_eta",
]


def symplectic_form() -> np.ndarray:
    """The 4x4 form J, block-diagonal [[0, 1], [-1, 0]]: J^2 = -I, J^T = -J."""
    return np.array([[0.0, 1.0, 0.0, 0.0],
                     [-1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0],
                     [0.0, 0.0, -1.0, 0.0]])


_J = symplectic_form()
_J.flags.writeable = False
_ASYMMETRIC = f"covariance must be finite and symmetric (within {DEFAULT_TOLERANCE:.0e})"
_NOT_PD = "covariance must be positive definite"
# the largest exponent whose exp is a finite double
_LOG_MAX = math.log(sys.float_info.max)
# coupling_transform's 45-degree normal-mode rotation; it is symmetric, so also its transpose
_R45 = np.array([
    [1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0],
    [1.0, 0.0, -1.0, 0.0],
    [0.0, 1.0, 0.0, -1.0],
]) / np.sqrt(2.0)
_R45.flags.writeable = False


def symplectic_deviation(m: np.ndarray) -> float:
    """Max-abs entry of M J M^T - J (zero iff M is canonical)."""
    m = np.asarray(m, dtype=float)
    return float(np.abs(m @ _J @ m.T - _J).max())


def is_canonical(m: np.ndarray) -> bool:
    """True iff M preserves the symplectic form within DEFAULT_TOLERANCE.

    The deviation max|M J M^T - J| is compared with
    DEFAULT_TOLERANCE * max(1, max|M|)**2: the rounding of M J M^T grows with
    the square of the entries, which reach e^|theta| under a squeeze.
    """
    scale = max(1.0, float(np.abs(m).max())) ** 2
    return symplectic_deviation(m) <= DEFAULT_TOLERANCE * scale


@lru_cache(maxsize=1)
def _flows() -> Dict[str, Tuple[bool, np.ndarray, np.ndarray]]:
    """label -> (rotation?, B1, B2): M = cos I + sin A or e^theta P + e^-theta (I - P).

    The projector form keeps the small entries that cosh I + sinh A cancels.
    A = 2 Im G has integer entries, so A^2 = +-I is checked exactly; a member
    failing it raises ValueError.
    """
    eye = np.eye(4)
    flows = {}
    for label, g in build_generator_set("sl4r_4").members.items():
        a = 2.0 * g.imag
        square = a @ a
        if np.array_equal(square, -eye):
            flows[label] = (True, eye, a)
        elif np.array_equal(square, eye):
            p = 0.5 * (eye + a)
            flows[label] = (False, p, eye - p)
        else:
            raise ValueError(f"sl4r_4 member {label}: (2 Im G)^2 is not +-I, "
                             "so exp(-2i theta G) has no two-term closed form")
    return flows


def generator_to_transform(label: str, theta: float) -> np.ndarray:
    """Finite transformation M(theta) = exp(-2i theta G) for one generator.

    G is the named sl4r_4 member; since its entries are purely imaginary the
    exponent theta A, A = 2 Im G, is real and so is M, evaluated in the
    closed forms of the module conventions.  M(0) = I and
    M(theta1 + theta2) = M(theta1) M(theta2) along each one-parameter flow.

    Raises:
        ValueError: unknown generator label.
    """
    flows = _flows()
    if label not in flows:
        raise ValueError(
            f"unknown generator {label!r}; expected one of {list(flows)}"
        )
    rotation, b1, b2 = flows[label]
    theta = float(theta)
    if rotation:
        return np.cos(theta) * b1 + np.sin(theta) * b2
    return np.exp(theta) * b1 + np.exp(-theta) * b2


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
    """
    grow, shrink = np.exp(eta), np.exp(-eta)
    # r45^T diag(squeeze): each column of r45^T scaled by its squeeze
    return _R45 * np.array([grow, shrink, shrink, grow])


def _pivots_positive(s00, s01, s02, s03, s11, s12, s13, s22, s23, s33) -> bool:
    """True iff the four pivots of the LDL^T factorisation of a symmetric 4x4 are > 0.

    The arguments are its upper triangle, row by row.  Each step divides by a
    pivot already known to be positive and takes the Schur complement of the
    rest; a symmetric matrix is positive definite iff every pivot is positive
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 10).
    """
    if not s00 > 0:
        return False
    l1, l2, l3 = s01 / s00, s02 / s00, s03 / s00
    s11, s12, s13 = s11 - l1 * s01, s12 - l1 * s02, s13 - l1 * s03
    s22, s23, s33 = s22 - l2 * s02, s23 - l2 * s03, s33 - l3 * s03
    if not s11 > 0:
        return False
    l2, l3 = s12 / s11, s13 / s11
    s22, s23, s33 = s22 - l2 * s12, s23 - l2 * s13, s33 - l3 * s13
    if not s22 > 0:
        return False
    return s33 - s23 / s22 * s23 > 0


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
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (4, 4):
            raise ValueError(f"covariance must be 4x4, got {cov.shape}")
        (c00, c01, c02, c03), (c10, c11, c12, c13), \
            (c20, c21, c22, c23), (c30, c31, c32, c33) = cov.tolist()
        if not (all(map(math.isfinite, (c00, c01, c02, c03, c10, c11, c12, c13,
                                        c20, c21, c22, c23, c30, c31, c32, c33)))
                and max(abs(c01 - c10), abs(c02 - c20), abs(c03 - c30),
                        abs(c12 - c21), abs(c13 - c31), abs(c23 - c32)) <= DEFAULT_TOLERANCE):
            raise ValueError(_ASYMMETRIC)
        s01, s02, s03 = 0.5 * (c01 + c10), 0.5 * (c02 + c20), 0.5 * (c03 + c30)
        s12, s13, s23 = 0.5 * (c12 + c21), 0.5 * (c13 + c31), 0.5 * (c23 + c32)
        if not _pivots_positive(c00, s01, s02, s03, c11, s12, s13, c22, s23, c33):
            raise ValueError(_NOT_PD)
        cov = np.array([[c00, s01, s02, s03], [s01, c11, s12, s13],
                        [s02, s12, c22, s23], [s03, s13, s23, c33]])
        cov.flags.writeable = False
        object.__setattr__(self, "cov", cov)


def vacuum_state() -> GaussianState:
    """Ground state of both oscillators: covariance I/2."""
    return GaussianState(np.eye(4) / 2.0)


def evolve(state: GaussianState, m: np.ndarray) -> GaussianState:
    """Push a Gaussian state through a linear phase-space map.

    cov -> M cov M^T, i.e. the Wigner function transforms by substitution
    W'(xi) = W(M^{-1} xi).
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"transform must be 4x4, got {m.shape}")
    cov = m @ state.cov @ m.T
    return GaussianState(0.5 * (cov + cov.T))


def reduce_oscillator(state: GaussianState, keep: int) -> np.ndarray:
    """2x2 marginal covariance of the kept oscillator (1 or 2).

    For a Gaussian Wigner function, integrating out the other oscillator's
    pair of variables leaves exactly the corresponding diagonal sub-block.
    """
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep!r}")
    i = 0 if keep == 1 else 2
    return state.cov[i:i + 2, i:i + 2].copy()


def gaussian_purity(cov2: np.ndarray) -> float:
    """Tr(rho^2) of the Gaussian state with 2x2 covariance cov2.

    1/(2 sqrt(det cov2)) under the vacuum = I/2 convention: 1 for the
    vacuum block, 1/cosh(2 eta) for the reduced coupled ground state.
    """
    return 1.0 / symplectic_eigenvalue(cov2)


def _det2(a: float, b: float, c: float, d: float) -> float:
    """det [[a, b], [c, d]] of finite entries, bit for bit as np.linalg.det gives it.

    The same steps in Python scalars: LU with row pivoting, whose pivot row
    (p, r) is the one with the larger |first entry| and whose other row (q, t)
    leaves u = t - (q * (1/p)) r, then sign * exp(ln|p| + ln|u|) as numpy's
    slogdet forms it.  A subnormal or zero pivot (LAPACK divides by it instead
    of scaling) and a det that overflows go to np.linalg.det itself, so its
    `overflow encountered in det` warning stays.
    """
    if abs(c) > abs(a):
        sign, p, r, q, t = -1.0, c, d, a, b
    else:
        sign, p, r, q, t = 1.0, a, b, c, d
    if abs(p) >= sys.float_info.min:
        u = t - q * (1.0 / p) * r
        if u == 0.0:
            return 0.0
        if (p < 0) != (u < 0):
            sign = -sign
        log_det = math.log(abs(p)) + math.log(abs(u))
        if log_det <= _LOG_MAX:
            return sign * math.exp(log_det)
    return float(np.linalg.det(np.array([[a, b], [c, d]])))


def symplectic_eigenvalue(cov2: np.ndarray) -> float:
    """mu = 2 sqrt(det cov2); 1 for the vacuum, cosh(2 eta) when coupled.

    Positive definite is judged as a > 0 and det > 0, on the det mu is read from.
    """
    cov2 = np.asarray(cov2, dtype=float)
    if cov2.shape != (2, 2):
        raise ValueError(f"covariance must be 2x2, got {cov2.shape}")
    (a, b), (c, d) = cov2.tolist()
    if not (all(map(math.isfinite, (a, b, c, d))) and abs(b - c) <= DEFAULT_TOLERANCE):
        raise ValueError(_ASYMMETRIC)
    s = 0.5 * (b + c)
    det = _det2(a, s, s, d)
    if not (a > 0 and det > 0):
        raise ValueError(_NOT_PD)
    return 2.0 * math.sqrt(det)


class SubVacuumError(ValueError):
    """Covariance below the vacuum noise floor (mu < 1).

    Such states are classically admissible (non-canonical contraction can
    always shrink a phase-space area further) but carry no quantum entropy;
    they are reported distinctly instead of silently clipped.
    """


def occupation_entropy(v: float) -> float:
    """Entropy (v + 1) ln(v + 1) - v ln v of a mode with mean occupation v >= 0.

    As log1p(v) + v log1p(1/v): no cancellation at large v, exactly 0 at
    v = 0; below v = 1, log1p(1/v) = log1p(v) - ln v keeps 1/v from overflowing.
    """
    if v == 0:
        return 0.0
    tail = np.log1p(1.0 / v) if v >= 1.0 else np.log1p(v) - np.log(v)
    return float(np.log1p(v) + v * tail)


def gaussian_entropy(cov2: np.ndarray) -> float:
    """von Neumann entropy from the symplectic eigenvalue of cov2.

    With mu = 2 sqrt(det cov2) this is occupation_entropy((mu - 1)/2).  For
    the reduced coupled ground state mu = cosh(2 eta), so v = sinh^2(eta)
    and S = cosh^2(eta) ln cosh^2(eta) - sinh^2(eta) ln sinh^2(eta).

    Raises:
        SubVacuumError: mu < 1 - DEFAULT_TOLERANCE.
    """
    mu = symplectic_eigenvalue(cov2)
    if mu < 1.0 - DEFAULT_TOLERANCE:
        raise SubVacuumError(
            f"symplectic eigenvalue mu = {mu:.12g} < 1: sub-vacuum covariance "
            "has no quantum entropy"
        )
    return occupation_entropy(max((mu - 1.0) / 2.0, 0.0))


def areas(state: GaussianState) -> Tuple[float, float]:
    """Phase-space areas (A1, A2) of the two oscillators.

    A_i = 2 pi sqrt(det of the i-th 2x2 covariance block), normalized so the
    vacuum occupies area pi per oscillator (the unit-circle contour).
    """
    (a, b, _, _), (c, d, _, _), (_, _, e, f), (_, _, g, h) = state.cov.tolist()
    dets = _det2(a, b, c, d), _det2(e, f, g, h)
    if min(dets) < 0:  # a det that cancels below 0: NaN with numpy's invalid-value warning
        a1, a2 = (2.0 * np.pi * np.sqrt(dets)).tolist()
        return a1, a2
    return 2.0 * math.pi * math.sqrt(dets[0]), 2.0 * math.pi * math.sqrt(dets[1])


def area_product(state: GaussianState) -> float:
    """Correlation-aware four-volume measure (2 pi)^2 sqrt(det cov).

    Equals areas(state)[0] * areas(state)[1] whenever the two oscillators
    are uncorrelated (all the block-diagonal flows), and is invariant under
    every determinant-one transform, correlated or not.  The plain product
    of marginal areas grows like cosh^2 under the oscillator-mixing
    squeezes, which build cross correlations.
    """
    return float((2.0 * np.pi) ** 2 * np.sqrt(np.linalg.det(state.cov)))


def eta_from_temperature(T: float) -> float:
    """Squeeze parameter matching a temperature: cosh(2 eta) = 1/tanh(1/2T).

    Equivalent to arccosh(1/tanh(1/2T))/2 and to arctanh(e^{-1/2T});
    evaluated as (log1p(e^{-x}) - ln(-expm1(-x)))/2 with x = 1/2T, which
    stays accurate at both temperature extremes.  Rejects T <= 0 and
    non-finite T; the T -> 0+ limit is eta -> 0+.
    """
    if not 0 < T < np.inf:
        raise ValueError(f"temperature must be finite and > 0, got {T}")
    x = 0.5 / T
    if x > 20.0:
        # eta ~ e^{-x}; arctanh is exact for arguments this small
        return float(np.arctanh(np.exp(-x)))
    return float(0.5 * (np.log1p(np.exp(-x)) - np.log(-np.expm1(-x))))


def temperature_from_eta(eta: float) -> float:
    """Inverse map T = -1/(2 ln tanh eta), from e^{-1/T} = tanh^2 eta.

    For eta >= 1, ln tanh eta is evaluated as
    log1p(-e^{-2 eta}) - log1p(e^{-2 eta}) so deep squeezes do not round
    tanh to one; below that, tanh is exact and the direct form is used.
    Rejects eta <= 0 and non-finite eta; the eta -> 0+ limit is T -> 0+.
    Also rejects eta above about 355.6, where T ~ e^{2 eta}/4 passes the
    largest double.
    """
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be finite and > 0, got {eta}")
    if eta < 1.0:
        log_tanh = np.log(np.tanh(eta))
    else:
        q = np.exp(-2.0 * eta)
        log_tanh = np.log1p(-q) - np.log1p(q)
    # Python float division: an overflow is inf without a warning
    temperature = -0.5 / float(log_tanh) if log_tanh else np.inf
    if temperature == np.inf:
        raise ValueError(f"eta={eta} gives a temperature above the largest double")
    return temperature
