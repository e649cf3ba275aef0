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
* Matrices are tuples of rows: 4x4 transforms and covariances
  (``GaussianState.cov``), 2x2 blocks.  Every function that takes a matrix
  also reads an ndarray (through ``.tolist()``) or nested sequences, and
  refuses any other shape and a str, bytes, bool or complex cell.  The rows
  the module itself returns are read as they are, without a second float
  pass.

The arithmetic is Python floats and ``math``, without numpy: sums are formed
left to right in plain double precision (no fused multiply-add).  So
``oscsym simulate`` runs this pipeline without importing numpy.  The module
also holds the constants the CLI's parser needs (``DEFAULT_TOLERANCE`` and
the Fock limits), which ``algebra`` and ``fock`` re-export, the one
ln tanh eta rule that ``temperature_from_eta`` and the ``fock`` series ladder
read, and the one checker per number kind that every module's public
functions call: ``_count`` for an integer and ``_real`` for a real, each
refusing a bool or a non-number with TypeError and a value outside its
bounds with ValueError, in words that name the argument and the bounds.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Sequence, Tuple

__all__ = [
    "DEFAULT_TOLERANCE", "symplectic_deviation", "is_canonical", "generator_to_transform",
    "coupling_transform", "GaussianState", "vacuum_state", "evolve", "reduce_oscillator",
    "gaussian_purity", "SubVacuumError", "occupation_entropy", "gaussian_entropy",
    "areas", "eta_from_temperature", "temperature_from_eta",
]

# a matrix as its rows: tuples where a function returns one, lists inside
_Rows = Sequence[Sequence[float]]

#: the one tolerance constant of the program
DEFAULT_TOLERANCE = 1e-12
MIN_NMAX = 6  # smallest nmax the check and CLI accept; the safe subspace is nonempty from 4
MAX_NMAX = 256  # largest truncation the bracket check accepts (~0.15 s)
_FLOAT_MAX = sys.float_info.max


def _bounds(lo, hi, above: bool = False) -> str:
    """[lo, hi] ((lo, hi] when above) in the words of a refusal; a bound at or
    past the largest double is left out."""
    if -_FLOAT_MAX < lo and hi < _FLOAT_MAX:
        return f"in {'(' if above else '['}{lo}, {hi}]"
    if -_FLOAT_MAX < lo:
        return f"{'>' if above else '>='} {lo}"
    return f"<= {hi}" if hi < _FLOAT_MAX else ""


def _count(value, name: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    """value as an int in [lo, hi], the one check of an integer argument.

    Raises:
        TypeError: value is a bool or not an integer (numpy integers are integers).
        ValueError: value is outside [lo, hi], named with its bounds.
    """
    if type(value) is not int:
        try:
            if isinstance(value, bool):  # operator.index(True) is 1
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be {_bounds(lo, hi)}, got {value}")
    return value


def _real(value, name: str, lo: float = -_FLOAT_MAX, hi: float = _FLOAT_MAX,
          above: bool = False) -> float:
    """value as a float in [lo, hi], or (lo, hi] when above, the one check of a real argument.

    The default bounds are the finite doubles, so +-inf is refused unless hi is inf.

    Raises:
        TypeError: value is a bool or not a real number (numpy reals are real numbers).
        ValueError: value is NaN or outside its bounds, named with them.
    """
    # an int is compared exactly, also past the doubles; a float subclass
    # (np.float64) needs no abstract-class check
    if type(value) is not float and type(value) is not int:
        if not isinstance(value, float):
            import numbers  # here, so that a launch does not pay its import
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if not (lo < value <= hi if above else lo <= value <= hi):
        bounds = _bounds(lo, hi, above)
        rule = f"a {'finite ' if hi <= _FLOAT_MAX else ''}number {bounds}" if bounds else "finite"
        raise ValueError(f"{name} must be {rule}, got {value}")
    return float(value)


#: the fifteen sl4r_4 members on (x1, p1, x2, p2), scale 1/2; sp4_4 is the
#: ten TENFOLD_LABELS.  Each cell "rc+" or "rc-" puts +-i/2 at row r,
#: column c.  S2 sign: the opposite of the gamma bilinear (i/2) g1 g2.  This
#: is the unique single-member sign for which the fifteen matrices close with
#: the same structure constants as o33_6 ([S1, S2] = i S3 together with
#: [G_i, K_i] = -i S2); the correspondence checker reports the flip against
#: the bilinear recipe instead of hiding it.
_SL4R = {
    "L1": "03+ 12- 21+ 30-", "L2": "02- 13- 20+ 31+", "L3": "01+ 10- 23- 32+",
    "S1": "02+ 13- 20- 31+", "S2": "03+ 12+ 21- 30-", "S3": "01- 10+ 23- 32+",
    "K1": "01+ 10+ 23- 32-", "K2": "00+ 11- 22+ 33-", "K3": "03- 12- 21- 30-",
    "Q1": "00- 11+ 22+ 33-", "Q2": "01+ 10+ 23+ 32+", "Q3": "02+ 13- 20+ 31-",
    "G1": "02+ 13+ 20+ 31+", "G2": "03+ 12- 21- 30+", "G3": "00+ 11+ 22- 33-",
}


class _FloatRows(tuple):
    """A square matrix this module built: a tuple of row tuples of floats.

    ``_rows`` returns one as it is when it has the rows asked for, so a
    transform, covariance or block the module returns is not read again.
    """

    __slots__ = ()


_IDENTITY: _Rows = tuple(tuple(float(i == k) for k in range(4)) for i in range(4))
#: the vacuum covariance I/2
_VACUUM: _Rows = _FloatRows(tuple(0.5 * x for x in row) for row in _IDENTITY)
_ASYMMETRIC = f"covariance must be finite and symmetric (within {DEFAULT_TOLERANCE:.0e})"
_NOT_PD = "covariance must be positive definite"
# the largest exponent whose exp is a finite double
_LOG_MAX = math.log(_FLOAT_MAX)
_THETA = "theta (eta for the coupling)"


def _shape(m) -> tuple:
    """The shape numpy gives an array, or a nested list or tuple read along its first entries."""
    if hasattr(m, "shape"):
        return m.shape
    if isinstance(m, (list, tuple)):
        return (len(m), *_shape(m[0])) if m else (0,)
    return ()


def _rows(m, n: int, what: str) -> _Rows:
    """The float rows of an n x n ndarray or nested sequence; refuses any other shape
    with ValueError, and a str, bytes, bool or complex cell, which float() would
    read or refuse unnamed, with TypeError.

    n rows the module built are returned as they are.
    """
    if isinstance(m, _FloatRows) and len(m) == n:
        return m
    try:
        rows = [[*row] for row in (m.tolist() if hasattr(m, "tolist") else m)]
    except TypeError:  # a scalar, or a row that is one
        rows = []
    bad = next((x for row in rows for x in row if isinstance(x, (str, bytes, bool, complex))), None)
    if bad is not None:
        raise TypeError(f"{what} must hold real numbers, got {bad!r}")
    try:
        rows = [[*map(float, row)] for row in rows]
    except TypeError:  # a cell that is a sequence or no number
        rows = []
    if [*map(len, rows)] != [n] * n:
        raise ValueError(f"{what} must be {n}x{n}, got {_shape(m)}")
    return rows


def _product(x: _Rows, y: _Rows) -> _Rows:
    """X Y of two 4x4 row sequences."""
    return tuple(tuple(r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 for c0, c1, c2, c3 in zip(*y))
                 for r0, r1, r2, r3 in x)


def _flow_terms(cells: str) -> Tuple[bool, Tuple[Tuple[float, float], ...]]:
    """(rotation?, the 16 (B1, B2) entry pairs, row by row) of one member.

    M = B1 cos(theta) + B2 sin(theta) = cos I + sin A for a rotation and
    M = B1 e^theta + B2 e^-theta = e^theta P + e^-theta (I - P) for a squeeze.

    A = 2 Im G has entries 0 and +-1, so A^2 = +-I is checked exactly; the
    projector form P = (I + A)/2 keeps the small entries that cosh I + sinh A
    cancels.
    """
    a = [[0.0] * 4 for _ in range(4)]
    for r, c, sign in cells.split():
        a[int(r)][int(c)] = 1.0 if sign == "+" else -1.0
    square = _product(a, a)
    eye, flat = sum(_IDENTITY, ()), sum(map(tuple, a), ())
    if square == tuple(tuple(-x for x in row) for row in _IDENTITY):
        return True, tuple(zip(eye, flat))
    if square != _IDENTITY:
        raise ValueError("(2 Im G)^2 is not +-I, so exp(-2i theta G) has no two-term closed form")
    p = [0.5 * (i + x) for i, x in zip(eye, flat)]
    return False, tuple((x, i - x) for i, x in zip(eye, p))


#: label -> (rotation?, the 16 (B1, B2) entry pairs) for every sl4r_4 member
_FLOWS = {label: _flow_terms(cells) for label, cells in _SL4R.items()}
#: the coupling as a squeeze entry: the 45-degree normal-mode rotation's 0 and
#: +-1/sqrt2 entries, columns 0 and 3 in B1 (at e^eta), 1 and 2 in B2 (at e^-eta)
_COUPLING = (False, tuple(
    (x, 0.0) if c in (0, 3) else (0.0, x)
    for row in ((1, 0, 1, 0), (0, 1, 0, 1), (1, 0, -1, 0), (0, 1, 0, -1))
    for c, x in enumerate(sign * (1.0 / math.sqrt(2.0)) for sign in row)))


def _deviation(m: _Rows) -> float:
    """Max-abs entry of M J M^T - J of float rows; NaN when an entry is.

    M J M^T is antisymmetric, and its (i, l) entry is the sum of the two
    oscillator planes' minors M_i0 M_l1 - M_i1 M_l0 and M_i2 M_l3 - M_i3 M_l2,
    so the six entries above the diagonal are read; J is 1 at (0, 1) and
    (2, 3) and 0 at the other four.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    deviations = (
        abs(a0 * b1 - a1 * b0 + (a2 * b3 - a3 * b2) - 1.0),
        abs(a0 * c1 - a1 * c0 + (a2 * c3 - a3 * c2)),
        abs(a0 * d1 - a1 * d0 + (a2 * d3 - a3 * d2)),
        abs(b0 * c1 - b1 * c0 + (b2 * c3 - b3 * c2)),
        abs(b0 * d1 - b1 * d0 + (b2 * d3 - b3 * d2)),
        abs(c0 * d1 - c1 * d0 + (c2 * d3 - c3 * d2) - 1.0),
    )
    # max() keeps a NaN only when it comes first; their sum always keeps it
    return math.nan if math.isnan(sum(deviations)) else max(deviations)


def symplectic_deviation(m) -> float:
    """Max-abs entry of M J M^T - J (zero iff M is canonical)."""
    return _deviation(_rows(m, 4, "transform"))


def is_canonical(m) -> bool:
    """True iff M preserves the symplectic form within DEFAULT_TOLERANCE.

    The deviation max|M J M^T - J| is compared with
    DEFAULT_TOLERANCE * max(1, max|M|)**2: the rounding of M J M^T grows with
    the square of the entries, which reach e^|theta| under a squeeze.
    """
    m = _rows(m, 4, "transform")
    scale = max(1.0, *map(abs, m[0]), *map(abs, m[1]), *map(abs, m[2]), *map(abs, m[3])) ** 2
    return _deviation(m) <= DEFAULT_TOLERANCE * scale


def _evaluate(flow, theta: float) -> _Rows:
    """M = u B1 + v B2 of a flow entry, (u, v) = (cos theta, sin theta) or (e^theta, e^-theta).

    Refuses what ``_real`` refuses, which would give NaN rows or a bare math
    domain error, and a squeeze past _LOG_MAX, whose e^|theta| overflows.
    """
    rotation, pairs = flow
    theta = _real(theta, _THETA)
    if rotation:
        u, v = math.cos(theta), math.sin(theta)
    elif abs(theta) <= _LOG_MAX:
        u, v = math.exp(theta), math.exp(-theta)
    else:
        raise OverflowError(f"{_THETA} must be in [-{_LOG_MAX}, {_LOG_MAX}] for a squeeze, "
                            f"got {theta}")
    flat = tuple([u * x + v * y for x, y in pairs])
    return _FloatRows((flat[0:4], flat[4:8], flat[8:12], flat[12:16]))


def generator_to_transform(label: str, theta: float) -> _Rows:
    """Finite transformation M(theta) = exp(-2i theta G) for one generator.

    G is the named sl4r_4 member; since its entries are purely imaginary the
    exponent theta A, A = 2 Im G, is real and so is M, evaluated in the
    closed forms of the module conventions: cos(theta) B1 + sin(theta) B2 or
    e^theta B1 + e^-theta B2.  M(0) = I and
    M(theta1 + theta2) = M(theta1) M(theta2) along each one-parameter flow.

    Raises:
        TypeError: theta is a bool or not a real number.
        ValueError: unknown generator label, or a NaN or infinite theta.
        OverflowError: a squeeze with |theta| > ln(DBL_MAX) = 709.78, whose
            e^|theta| passes the largest double.
    """
    if label not in _FLOWS:
        raise ValueError(f"unknown generator {label!r}; expected one of {list(_FLOWS)}")
    return _evaluate(_FLOWS[label], theta)


def coupling_transform(eta: float) -> _Rows:
    """The oscillator-coupling canonical transformation at squeeze eta.

    Composition of the 45-degree normal-mode rotation with reciprocal
    squeezes e^{+-eta} of the two modes (x modes squeezed oppositely to p
    modes), oriented so the vacuum evolves into the correlated ground state:

        cov = [[cosh 2eta, 0,          sinh 2eta,  0        ],
               [0,         cosh 2eta,  0,         -sinh 2eta],
               [sinh 2eta, 0,          cosh 2eta,  0        ],
               [0,        -sinh 2eta,  0,          cosh 2eta]] / 2.

    That is the rotation's columns scaled by e^eta, e^-eta, e^-eta, e^eta.
    The transpose of the returned matrix is the corresponding coordinate
    substitution ((x1 + x2) e^{eta} / sqrt2, (x1 - x2) e^{-eta} / sqrt2 and
    reciprocally for the momenta).

    Raises:
        TypeError: eta is a bool or not a real number.
        ValueError: a NaN or infinite eta.
        OverflowError: |eta| > ln(DBL_MAX) = 709.78, whose e^|eta| passes the
            largest double.
    """
    return _evaluate(_COUPLING, eta)


def _congruence(m: _Rows, c: _Rows) -> _Rows:
    """M C M^T of a symmetric C: the upper triangle, mirrored, so the result is exactly symmetric."""
    (c00, c01, c02, c03), (c10, c11, c12, c13), \
        (c20, c21, c22, c23), (c30, c31, c32, c33) = c
    # the rows of T = M C, reading C's rows as its columns
    (p0, p1, p2, p3), (q0, q1, q2, q3), (s0, s1, s2, s3), (t0, t1, t2, t3) = [
        (x0 * c00 + x1 * c01 + x2 * c02 + x3 * c03, x0 * c10 + x1 * c11 + x2 * c12 + x3 * c13,
         x0 * c20 + x1 * c21 + x2 * c22 + x3 * c23, x0 * c30 + x1 * c31 + x2 * c32 + x3 * c33)
        for x0, x1, x2, x3 in m]
    (a0, a1, a2, a3), (b0, b1, b2, b3), (d0, d1, d2, d3), (e0, e1, e2, e3) = m
    # (T M^T)_il, the row of T times the row of M, for l >= i
    r00, r01 = p0 * a0 + p1 * a1 + p2 * a2 + p3 * a3, p0 * b0 + p1 * b1 + p2 * b2 + p3 * b3
    r02, r03 = p0 * d0 + p1 * d1 + p2 * d2 + p3 * d3, p0 * e0 + p1 * e1 + p2 * e2 + p3 * e3
    r11, r12 = q0 * b0 + q1 * b1 + q2 * b2 + q3 * b3, q0 * d0 + q1 * d1 + q2 * d2 + q3 * d3
    r13, r22 = q0 * e0 + q1 * e1 + q2 * e2 + q3 * e3, s0 * d0 + s1 * d1 + s2 * d2 + s3 * d3
    r23, r33 = s0 * e0 + s1 * e1 + s2 * e2 + s3 * e3, t0 * e0 + t1 * e1 + t2 * e2 + t3 * e3
    return _FloatRows(((r00, r01, r02, r03), (r01, r11, r12, r13),
                       (r02, r12, r22, r23), (r03, r13, r23, r33)))


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


def _checked_cov(c: _Rows) -> _Rows:
    """A 4x4 covariance of float rows, checked and symmetrised.

    Refuses non-finite entries and off-diagonal pairs further apart than
    DEFAULT_TOLERANCE, replaces each pair by its mean, and refuses a result
    with an LDL^T pivot <= 0.

    Raises:
        ValueError: with _ASYMMETRIC or _NOT_PD.
    """
    (c00, c01, c02, c03), (c10, c11, c12, c13), \
        (c20, c21, c22, c23), (c30, c31, c32, c33) = c
    if not (all(map(math.isfinite, (c00, c01, c02, c03, c10, c11, c12, c13,
                                    c20, c21, c22, c23, c30, c31, c32, c33)))
            and max(abs(c01 - c10), abs(c02 - c20), abs(c03 - c30),
                    abs(c12 - c21), abs(c13 - c31), abs(c23 - c32)) <= DEFAULT_TOLERANCE):
        raise ValueError(_ASYMMETRIC)
    s01, s02, s03 = 0.5 * (c01 + c10), 0.5 * (c02 + c20), 0.5 * (c03 + c30)
    s12, s13, s23 = 0.5 * (c12 + c21), 0.5 * (c13 + c31), 0.5 * (c23 + c32)
    if not _pivots_positive(c00, s01, s02, s03, c11, s12, s13, c22, s23, c33):
        raise ValueError(_NOT_PD)
    return _FloatRows(((c00, s01, s02, s03), (s01, c11, s12, s13),
                       (s02, s12, c22, s23), (s03, s13, s23, c33)))


class GaussianState:
    """Zero-mean Gaussian state over (x1, p1, x2, p2), held as its covariance.

    The covariance must be symmetric positive definite; sub-vacuum
    covariances (symplectic eigenvalue below 1) are representable --
    classically legal states produced by non-canonical contraction -- and
    are only flagged when a quantum entropy is requested.  ``cov`` is the
    checked, symmetrised 4x4 as row tuples, and cannot be reassigned.
    """

    __slots__ = ("_cov",)

    def __init__(self, cov):
        self._cov = _checked_cov(_rows(cov, 4, "covariance"))

    @property
    def cov(self) -> _Rows:
        return self._cov

    def __repr__(self) -> str:
        return f"GaussianState(cov={self._cov!r})"


def vacuum_state() -> GaussianState:
    """Ground state of both oscillators: covariance I/2."""
    return GaussianState(_VACUUM)


def evolve(state: GaussianState, m) -> GaussianState:
    """Push a Gaussian state through a linear phase-space map.

    cov -> M cov M^T, i.e. the Wigner function transforms by substitution
    W'(xi) = W(M^{-1} xi).
    """
    return GaussianState(_congruence(_rows(m, 4, "transform"), state.cov))


def reduce_oscillator(state: GaussianState, keep: int) -> _Rows:
    """2x2 marginal covariance of the kept oscillator (1 or 2).

    For a Gaussian Wigner function, integrating out the other oscillator's
    pair of variables leaves exactly the corresponding diagonal sub-block.

    Raises:
        TypeError: keep is a bool or not an integer.
        ValueError: keep is outside [1, 2].
    """
    return _block(state.cov, 0 if _count(keep, "keep", 1, 2) == 1 else 2)


def _block(cov: _Rows, i: int) -> _Rows:
    """The 2x2 diagonal block of a checked covariance that starts at row and column i."""
    return _FloatRows((cov[i][i:i + 2], cov[i + 1][i:i + 2]))


def _det2(a: float, b: float, c: float, d: float) -> float:
    """det [[a, b], [c, d]] of finite entries: LU with row pivoting in Python floats.

    The pivot row (p, r) has the larger |first entry|, the other row (q, t)
    leaves u = t - l r, and det = sign * exp(ln|p| + ln|u|) as numpy's slogdet
    forms it (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    ch. 9).  A normal pivot scales, l = q * (1/p), as OpenBLAS does, so the
    det is np.linalg.det's bit for bit; a subnormal one divides, l = q / p,
    as reference LAPACK's dgetf2 does.  A zero first column gives 0.0, and a
    det above the largest double raises OverflowError.
    """
    if abs(c) > abs(a):
        sign, p, r, q, t = -1.0, c, d, a, b
    else:
        sign, p, r, q, t = 1.0, a, b, c, d
    if p == 0.0:
        return 0.0
    u = t - (q * (1.0 / p) if abs(p) >= sys.float_info.min else q / p) * r
    if u == 0.0:
        return 0.0
    if (p < 0) != (u < 0):
        sign = -sign
    log_det = math.log(abs(p)) + math.log(abs(u))
    if log_det > _LOG_MAX:
        raise OverflowError(f"a 2x2 det exceeds the largest double (ln|det| = {log_det:.6g})")
    return sign * math.exp(log_det)


def _mu(block: _Rows) -> float:
    """mu = 2 sqrt(det) of a 2x2 covariance of float rows; 1 for the vacuum, cosh(2 eta) when coupled.

    The one check of a 2x2 covariance: finite, symmetric within DEFAULT_TOLERANCE,
    and positive definite judged as a > 0 and det > 0, on the det mu is read from.
    """
    (a, b), (c, d) = block
    if not (all(map(math.isfinite, (a, b, c, d))) and abs(b - c) <= DEFAULT_TOLERANCE):
        raise ValueError(_ASYMMETRIC)
    s = 0.5 * (b + c)
    det = _det2(a, s, s, d)
    if not (a > 0 and det > 0):
        raise ValueError(_NOT_PD)
    return 2.0 * math.sqrt(det)


def gaussian_purity(cov2) -> float:
    """Tr(rho^2) of the Gaussian state with 2x2 covariance cov2.

    1/(2 sqrt(det cov2)) under the vacuum = I/2 convention: 1 for the
    vacuum block, 1/cosh(2 eta) for the reduced coupled ground state.  A det
    above the largest double raises OverflowError, as in gaussian_entropy and areas.
    """
    return 1.0 / _mu(_rows(cov2, 2, "covariance"))


class SubVacuumError(ValueError):
    """Covariance below the vacuum noise floor (mu < 1).

    Such states are classically admissible (non-canonical contraction can
    always shrink a phase-space area further) but carry no quantum entropy;
    they are reported distinctly instead of silently clipped.
    """


def occupation_entropy(v: float) -> float:
    """Entropy (v + 1) ln(v + 1) - v ln v of a mode with mean occupation v >= 0.

    As log1p(v) + v log1p(1/v): no cancellation at large v, exactly 0 at
    v = 0 and inf at v = inf; below v = 1, log1p(1/v) = log1p(v) - ln v keeps
    1/v from overflowing.

    Raises:
        TypeError: v is a bool or not a real number.
        ValueError: v is NaN or negative.
    """
    v = _real(v, "v", 0, math.inf)
    if v == 0 or v == math.inf:
        return v + 0.0  # 0.0 for -0.0
    tail = math.log1p(1.0 / v) if v >= 1.0 else math.log1p(v) - math.log(v)
    return math.log1p(v) + v * tail


def gaussian_entropy(cov2) -> float:
    """von Neumann entropy from the symplectic eigenvalue of cov2.

    With mu = 2 sqrt(det cov2) this is occupation_entropy((mu - 1)/2).  For
    the reduced coupled ground state mu = cosh(2 eta), so v = sinh^2(eta)
    and S = cosh^2(eta) ln cosh^2(eta) - sinh^2(eta) ln sinh^2(eta).

    Raises:
        SubVacuumError: mu < 1 - DEFAULT_TOLERANCE.
    """
    mu = _mu(_rows(cov2, 2, "covariance"))
    if mu < 1.0 - DEFAULT_TOLERANCE:
        raise SubVacuumError(
            f"symplectic eigenvalue mu = {mu:.12g} < 1: sub-vacuum covariance "
            "has no quantum entropy"
        )
    return occupation_entropy(max((mu - 1.0) / 2.0, 0.0))


def areas(state: GaussianState) -> Tuple[float, float]:
    """Phase-space areas (A1, A2) of the two oscillators.

    A_i = pi mu_i = 2 pi sqrt(det of the i-th 2x2 covariance block), so the
    vacuum occupies area pi per oscillator (the unit-circle contour).  A block
    is checked as gaussian_purity checks it: one whose det rounds to <= 0 is refused.
    """
    return math.pi * _mu(_block(state.cov, 0)), math.pi * _mu(_block(state.cov, 2))


def eta_from_temperature(T: float) -> float:
    """Squeeze parameter matching a temperature: cosh(2 eta) = 1/tanh(1/2T).

    Equivalent to arccosh(1/tanh(1/2T))/2 and to arctanh(e^{-1/2T}).  With
    x = 1/2T, arctanh(e^{-x}) is evaluated as it stands for T < 1 (x > 1/2)
    and as (log1p(e^{-x}) - ln(-expm1(-x)))/2 above, where e^{-x} nears 1.
    The second form cancels at large x, where -expm1(-x) rounds next to 1
    (2.5e7 ulp off at x = 19).  The result is within 2 (1 + x) ulp of the
    exact value: the rounding of x itself reaches e^{-x} x-fold.  The
    T -> 0+ limit is eta -> 0+.

    Raises:
        TypeError: T is a bool or not a real number.
        ValueError: T is not a finite number > 0.
    """
    x = 0.5 / _real(T, "temperature", 0, above=True)
    if x > 0.5:
        return math.atanh(math.exp(-x))
    return 0.5 * (math.log1p(math.exp(-x)) - math.log(-math.expm1(-x)))


def _log_tanh(eta: float) -> float:
    """ln tanh eta of a finite eta > 0: log1p(-e) - log1p(e), e = e^{-2 eta}, from
    eta = 1/4, so deep squeezes do not round tanh to one; below that the direct
    form, well conditioned there (at eta = 0.95 it would be 7.6 ulp off)."""
    if eta < 0.25:
        return math.log(math.tanh(eta))
    e = math.exp(-2.0 * eta)
    return math.log1p(-e) - math.log1p(e)


def temperature_from_eta(eta: float) -> float:
    """Inverse map T = -1/(2 ln tanh eta), from e^{-1/T} = tanh^2 eta.

    ln tanh eta is ``_log_tanh``'s, the one the ``fock`` series ladder
    reads.  The result is within 3 ulp of the exact T.  The eta -> 0+
    limit is T -> 0+.

    Raises:
        TypeError: eta is a bool or not a real number.
        ValueError: eta is not a finite number > 0, or above about 355.6, where
            T ~ e^{2 eta}/4 passes the largest double.
    """
    eta = _real(eta, "eta", 0, above=True)
    log_tanh = _log_tanh(eta)
    # Python float division: an overflow is inf without a warning
    temperature = -0.5 / log_tanh if log_tanh else math.inf
    if temperature == math.inf:
        raise ValueError(f"eta={eta} gives a temperature above the largest double")
    return temperature
