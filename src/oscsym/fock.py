"""Truncated two-mode Fock realization and oscillator-eigenfunction oracles.

The ladder-operator generators live on the product basis |n1, n2> with
n1, n2 < nmax, index n1 * nmax + n2.  Quadratic generators couple states at
most two quanta apart, so commutator identities are exact on the low
occupation block (the "safe subspace") and only break where truncation
clips a raising path; the edge behaviour is exposed, not hidden.  Each
generator is a sum of Kronecker products of one-mode ladder words, each word
one shifted diagonal, so every generator and every bracket residual is a few
diagonals of the flat index, evaluated in O(nmax**2).

The wavefunction side provides orthonormal oscillator eigenfunctions by
stable upward recurrence, Gauss-Hermite quadrature, the coupled ground
state, its eigenfunction expansion, and the reduced density matrix through
three independent routes (closed form, series, partial-trace quadrature).
"""

from __future__ import annotations

import math
import sys
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .phase_space import (DEFAULT_TOLERANCE, MAX_NMAX, MIN_NMAX, _LOG_MAX,
                          _count, _log_tanh, _real, occupation_entropy)
from .algebra import VerificationReport, _pair_plan, alge11_table
from .families import GeneratorSet

__all__ = [
    "HERMITE_KMAX", "MIN_NMAX", "MAX_NMAX", "MAX_KMAX",
    "fock_index", "basis_state",
    "dirac_tenfold", "safe_subspace_mask", "verify_fock_commutators",
    "phi", "gauss_hermite", "psi_eta",
    "expansion_overlap", "expansion_coefficient", "rho_reduced", "rho_series",
    "rho_partial_trace", "series_weights", "series_tail_bound",
    "kmax_for_tail", "SeriesMoments", "moments", "ThermalState",
    "thermal_state", "wigner_radius",
]

HERMITE_KMAX = 200
MAX_KMAX = 2 ** 24  # largest series truncation, the cap on series_weights' array (128 MiB)
_DENSE_TENFOLD_BYTES = 2 ** 26  # cap on the ten dense members of dirac_tenfold
_SAFE_MARGIN = 3  # the safe subspace is n1 + n2 <= nmax - _SAFE_MARGIN
_FOCK_BYTES = 2 ** 18  # largest block of diagonal values in verify_fock_commutators
_SERIES_BLOCK = 2 ** 14  # most ladder terms in moments' one block
_QUADRATURE_BYTES = 2 ** 16  # largest (points, nodes) block in rho_partial_trace
_HERMITE_BLOCK = 16  # eigenfunction rows per block of the recurrence
_MAX_NODES = 370  # largest Gauss-Hermite rule whose weights stay normal doubles
_MAX_ETA = 350  # largest |eta| whose e^{2|eta|} times a squared node gap stays finite
_NEAR_X = 64.0  # e^700 (2 x)^2 stays finite up to it; every ladder row is 0.0 from ~38.6


# ---------------------------------------------------------------------------
# truncated ladder operators and the ten quadratic generators

#: the ten generators as quadratic forms in the ladder operators: coefficient
#: and signed products, ``a1`` lowering and ``A1`` raising mode 1
_QUADRATICS = {
    "L1": (0.5, "+A1a2 +A2a1"),
    "L2": (-0.5j, "+A1a2 -A2a1"),
    "L3": (0.5, "+A1a1 -A2a2"),
    "S3": (0.5, "+A1a1 +a2A2"),
    "K1": (-0.25, "+A1A1 +a1a1 -A2A2 -a2a2"),
    "K2": (0.25j, "+A1A1 -a1a1 +A2A2 -a2a2"),
    "K3": (0.5, "+A1A2 +a1a2"),
    "Q1": (0.25j, "+A1A1 -a1a1 -A2A2 +a2a2"),
    "Q2": (0.25, "+A1A1 +a1a1 +A2A2 +a2a2"),
    "Q3": (-0.5j, "+A1A2 -a1a2"),
}


@lru_cache(maxsize=None)
def _word_plan():
    """The ten generators and their brackets as sums of Kronecker products of words.

    A word is a product of ``a`` and ``A`` on one mode, e.g. ``"Aa"``, so a
    generator is its phase (1 or 1j) times a sum of real coefficients times
    a mode-1 word (x) a mode-2 word.  Each unordered bracket
    [G_a, G_b] - i sum_c f_abc G_c, over the phase of G_a G_b, expands into
    such products, G_a G_b and G_b G_a word by word; terms with the same
    word pair are merged (their dyadic coefficients add exactly) and those
    that cancel are dropped.  Returns (words, imag, owner, step, terms):
    imag[g] is 1 for a generator of phase 1j; diagonal u holds
    <n1, n2|.|n1 + step[u, 0], n2 + step[u, 1]> of generator g for owner[u]
    = (g, g), of the bracket of a < b for (a, b); terms = (alpha, w1, w2),
    each (diagonals, k) and padded with zero coefficients, give diagonal u
    as sum_k alpha[u, k] words[w1[u, k]] (x) words[w2[u, k]].

    Raises:
        ValueError: a table coefficient whose phase no Fock generator can match.
    """
    f = alge11_table().f  # labelled in _QUADRATICS order: both are TENFOLD_LABELS
    imag = [int(coeff.imag != 0) for coeff, _ in _QUADRATICS.values()]
    # term "+A1a2" of a generator: its coefficient, mode-1 word "A", mode-2 word "a"
    gens = [[((1.0 if t[0] == "+" else -1.0) * (coeff.real + coeff.imag),
              *("".join(op[0] for op in (t[1:3], t[3:5]) if op[1] == m) for m in "12"))
             for t in formula.split()] for coeff, formula in _QUADRATICS.values()]
    expansion = [((g, g, x, y), alpha) for g, terms in enumerate(gens) for alpha, x, y in terms]
    for a, b in combinations(range(len(gens)), 2):
        for (alpha, x, y), (beta, u, v) in product(gens[a], gens[b]):
            expansion += [((a, b, x + u, y + v), alpha * beta),
                          ((a, b, u + x, v + y), -alpha * beta)]
        for c in np.flatnonzero(f[a, b]).tolist():
            kappa = f[a, b, c] * (1, 1j, -1, -1j)[(1 + imag[c] - imag[a] - imag[b]) % 4]
            if kappa.imag:
                raise ValueError("bracket table phases do not match the Fock generators")
            expansion += [((a, b, x, y), -kappa.real * gamma) for gamma, x, y in gens[c]]
    sums: Dict[Tuple, float] = {}
    for key, alpha in expansion:
        sums[key] = sums.get(key, 0.0) + alpha
    words: Dict[str, int] = {}
    diagonals: Dict[Tuple, list] = {}
    for (a, b, x, y), alpha in sums.items():
        if alpha:
            step = (x.count("a") - x.count("A"), y.count("a") - y.count("A"))
            diagonals.setdefault((a, b, *step), []).append(
                (alpha, words.setdefault(x, len(words)), words.setdefault(y, len(words))))
    terms = np.zeros((3, len(diagonals), max(map(len, diagonals.values()))))
    for u, row in enumerate(diagonals.values()):
        terms[:, u, :len(row)] = np.transpose(row)
    keys = np.array(list(diagonals))
    return (tuple(words), np.array(imag), keys[:, :2], keys[:, 2:],
            (terms[0], terms[1].astype(int), terms[2].astype(int)))


def _word_values(words, n: int, nmax: int) -> np.ndarray:
    """<k|w|k + shift> of each one-mode word w at k = 0..n-1, with n <= nmax.

    A word is read as a matrix product, left to right: from occupation k,
    ``a`` moves to k + 1 with factor sqrt(k + 1) and ``A`` to k - 1 with
    factor sqrt(k).  The value is the product of those factors in that
    order, 0 wherever an occupation on the way leaves [0, nmax).  Words have
    at most four letters.
    """
    root = np.zeros(nmax + 8)
    root[4:nmax + 4] = np.sqrt(np.arange(nmax))  # root[k + 4] = sqrt(k) inside the truncation
    values = np.ones((len(words), n))
    for v, word in zip(values, words):
        k = 4
        for op in word:
            k += op == "a"
            v *= root[k:k + n]
            k -= op == "A"
    return values


def fock_index(nmax: int, n1: int, n2: int) -> int:
    """Flat index of |n1, n2> in the product basis.

    Raises:
        TypeError: nmax, n1 or n2 is a bool or not an integer.
        ValueError: nmax outside [1, MAX_NMAX], or n1 or n2 outside [0, nmax - 1].
    """
    nmax = _count(nmax, "nmax", 1, MAX_NMAX)
    return _count(n1, "n1", 0, nmax - 1) * nmax + _count(n2, "n2", 0, nmax - 1)


def basis_state(nmax: int, n1: int, n2: int) -> np.ndarray:
    """Unit vector for |n1, n2>; refuses arguments as ``fock_index`` does."""
    v = np.zeros(_count(nmax, "nmax", 1, MAX_NMAX) ** 2)
    v[fock_index(nmax, n1, n2)] = 1.0
    return v


def dirac_tenfold(nmax: int) -> GeneratorSet:
    """The ten quadratic ladder-operator generators on the truncated space.

    L1..L3 and S3 conserve total occupation; K1..K3 and Q1..Q3 move it by
    two quanta.  S3 is normal-ordered as (a1'a1 + a2 a2')/2, so
    S3|0,0> = |0,0>/2.  The overall signs of Q1..Q3 are the ones for which
    the set closes under the ten-generator bracket table with this S3
    ([K_i, Q_i] = -i S3); writing the same quadratic forms with opposite
    sign satisfies the mirrored table instead.

    The set's read-only ``block`` is one zeroed complex (10, nmax**2, nmax**2)
    array, handed over without a copy, whose C-contiguous views are the
    members.  The 26 diagonals of the ten are sums of products of one-mode
    word values, one ``np.einsum`` over the (n1, n2) grid; one scatter into
    the block's interleaved (real, imag) doubles writes their nonzeros, with
    no dense product and no loop over them.

    Raises:
        TypeError: nmax is a bool or not an integer.
        ValueError: nmax outside [4, MAX_NMAX], or the ten dense members would
            take more than 64 MiB (nmax > 25).
    """
    size = 10 * _count(nmax, "nmax", 4, MAX_NMAX) ** 4 * np.dtype(complex).itemsize
    if size > _DENSE_TENFOLD_BYTES:
        raise ValueError(
            f"dirac_tenfold({nmax}) would hold {size / 2 ** 20:.0f} MiB of dense "
            f"members (limit {_DENSE_TENFOLD_BYTES / 2 ** 20:.0f} MiB); "
            f"verify_fock_commutators checks up to nmax {MAX_NMAX} without them")
    words, imag, owner, step, (alpha, w1, w2) = _word_plan()
    own = owner[:, 0] == owner[:, 1]  # the generators' own diagonals
    gen, step, dim = owner[own, 0], step[own], nmax * nmax
    word = _word_values(words, nmax, nmax)
    # numpy's own einsum loop, not a BLAS routine, so no sum follows the thread count
    values = np.einsum("dki,dkj->dij", alpha[own, :, None] * word[w1[own]],
                       word[w2[own]]).reshape(len(gen), dim)
    # diagonal u puts row i's value at column i + s1 nmax + s2 of member gen[u]:
    # double 2 * (complex index in the block), + 1 for an imaginary generator
    at = ((2 * (gen * dim * dim + step @ (nmax, 1)) + imag[gen])[:, None]
          + 2 * (dim + 1) * np.arange(dim))
    inside = values != 0  # zero wherever the column leaves the truncation
    block = np.zeros((len(_QUADRATICS), dim, dim), complex)
    block.view(float).reshape(-1)[at[inside]] = values[inside]
    return GeneratorSet(f"fock(nmax={nmax})", _QUADRATICS, block)


def safe_subspace_mask(nmax: int) -> np.ndarray:
    """Boolean mask of states with n1 + n2 <= nmax - 3.

    With margin 3 every raising path of a quadratic-times-quadratic product
    stays below the truncation, so restricted commutators are exact.

    Raises:
        TypeError: nmax is a bool or not an integer.
        ValueError: nmax outside [4, MAX_NMAX]: 4 is the smallest ``dirac_tenfold``
            it indexes.
    """
    n1, n2 = np.divmod(np.arange(_count(nmax, "nmax", 4, MAX_NMAX) ** 2), nmax)
    return (n1 + n2) <= (nmax - _SAFE_MARGIN)


def verify_fock_commutators(nmax: int,
                            tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Evaluate every ten-generator bracket on the safe subspace.

    Reads rows and columns with n1 + n2 <= nmax - 3 (unrestricted residuals
    are nonzero at the truncation edge).  The residual of a pair is
    max|[A, B] - i sum_c f_abc G_c| / max(1, max_l max|G_l|)**2, both maxima
    over that block; the scale grows like nmax**2.  Each bracket minus its
    f terms is, word by word, a few diagonals sum_k alpha_k x_k (x) y_k
    (``_word_plan``), which one ``np.einsum`` per band of n1 rows evaluates
    with the generators' own diagonals on the square n1, n2 <= nmax - 3,
    masked to the safe rows and columns.  numpy's own einsum loop, not a
    BLAS routine, forms every sum, so no residual follows the thread count.
    The same number serves (a, b) and (b, a).  Cost is O(nmax**2), memory
    O(nmax) beyond ``_FOCK_BYTES``.

    Raises:
        TypeError: nmax is a bool or not an integer, or tolerance a bool or not
            a real number.
        ValueError: nmax outside [MIN_NMAX, MAX_NMAX], or tolerance is not a finite number > 0.
    """
    _real(tolerance, "tolerance", 0, above=True)
    _count(nmax, "nmax", MIN_NMAX, MAX_NMAX)
    words, _, owner, step, (alpha, w1, w2) = _word_plan()
    top = nmax - _SAFE_MARGIN  # largest total occupation of the safe subspace
    values = _word_values(words, top + 1, nmax)
    x, y = alpha[:, :, None] * values[w1], values[w2]  # diagonal u is sum_k x[u, k] (x) y[u, k]
    # the largest row total n1 + n2 whose row and column are both safe
    reach = (top - np.maximum(0, step.sum(axis=1)))[:, None, None]
    worst, lo = np.zeros(len(owner)), 0
    while lo <= top:  # a row n1 >= lo reaches no safe column n2 > top - lo
        width = top + 1 - lo
        hi = min(top + 1, lo + max(1, _FOCK_BYTES // (8 * len(owner) * width)))
        d = np.einsum("dki,dkj->dij", x[:, :, lo:hi], y[:, :, :width])
        safe = np.arange(lo, hi)[:, None] + np.arange(width) <= reach
        worst = np.maximum(worst, np.max(np.abs(d, out=d), axis=(1, 2), where=safe, initial=0.0))
        lo = hi
    peak = np.zeros((len(_QUADRATICS),) * 2)  # generators on the diagonal, pairs above it
    np.maximum.at(peak, tuple(owner.T), worst)
    scale = max(1.0, float(peak.diagonal().max())) ** 2
    pairs, rows, cols = _pair_plan(alge11_table().labels)
    residuals = np.maximum(peak, peak.T)[rows, cols] / scale
    return VerificationReport(f"fock(nmax={nmax})", tolerance, dict(zip(pairs, residuals.tolist())))


# ---------------------------------------------------------------------------
# oscillator eigenfunctions and quadrature

def _hermite_blocks(kmax: int, x: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """Orthonormal oscillator eigenfunctions phi_0..phi_kmax at the flat points x, by blocks.

    Unit mass and frequency: phi_0(x) = pi**-1/4 exp(-x**2/2).  Uses the
    normalized three-term recurrence
    phi_{k+1} = sqrt(2/(k+1)) x phi_k - sqrt(k/(k+1)) phi_{k-1},
    which is stable upward, as (c x) phi_k - c' phi_{k-1} with c and c' Python
    floats computed once per call; its callers check the int kmax against
    HERMITE_KMAX.  Yields (lo, rows) with rows[i] = phi_{lo + i}(x), up to
    _HERMITE_BLOCK rows a block.  rows is a view of one buffer that the next
    block overwrites, after the two rows the recurrence carries over, so
    memory is O(_HERMITE_BLOCK x.size).
    """
    c = [math.sqrt(2.0 / (k + 1)) for k in range(kmax)]
    c_prev = [math.sqrt(k / (k + 1.0)) for k in range(kmax)]
    size = min(kmax + 1, _HERMITE_BLOCK)
    buf = np.zeros((size + 2, x.size))  # phi_{lo-2}, phi_{lo-1}, then the block
    rows, scaled = list(buf), np.empty(x.size)
    rows[2][:] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    lo, j = 0, 3  # row j of the buffer receives phi_{lo + j - 2}
    for k in range(kmax):  # phi_1 from phi_0 and the zero row phi_{-1}, then upward
        if j == len(rows):
            yield lo, buf[2:]
            buf[:2] = buf[-2:]
            lo, j = lo + size, 2
        row = rows[j]
        np.multiply(x, c[k], out=row)
        row *= rows[j - 1]
        np.multiply(rows[j - 2], c_prev[k], out=scaled)
        row -= scaled
        j += 1
    yield lo, buf[2:j]


def phi(k: int, x):
    """k-th oscillator eigenfunction at x: a copy of the last row of the recurrence.

    Raises:
        TypeError: k is a bool or not an integer.
        ValueError: k outside [0, HERMITE_KMAX], or a NaN or infinite x.
    """
    k = _count(k, "k", 0, HERMITE_KMAX)
    (x,), _ = _points(x, bound=_NEAR_X)
    for _, rows in _hermite_blocks(k, x.reshape(-1)):
        pass
    return rows[-1].reshape(x.shape).copy()[()]  # a scalar for a scalar x


def gauss_hermite(n: int = 128) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and total weights w * exp(x**2), read-only.

    With the total weights, sum(w_tot * f(x)) approximates the plain
    integral of f; exact for f = (polynomial of degree < 2n) * exp(-x**2).
    n is capped at _MAX_NODES = 370: from n = 371 the smallest weight
    w ~ exp(-x_max**2) falls below the smallest normal double inside numpy's
    hermgauss, which then returns zero or NaN weights with only a warning.

    Raises:
        TypeError: n is a bool or not an integer.
        ValueError: n outside [1, _MAX_NODES].
    """
    return _gauss_hermite_rule(_count(n, "n", 1, _MAX_NODES))


@lru_cache(maxsize=8)
def _gauss_hermite_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.hermite.hermgauss(n)
    total = np.exp(np.log(w) + x * x)
    x.flags.writeable = False
    total.flags.writeable = False
    return x, total


def _points(*coordinates, bound: float = np.inf):
    """The coordinates as float arrays clipped to [-bound, bound] and broadcast, and
    the context to evaluate them in: past _NEAR_X a square can overflow, and the
    context lets it run to inf, which exp reads as the underflowed 0.0 it is.

    Refuses NaN or infinite coordinates, each before broadcasting: unchecked, an
    infinite x gave 0.0 from the closed forms and phi_0 but NaN from the recurrence.
    Refuses with TypeError what is not an integer or float array (a bool, str,
    bytes, complex or object one), which a float cast would read or half-read.
    """
    points, far = [], False
    for x in coordinates:
        x = np.asarray(x)
        if x.dtype.kind not in "iuf":
            raise TypeError(f"coordinates must be real numbers, got dtype {x.dtype}")
        x = x.astype(float, copy=False)
        top = np.abs(x).max(initial=0.0)
        if not top < np.inf:  # NaN compares false
            raise ValueError("coordinates must be finite, got NaN or inf")
        far |= top > _NEAR_X
        points.append(x if top <= bound else np.clip(x, -bound, bound))
    shape = np.broadcast(*points).shape  # np.broadcast_arrays costs more on the common equal shapes
    return ([x if x.shape == shape else np.broadcast_to(x, shape) for x in points],
            np.errstate(over="ignore") if far else nullcontext())


def _psi_eta_of_squares(eta: float, minus, plus, out, scratch) -> None:
    """psi_eta from the squares minus = (x1 - x2)^2 and plus = (x1 + x2)^2, into out;
    scratch receives the plus term, and out and scratch may be minus and plus."""
    np.multiply(minus, np.exp(2 * eta), out=out)
    np.multiply(plus, np.exp(-2 * eta), out=scratch)
    out += scratch
    out *= -0.25
    np.exp(out, out=out)
    out *= np.pi ** -0.5


def psi_eta(eta: float, x1, x2):
    """Coupled two-oscillator ground state.

    (1/sqrt(pi)) exp(-[e^{2 eta} (x1 - x2)^2 + e^{-2 eta} (x1 + x2)^2] / 4);
    eta = 0 is the uncoupled ground state, and on the diagonal x1 = x2 the
    difference term drops out.  The exponent is formed in place in two
    buffers, one per square, with the rounding of the one-expression formula;
    _psi_eta_grid applies the same operations to cached node squares.

    Raises:
        TypeError: eta is a bool or not a real number.
        ValueError: eta is not a finite number in [-350, 350], or a NaN or infinite x1 or x2.
    """
    _real(eta, "eta", -_MAX_ETA, _MAX_ETA)
    (x1, x2), quiet = _points(x1, x2)
    with quiet:
        minus = np.subtract(x1, x2, out=np.empty(x1.shape))
        minus *= minus
        plus = np.add(x1, x2, out=np.empty(x1.shape))
        plus *= plus
        _psi_eta_of_squares(eta, minus, plus, minus, plus)
    return minus[()]  # a scalar for scalar points


def expansion_coefficient(eta: float, k: int) -> float:
    """Closed-form expansion coefficient tanh(eta)**k / cosh(eta).

    Raises:
        TypeError: eta is a bool or not a real number, or k a bool or not an integer.
        ValueError: eta is not a finite number in [-350, 350], or k < 0.
    """
    _real(eta, "eta", -_MAX_ETA, _MAX_ETA)
    k = _count(k, "k", 0)
    return float(np.tanh(eta) ** k / np.cosh(eta))


@lru_cache(maxsize=1)
def _node_squares() -> Tuple[np.ndarray, np.ndarray]:
    """(x_i - x_j)^2 and (x_i + x_j)^2 over the first half of the gauss_hermite()
    nodes x_i and all nodes x_j: two read-only (64, 128) tables, built once."""
    x, _ = gauss_hermite()
    half = x[:len(x) // 2, None]
    squares = half - x, half + x
    for square in squares:
        square *= square
        square.flags.writeable = False
    return squares


@lru_cache(maxsize=1)
def _psi_eta_grid(eta: float) -> np.ndarray:
    """psi_eta on the gauss_hermite() node grid, read-only.

    Bit for bit psi_eta(eta, x[:, None], x[None, :]): the top half from the
    eta-free _node_squares (the bottom half as scratch), the bottom half the
    top one reversed on both axes, exact since x[::-1] == -x and psi_eta
    reads (x1 -+ x2)^2 only.  One entry: every caller walks k at a fixed eta,
    and each further grid would only stay resident (128 KiB, all a fresh eta allocates).
    eta is a float, checked on a miss.
    """
    eta = _real(eta, "eta", -_MAX_ETA, _MAX_ETA)
    minus, plus = _node_squares()
    grid = np.empty((2 * len(minus), minus.shape[1]))
    top, bottom = grid[:len(minus)], grid[len(minus):]
    _psi_eta_of_squares(eta, minus, plus, top, bottom)
    bottom[...] = top[::-1, ::-1]
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=HERMITE_KMAX + 1)
def _weighted_phi(k: int) -> np.ndarray:
    """w * phi(k, x) on the gauss_hermite() nodes, read-only (128 doubles a row)."""
    x, w = gauss_hermite()
    row = w * phi(k, x)
    row.flags.writeable = False
    return row


def expansion_overlap(eta: float, k: int) -> float:
    """<phi_k(x1) phi_k(x2) | psi_eta> by two-dimensional quadrature.

    sum_ij w_i phi_k(x_i) psi_eta(x_i, x_j) w_j phi_k(x_j) on the
    gauss_hermite() nodes.  The psi_eta grid depends on eta only, so it is
    built once per eta and reused across k, and the weighted row depends on
    k only, so it is built once per k; the result is bit for bit the one a
    freshly built grid and row give.  Contract: equals
    expansion_coefficient(eta, k).

    Raises:
        TypeError: eta is a bool or not a real number, or k a bool or not an integer.
        ValueError: eta is not a finite number in [-350, 350], or k outside [0, HERMITE_KMAX].
    """
    weighted = _weighted_phi(_count(k, "k", 0, HERMITE_KMAX))
    # an exact float goes straight to the grid's cache, which checks it on a miss
    grid = _psi_eta_grid(eta if type(eta) is float else _real(eta, "eta", -_MAX_ETA, _MAX_ETA))
    return float(weighted @ grid @ weighted)


# ---------------------------------------------------------------------------
# reduced density matrix: closed form, series, quadrature

def rho_reduced(eta: float, x, xp):
    """Reduced density matrix of the observed oscillator, closed form.

    rho(x, x') = (pi c)^{-1/2} exp(-(x + x')^2 / (4 c) - c (x - x')^2 / 4)
    with c = cosh 2eta; at eta = 0 this is the pure ground-state projector.
    The two terms stay apart, since c^2 overflows from |eta| ~ 178.

    Raises:
        TypeError: eta is a bool or not a real number.
        ValueError: eta is not a finite number in [-350, 350], or a NaN or infinite x or x'.
    """
    _real(eta, "eta", -_MAX_ETA, _MAX_ETA)
    (x, xp), quiet = _points(x, xp)
    c2 = np.cosh(2 * eta)
    with quiet:
        quad = (x + xp) ** 2 / (4 * c2) + c2 * (x - xp) ** 2 / 4
    return (np.pi * c2) ** -0.5 * np.exp(-quad)


def rho_series(eta: float, x, xp, kmax: int = 60):
    """Reduced density matrix summed over the eigenfunction ladder.

    sum_k w_k phi_k(x) phi_k(x') with w_k = tanh(eta)^{2k} / cosh(eta)^2;
    agrees with rho_reduced up to the series tail.  One recurrence runs over
    x and x' stacked together, and each block of its rows adds one weighted
    contraction sum_k w_k phi_k(x) phi_k(x') to the sum, so memory is
    O(_HERMITE_BLOCK grid), not O(kmax grid).

    Raises:
        TypeError: eta is a bool or not a real number, or kmax a bool or not an integer.
        ValueError: eta is not a finite number in [-350, 350], kmax outside
            [0, HERMITE_KMAX], or a NaN or infinite x or x'.
    """
    kmax = _count(kmax, "kmax", 0, HERMITE_KMAX)
    w = series_weights(eta, kmax)
    points = np.stack(_points(x, xp, bound=_NEAR_X)[0])
    n = points[0].size
    rho = np.zeros(n)
    for lo, rows in _hermite_blocks(kmax, points.reshape(-1)):
        rho += np.einsum("k,k...,k...->...", w[lo:lo + len(rows)], rows[:, :n], rows[:, n:])
    return rho.reshape(points.shape[1:])[()]  # a scalar for scalar points


def rho_partial_trace(eta: float, x, xp):
    """Reduced density matrix by integrating out the unobserved coordinate.

    integral psi_eta(x, t) psi_eta(x', t) dt by the gauss_hermite() rule.
    With h = (x + x')/2 and d = x - x' the product of the two factors is
    exactly (1/pi) exp(-cosh(2 eta) d^2 / 4)
    * exp(-[e^{2 eta} (t - h)^2 + e^{-2 eta} (t + h)^2] / 2), so only the
    second factor depends on the node t, and only through h: one exp per
    (distinct h, node), in place, weighted by one matrix-vector product,
    over blocks of h whose (h, nodes) integrand stays within 64 KiB.  An
    n x n grid has 2n - 1 distinct h in exact arithmetic; rounding of
    (x + x')/2 splits some (91 on a 21 x 21 linspace(-3, 3) grid).  The
    squares stay centred: expanded into t^2 - 2 t h + h^2 they cancel at
    large eta.

    Raises:
        TypeError: eta is a bool or not a real number.
        ValueError: eta is not a finite number in [-350, 350], or a NaN or infinite x or x'.
    """
    _real(eta, "eta", -_MAX_ETA, _MAX_ETA)
    (x, xp), quiet = _points(x, xp)
    t, w = gauss_hermite()
    with quiet:
        h, where = np.unique(0.5 * (x + xp), return_inverse=True)
        h = h.reshape(-1, 1)
        c_minus, c_plus = -0.5 * np.exp(2 * eta), -0.5 * np.exp(-2 * eta)
        sums = np.empty(len(h))
        block = max(1, _QUADRATURE_BYTES // (8 * len(t)))
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
        return (np.exp(-0.25 * np.cosh(2 * eta) * d * d) / np.pi * sums[where].reshape(x.shape))[()]


# ---------------------------------------------------------------------------
# series moments and the thermal state

def _ladder_logs(eta: float) -> Tuple[float, float]:
    """(ln q, ln(1 - q)) of the ladder ratio q = tanh^2 |eta| = e^{-1/T}.

    ln q is twice ``phase_space``'s ln tanh, as temperature_from_eta reads it.
    Below |eta| = 1/4, ln(1 - q) is log1p(-q), which keeps the -w_0 ln w_0 ~ q
    term that ln(1 - q) drops once 1 - q rounds to 1; from there it is
    ln 4e - 2 log1p(e), e = e^{-2|eta|}, as 1 - q = 4e/(1 + e)^2 loses digits
    where q nears 1 (1.0 from |eta| ~ 19).  ln q is -inf at eta = 0, the pure state.
    Refuses eta as the eta oracles do.
    """
    eta = abs(_real(eta, "eta", -_MAX_ETA, _MAX_ETA))
    if eta == 0:
        return -math.inf, 0.0
    log_q = 2.0 * _log_tanh(eta)
    if eta < 0.25:
        return log_q, math.log1p(-math.tanh(eta) ** 2)
    e = math.exp(-2.0 * eta)
    return log_q, math.log(4.0 * e) - 2.0 * math.log1p(e)


def series_weights(eta: float, kmax: int = 200) -> np.ndarray:
    """Eigenvalue ladder w_k = exp(ln(1 - q) + k ln q), q = tanh^2 eta, k = 0..kmax.

    Symmetric in eta (only |eta| enters); nonnegative and non-increasing;
    exactly (1, 0, 0, ...) at eta = 0; empty for kmax < 0.

    Raises:
        TypeError: eta is a bool or not a real number, or kmax a bool or not an integer.
        ValueError: eta is not a finite number in [-350, 350], or kmax > MAX_KMAX,
            before allocating.
    """
    kmax, (log_q, log_head) = _count(kmax, "kmax", hi=MAX_KMAX), _ladder_logs(eta)
    if log_q == -np.inf:
        return np.eye(1, max(kmax + 1, 0))[0]
    return np.exp(np.arange(kmax + 1) * log_q + log_head)


def series_tail_bound(eta: float, kmax: int = 200) -> float:
    """Exact dropped tail sum_{k > kmax} w_k = q^{kmax+1}; the whole ladder for kmax < 0.

    0.0 for a kmax past the largest double, where (kmax + 1) ln q has no
    float and q^{kmax+1} rounds to 0.0 at every |eta| <= 350.

    Raises:
        TypeError: eta is a bool or not a real number, or kmax a bool or not an integer.
        ValueError: eta is not a finite number in [-350, 350].
    """
    kmax, (log_q, _) = _count(kmax, "kmax"), _ladder_logs(eta)
    if kmax < 0:
        return 1.0
    if kmax >= sys.float_info.max:
        return 0.0
    return float(np.exp((kmax + 1) * log_q))


def kmax_for_tail(eta: float) -> int:
    """Smallest truncation whose dropped tail is at most DEFAULT_TOLERANCE.

    For callers that sum a truncated ladder (``series_weights``,
    ``rho_series``, ``moments`` with a kmax); ``moments(eta)`` itself sums the
    whole ladder.  Grows like -ln(1e-12) / (2 ln tanh |eta|); about 50 terms
    at eta = 1, about 380 at eta = 2, about 1.1 M at eta = 6.

    Raises:
        TypeError: eta is a bool or not a real number.
        ValueError: eta is not a finite number in [-350, 350], or the count exceeds
            ``MAX_KMAX`` (eta above about 7.3).
    """
    n = np.ceil(np.log(DEFAULT_TOLERANCE) / _ladder_logs(eta)[0]) - 1
    if not n <= MAX_KMAX:
        raise ValueError(f"eta={eta} needs {n:.3g} series terms to clear the tail "
                         f"{DEFAULT_TOLERANCE:.0e}, more than MAX_KMAX = {MAX_KMAX}")
    return max(int(n), 1)


@dataclass(frozen=True)
class SeriesMoments:
    purity: float
    entropy: float


def moments(eta: float, kmax: Optional[int] = None) -> SeriesMoments:
    """Purity and entropy of the reduced-state eigenvalue ladder.

    purity = sum w_k^2 and entropy = -sum w_k ln w_k over the whole ladder
    w_k = (1 - q) q^k, or over its ``series_weights`` terms k <= kmax.  One
    block v_j = q^j, j < n, is evaluated, n = B = _SERIES_BLOCK or, if
    sooner, kmax + 1 or where q^j underflows: block m is that block times
    c^m, c = q^n, so the geometric sums of c^m and m c^m give the whole
    ladder divided by its own sum, purity = sum v^2 / (sum v)^2 (1 - c)/(1 + c)
    and entropy = -ln(1 - q) - ln q sum j v / sum v - n ln q c/(1 - c),
    1 - c = -expm1(n ln q).  So the rounding of ln(1 - q) (5.7e-14 from
    |eta| = 128) scales no weight and no w^2 underflows; the sums are
    pairwise, as the block is flat near q = 1.  A kmax keeps the whole
    ladder less its tail, q^{kmax+1} times the whole ladder; at
    n = kmax + 1, c is that tail.  Contracts: purity = 1/cosh(2 eta) and
    entropy = cosh^2(eta) ln cosh^2(eta) - sinh^2(eta) ln sinh^2(eta), for a
    kmax up to the tail ``series_tail_bound``, whose excess over
    DEFAULT_TOLERANCE triggers a warning.  Negative eta is folded to |eta|.

    Raises:
        TypeError: eta is a bool or not a real number, or kmax a bool or not an integer.
        ValueError: eta is not a finite number in [-350, 350], or kmax > MAX_KMAX.
    """
    if kmax is not None:
        kmax = _count(kmax, "kmax", hi=MAX_KMAX)  # before the tail warning
        tail = series_tail_bound(eta, kmax)
        if tail > DEFAULT_TOLERANCE:
            warnings.warn(
                f"series tail bound {tail:.3e} exceeds {DEFAULT_TOLERANCE:.0e} "
                f"at eta={eta}, kmax={kmax}; increase kmax",
                stacklevel=2,
            )
    log_q, log_head = _ladder_logs(eta)
    if kmax is not None and kmax < 0:  # a ladder with no terms
        return SeriesMoments(purity=0.0, entropy=0.0)
    if log_q == -np.inf:  # the pure state, w = (1, 0, 0, ...)
        return SeriesMoments(purity=1.0, entropy=0.0)
    # q^j underflows from j = n; a shorter kmax ends the block at its last term
    n = min(_SERIES_BLOCK, math.ceil(_LOG_MAX / -log_q), math.inf if kmax is None else kmax + 1)
    j = np.arange(n, dtype=float)
    v = np.multiply(j, log_q)
    np.exp(v, out=v)
    total, log_c = np.sum(v), n * log_q
    c, one_c = math.exp(log_c), -math.expm1(log_c)
    mean = np.sum(np.multiply(j, v, out=j)) / total
    purity = np.sum(np.square(v, out=v)) / total ** 2 * (one_c / (1.0 + c))
    entropy = -log_head - log_q * mean - log_c * c / one_c
    if kmax is not None:
        log_tail = (kmax + 1) * log_q
        purity *= -math.expm1(2.0 * log_tail)
        entropy = entropy * -math.expm1(log_tail) + log_tail * tail
    return SeriesMoments(purity=float(purity), entropy=float(entropy))


@dataclass(frozen=True)
class ThermalState:
    """Single-oscillator thermal state at temperature T (Boltzmann units).

    Its weights (1 - e^{-1/T}) e^{-k/T} are the reduced-state ladder of
    ``series_weights`` at tanh^2 eta = e^{-1/T}.  temperature = 0 is the
    pure vacuum (the factory ``thermal_state`` rejects T <= 0).  The
    temperature is stored as the checked Python float, -0.0 as 0.0.

    Raises:
        TypeError: the temperature is a bool or not a real number.
        ValueError: the temperature is not a finite number >= 0.
    """

    temperature: float

    def __post_init__(self):
        object.__setattr__(self, "temperature", _real(self.temperature, "temperature", 0) + 0.0)

    def entropy(self) -> float:
        """Closed form S(T) at the mean occupation v = 1/(e^{1/T} - 1).

        Below T = 1/709.78 e^{1/T} overflows, so v and S are 0.0 there,
        without calling expm1; the true S there is below 1e-297.
        """
        x = 1.0 / self.temperature if self.temperature else np.inf
        return occupation_entropy(1.0 / np.expm1(x)) if x <= _LOG_MAX else 0.0


def thermal_state(T: float) -> ThermalState:
    """Thermal state at finite T > 0; the T = 0 limit is ThermalState(0.0).

    Raises:
        TypeError: T is a bool or not a real number.
        ValueError: T is not a finite number > 0.
    """
    return ThermalState(_real(T, "temperature", 0, above=True))


def wigner_radius(T: float) -> float:
    """Gaussian radius 1/sqrt(tanh(1/2T)) of the thermal Wigner function.

    Grows from 1 at T = 0; equals sqrt(cosh 2 eta) at the matching squeeze
    parameter cosh(2 eta) = 1/tanh(1/2T).

    Raises:
        TypeError: T is a bool or not a real number.
        ValueError: T is not a finite number >= 0.
    """
    _real(T, "temperature", 0)
    if T == 0:
        return 1.0
    return float(1.0 / np.sqrt(np.tanh(0.5 / T)))
