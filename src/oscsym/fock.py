"""Truncated two-mode Fock realization and oscillator-eigenfunction oracles.

The ladder-operator generators live on the product basis |n1, n2> with
n1, n2 < nmax, index n1 * nmax + n2.  Quadratic generators couple states at
most two quanta apart, so commutator identities are exact on the low
occupation block (the "safe subspace") and only break where truncation
clips a raising path; the edge behaviour is exposed, not hidden.  The same
locality makes each generator a few diagonals of the flat index, and the
bracket check multiplies those diagonals in O(nmax**2).

The wavefunction side provides orthonormal oscillator eigenfunctions by
stable upward recurrence, Gauss-Hermite quadrature, the coupled ground
state, its eigenfunction expansion, and the reduced density matrix through
three independent routes (closed form, series, partial-trace quadrature).
"""

from __future__ import annotations

import math
import operator
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, Tuple

import numpy as np

from .phase_space import (DEFAULT_TOLERANCE, MAX_KMAX, MAX_NMAX, MIN_NMAX, _check_tolerance,
                          occupation_entropy)
from .algebra import VerificationReport, alge11_table
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
_DENSE_TENFOLD_BYTES = 2 ** 26  # cap on the ten dense members of dirac_tenfold
_SAFE_MARGIN = 3  # the safe subspace is n1 + n2 <= nmax - _SAFE_MARGIN
_FOCK_CHUNK = 64  # grid points per band of rows in verify_fock_commutators
_DIAGONAL_BAND = 4096  # grid points per band of rows in _diagonal_values
_SERIES_BLOCK = 2 ** 14  # ladder terms per block in moments
_QUADRATURE_BYTES = 2 ** 16  # largest (points, nodes) block in rho_partial_trace
_HERMITE_BLOCK = 16  # eigenfunction rows per block of the recurrence
_MAX_NODES = 370  # largest Gauss-Hermite rule whose weights stay normal doubles
_MAX_ETA = 350  # largest |eta| whose e^{2|eta|} times a squared node gap stays finite
_NEAR_X = 64.0  # e^700 (2 x)^2 stays finite up to it; every ladder row is 0.0 from ~38.6
_EXPM1_MAX = np.log(np.finfo(float).max)  # largest x whose np.expm1(x) is finite


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
def _diagonal_layout():
    """The 26 nonzero diagonals of the ten generators, read off ``_QUADRATICS``.

    Returns (gen, step, pos, phase, coeff, terms), diagonals grouped by step:
    diagonal u holds <n|G|n + step[u]> of generator gen[u], is its pos[u]-th in formula order,
    and equals phase[u] (1 or 1j) times coeff[u] times its ladder products.
    ``terms`` = (sign, x_rows, y_rows, y_of, again) holds each diagonal's first
    term in diagonal order, then the second term of diagonal again[i]; term i is
    sign[i] times its mode-1 tables x_rows[i] times its mode-2 tables y_rows[y_of[i]].
    """
    places: Dict[Tuple[int, int, int], int] = {}  # (gen, dn1, dn2) -> place in gen
    terms = []
    for g, (_, formula) in enumerate(_QUADRATICS.values()):
        for t in formula.split():
            (m1, s1), (m2, s2) = ((int(op[1]) - 1, 1 if op[0] == "a" else -1)
                                  for op in (t[1:3], t[3:5]))
            step = tuple(s1 * (m1 == m) + s2 * (m2 == m) for m in (0, 1))
            # a factor is sqrt of the larger occupation of its step, read off
            # the row: n + 1 lowering, n raising, after the first factor's step;
            # a one-mode product also needs the other mode inside the truncation
            factors = [(m1, (s1 > 0) + 1), (m2, (s1 if m2 == m1 else 0) + (s2 > 0) + 1)]
            factors += [(1 - m1, 4)] if m1 == m2 else []
            x, y = ([r for m, r in factors if m == mode] + [5, 5] for mode in (0, 1))
            places.setdefault((g, *step), sum(k[0] == g for k in places))
            terms.append((1.0 if t[0] == "+" else -1.0, x[:2], tuple(y[:2]), (g, *step)))
    keys = sorted(places, key=lambda k: k[1:])  # grouped by step
    u_of = [keys.index(k) for *_, k in terms]
    order = sorted(range(len(terms)), key=lambda i: (u_of[i] in u_of[:i], u_of[i]))
    sign, x_rows, y_pairs = zip(*[terms[i][:3] for i in order])
    y_rows = list(dict.fromkeys(y_pairs))  # each distinct mode-2 product once
    gen = np.array([k[0] for k in keys])
    coeffs = np.array([c for c, _ in _QUADRATICS.values()])[gen]
    return (gen, np.array([k[1:] for k in keys]), np.array([places[k] for k in keys]),
            np.where(coeffs.imag != 0, 1j, 1), coeffs.real + coeffs.imag,
            (np.array(sign), np.array(x_rows), np.array(y_rows),
             np.array([y_rows.index(y) for y in y_pairs]), np.array(u_of)[order[len(keys):]]))


def _diagonal_values(n1: np.ndarray, n2: np.ndarray, nmax: int) -> np.ndarray:
    """Real values of the 26 diagonals at broadcastable occupation grids.

    Zero wherever the row, the intermediate or the column state leaves the
    truncation [0, nmax)**2.  The tables of one mode's occupation k are
    sqrt(k + c) for c in -1..2 (zero off [0, nmax)), [0 <= k < nmax] and 1;
    the 28 terms, mode-1 tables at n1 times mode-2 tables at n2, are formed
    together in bands of ``_DIAGONAL_BAND`` grid points, then summed and scaled
    as the formulas read, so values equal the dense ladder products bit for bit.
    """
    *_, coeff, (sign, x_rows, y_rows, y_of, again) = _diagonal_layout()
    k = np.arange(-3, nmax + 2)  # every table is 0 for k < -2 and k > nmax: indices clip
    root = np.r_[0.0, np.sqrt(np.arange(nmax)), 0.0]  # root[k + 1] = sqrt(k)
    tables = np.concatenate((root[np.clip(k + np.arange(-1, 3)[:, None], -1, nmax) + 1],
                             [(0 <= k) & (k < nmax), np.ones(len(k))]))
    x = sign[:, None] * tables[x_rows[:, 0]] * tables[x_rows[:, 1]]
    y = tables[y_rows[:, 0]] * tables[y_rows[:, 1]]
    shape = np.broadcast_shapes(n1.shape, n2.shape)
    x = np.broadcast_to(np.take(x, n1 + 3, axis=1, mode="clip"), x.shape[:1] + shape)
    n2, nd = np.broadcast_to(n2 + 3, shape), len(coeff)
    values, scale = np.empty((nd,) + shape), coeff.reshape((-1,) + (1,) * len(shape))
    band = max(1, _DIAGONAL_BAND // max(1, int(np.prod(shape[1:]))))
    for lo in range(0, shape[0], band):
        terms = np.take(np.take(y, n2[lo:lo + band], axis=1, mode="clip"), y_of, axis=0)
        terms *= x[:, lo:lo + band]
        v = np.add(terms[:nd], 0.0, out=values[:, lo:lo + band])  # a sum starts from +0.0
        v[again] += terms[nd:]
        v *= scale
    return values


def fock_index(nmax: int, n1: int, n2: int) -> int:
    """Flat index of |n1, n2> in the product basis.

    Raises:
        TypeError: nmax, n1 or n2 is not an integer.
        ValueError: (n1, n2) lies outside [0, nmax)**2.
    """
    nmax, n1, n2 = map(operator.index, (nmax, n1, n2))
    if not (0 <= n1 < nmax and 0 <= n2 < nmax):
        raise ValueError(f"occupation ({n1}, {n2}) outside truncation {nmax}")
    return n1 * nmax + n2


def basis_state(nmax: int, n1: int, n2: int) -> np.ndarray:
    """Unit vector for |n1, n2>; refuses arguments as ``fock_index`` does."""
    i = fock_index(nmax, n1, n2)
    v = np.zeros(nmax * nmax)
    v[i] = 1.0
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
    members.  One scatter into its interleaved (real, imag) doubles writes
    the nonzeros of the 26 diagonals, with no dense product and no loop over them.

    Raises:
        TypeError: nmax is not an integer.
        ValueError: nmax < 4, or the ten dense members would take more than
            64 MiB (nmax > 25).
    """
    if operator.index(nmax) < 4:
        raise ValueError(f"nmax must be >= 4 for the quadratic generators, got {nmax}")
    size = 10 * nmax ** 4 * np.dtype(complex).itemsize
    if size > _DENSE_TENFOLD_BYTES:
        raise ValueError(
            f"dirac_tenfold({nmax}) would hold {size / 2 ** 20:.0f} MiB of dense "
            f"members (limit {_DENSE_TENFOLD_BYTES / 2 ** 20:.0f} MiB); "
            f"verify_fock_commutators checks up to nmax {MAX_NMAX} without them")
    gen, step, _, phase, _, _ = _diagonal_layout()
    n, dim = np.arange(nmax), nmax * nmax
    values = _diagonal_values(n[:, None], n[None, :], nmax).reshape(len(gen), dim)
    # diagonal u puts row i's value at column i + s1 nmax + s2 of member gen[u]:
    # double 2 * (complex index in the block), + 1 for an imaginary diagonal
    at = ((2 * (gen * dim * dim + step @ (nmax, 1)) + (phase == 1j))[:, None]
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
        TypeError: nmax is not an integer.
        ValueError: nmax < 4, below the smallest ``dirac_tenfold`` it indexes.
    """
    if operator.index(nmax) < 4:
        raise ValueError(f"nmax must be >= 4 for the quadratic generators, got {nmax}")
    n1, n2 = np.divmod(np.arange(nmax * nmax), nmax)
    return (n1 + n2) <= (nmax - _SAFE_MARGIN)


@lru_cache(maxsize=None)
def _bracket_plan():
    """Index plan contracting the ten-generator tensor f with the diagonals.

    A slot is one diagonal (a, b, dn1, dn2) of a bracket [G_a, G_b]; slots
    with the most products come first, so fold round r (the flat (u, v)
    index of each slot's r-th product, in formula order) is a prefix.
    Returns the (lo, hi, ds, dn1) run of diagonals of each step,
    the fold rounds, each slot's (b, a) partner, rounds of (slot, diagonal,
    coefficient) of -i f G relative to the bracket's phase, the total
    occupation each slot and each diagonal adds, and each slot's pair.
    """
    by_gen, step, pos, phase, _, _ = _diagonal_layout()
    table = alge11_table()  # labelled in _QUADRATICS order: both are TENFOLD_LABELS
    gen, pos, nd = by_gen.tolist(), pos.tolist(), len(by_gen)
    imag = dict(zip(gen, (phase == 1j).tolist()))
    products: Dict[Tuple, list] = {}
    for u, (gu, (su1, su2)) in enumerate(zip(gen, step.tolist())):
        for v, (gv, (sv1, sv2)) in enumerate(zip(gen, step.tolist())):
            if gu != gv:
                products.setdefault((gu, gv, su1 + sv1, su2 + sv2), []).append(
                    (pos[u], u * nd + v))
    terms: Dict[Tuple, list] = {}
    for a, b, c in zip(*np.nonzero(table.f)):
        kappa = table.f[a, b, c] * (1, 1j, -1, -1j)[(1 + imag[c] - imag[a] - imag[b]) % 4]
        if kappa.imag:
            raise ValueError("bracket table phases do not match the Fock generators")
        for w in np.flatnonzero(by_gen == c):
            terms.setdefault((a, b, *step[w]), []).append((w, kappa.real))
    slots = sorted(products.keys() | terms.keys(), key=lambda k: (-len(products.get(k, ())), k))
    index = {k: i for i, k in enumerate(slots)}
    chains = [[q for _, q in sorted(products.get(k, []))] for k in slots]
    expect = [terms.get(k, []) for k in slots]
    pairs = {p: i for i, p in enumerate(table.pairs())}
    starts = [x for x in range(nd) if x == 0 or (step[x] != step[x - 1]).any()]
    return (tuple((lo, hi, int(step[lo].sum()), int(step[lo, 0]))
                  for lo, hi in zip(starts, starts[1:] + [nd])),
            tuple(np.array([ch[r] for ch in chains if len(ch) > r])
                  for r in range(len(chains[0]))),
            np.array([index[(b, a, *st)] for a, b, *st in slots]),
            tuple(tuple(map(np.array, zip(*[(i, *e[r]) for i, e in enumerate(expect)
                                            if len(e) > r])))
                  for r in range(max(map(len, expect)))),
            np.array([max(0, s1 + s2) for _, _, s1, s2 in slots]),
            np.maximum(0, step.sum(axis=1)),
            np.array([pairs[(table.labels[a], table.labels[b])] for a, b, _, _ in slots]))


def verify_fock_commutators(nmax: int,
                            tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Evaluate every ten-generator bracket on the safe subspace.

    Contracts the ten-generator tensor f with the 26 generator diagonals on
    rows and columns with n1 + n2 <= nmax - 3 (unrestricted residuals are
    nonzero at the truncation edge).  The residual of a pair is
    max|[A, B] - i sum_c f_abc G_c| / max(1, max_l max|G_l|)**2, both maxima
    over that block; the scale grows like nmax**2.  Diagonals are stored by
    total occupation s = n1 + n2 and n1, so each step is a slice, and a band
    of s rows takes one multiply per step.  Cost and memory are O(nmax**2).

    Raises:
        TypeError: nmax is not an integer.
        ValueError: nmax outside [MIN_NMAX, MAX_NMAX], or a tolerance not finite and > 0.
    """
    _check_tolerance(tolerance)
    if not MIN_NMAX <= operator.index(nmax) <= MAX_NMAX:
        raise ValueError(
            f"nmax must be in [{MIN_NMAX}, {MAX_NMAX}] for the safe subspace check, "
            f"got {nmax}")
    groups, fold, partner, terms, rise, rise_diag, pair = _bracket_plan()
    top = nmax - _SAFE_MARGIN  # largest total occupation of the safe subspace
    grid = np.arange(-2, nmax)  # grid index = occupation + 2
    d = _diagonal_values(grid[None, :], grid[:, None] - grid[None, :], nmax)
    nd, ns = len(d), len(partner)
    peak = np.maximum(d[:, 2:top + 3, 2:].max(axis=2), -d[:, 2:top + 3, 2:].min(axis=2))
    scale = max(1.0, float((peak * (np.arange(top + 1) <= top - rise_diag[:, None])).max())) ** 2
    worst, lo = np.zeros(ns), 0
    while lo <= top:
        hi = min(top + 1, lo + max(1, int((np.sqrt(lo * lo + 4 * _FOCK_CHUNK) - lo) / 2)))
        rows = d[:, lo + 2:hi + 2, 2:hi + 2]  # s in [lo, hi), n1 in [0, hi)
        prod = np.empty((nd, nd) + rows.shape[1:])
        for a, b, ds, dn1 in groups:
            np.multiply(rows[a:b, None], d[None, :, lo + 2 + ds:hi + 2 + ds,
                                            2 + dn1:hi + 2 + dn1], out=prod[a:b])
        prod = prod.reshape((nd * nd,) + rows.shape[1:])
        acc = np.zeros((ns,) + rows.shape[1:])
        np.take(prod, fold[0], axis=0, out=acc[:len(fold[0])], mode="clip")  # unbuffered
        for flat in fold[1:]:
            acc[:len(flat)] += prod[flat]
        r = np.take(acc, partner, axis=0, out=prod[:ns], mode="clip")  # prod is spent
        np.subtract(acc, r, out=r)
        for slot, diag, coeff in terms:
            r[slot] -= coeff[:, None, None] * rows[diag]
        r = np.abs(r, out=r)
        edge = max(0, top - 3 - lo)  # rows below the edge reach no column past top
        r[:, edge:] *= (np.arange(lo + edge, hi) <= top - rise[:, None])[:, :, None]
        worst = np.maximum(worst, r.reshape(ns, -1).max(axis=1))
        lo = hi
    pairs = alge11_table().pairs()
    residuals = np.zeros(len(pairs))
    np.maximum.at(residuals, pair, worst)
    return VerificationReport(f"fock(nmax={nmax})", tolerance,
                              dict(zip(pairs, (residuals / scale).tolist())))


# ---------------------------------------------------------------------------
# oscillator eigenfunctions and quadrature

def _hermite_blocks(kmax: int, x: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """Orthonormal oscillator eigenfunctions phi_0..phi_kmax at the flat points x, by blocks.

    Unit mass and frequency: phi_0(x) = pi**-1/4 exp(-x**2/2).  Uses the
    normalized three-term recurrence
    phi_{k+1} = sqrt(2/(k+1)) x phi_k - sqrt(k/(k+1)) phi_{k-1},
    which is stable upward, as (c x) phi_k - c' phi_{k-1} with c and c' Python
    floats computed once per call; k is capped at HERMITE_KMAX.  Yields
    (lo, rows) with rows[i] = phi_{lo + i}(x), up to _HERMITE_BLOCK rows a block.
    rows is a view of one buffer that the next block overwrites, after the
    two rows the recurrence carries over, so memory is O(_HERMITE_BLOCK x.size).
    """
    kmax = operator.index(kmax)  # a float k would truncate or fail inside range
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if kmax > HERMITE_KMAX:
        raise ValueError(f"kmax {kmax} exceeds the recurrence cap {HERMITE_KMAX}")
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

    Refuses a k outside 0..HERMITE_KMAX and a NaN or infinite x.
    """
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
        TypeError: n is not an integer.
        ValueError: n outside 1.._MAX_NODES.
    """
    return _gauss_hermite_rule(operator.index(n))


@lru_cache(maxsize=8)
def _gauss_hermite_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    if not 1 <= n <= _MAX_NODES:
        raise ValueError(f"n must be in [1, {_MAX_NODES}]: from n = {_MAX_NODES + 1} "
                         f"the Gauss-Hermite weights underflow, got {n}")
    x, w = np.polynomial.hermite.hermgauss(n)
    total = np.exp(np.log(w) + x * x)
    x.flags.writeable = False
    total.flags.writeable = False
    return x, total


def _check_eta(eta: float) -> None:
    """Refuse a NaN, infinite or overflowing eta (|eta| > _MAX_ETA).

    Non-finite eta gives NaN or a bare limit; past _MAX_ETA the grid
    exponents overflow on the gauss_hermite() nodes.
    """
    if not abs(eta) <= _MAX_ETA:
        raise ValueError(f"eta must be finite with |eta| <= {_MAX_ETA}, got {eta}")


def _points(*coordinates, bound: float = np.inf):
    """The coordinates as float arrays clipped to [-bound, bound] and broadcast, and
    the context to evaluate them in: past _NEAR_X a square can overflow, and the
    context lets it run to inf, which exp reads as the underflowed 0.0 it is.

    Refuses NaN or infinite coordinates, each before broadcasting: unchecked, an
    infinite x gave 0.0 from the closed forms and phi_0 but NaN from the recurrence.
    """
    points, far = [], False
    for x in coordinates:
        x = np.asarray(x, dtype=float)
        top = np.abs(x).max(initial=0.0)
        if not top < np.inf:  # NaN compares false
            raise ValueError("coordinates must be finite, got NaN or inf")
        far |= top > _NEAR_X
        points.append(x if top <= bound else np.clip(x, -bound, bound))
    shape = np.broadcast(*points).shape  # np.broadcast_arrays costs more on the common equal shapes
    return ([x if x.shape == shape else np.broadcast_to(x, shape) for x in points],
            np.errstate(over="ignore") if far else nullcontext())


def psi_eta(eta: float, x1, x2):
    """Coupled two-oscillator ground state.

    (1/sqrt(pi)) exp(-[e^{2 eta} (x1 - x2)^2 + e^{-2 eta} (x1 + x2)^2] / 4);
    eta = 0 is the uncoupled ground state, and on the diagonal x1 = x2 the
    difference term drops out.  The exponent is formed in place in two
    buffers, one per square, with the rounding of the one-expression formula.
    Refuses a NaN or infinite x1 or x2.
    """
    _check_eta(eta)
    (x1, x2), quiet = _points(x1, x2)
    with quiet:
        quad = np.subtract(x1, x2, out=np.empty(x1.shape))
        quad *= quad
        quad *= np.exp(2 * eta)
        plus = np.add(x1, x2, out=np.empty(x1.shape))
        plus *= plus
        plus *= np.exp(-2 * eta)
        quad += plus
    quad *= -0.25
    np.exp(quad, out=quad)
    quad *= np.pi ** -0.5
    return quad[()]  # a scalar for scalar points


def expansion_coefficient(eta: float, k: int) -> float:
    """Closed-form expansion coefficient tanh(eta)**k / cosh(eta)."""
    _check_eta(eta)
    if operator.index(k) < 0:  # a float k would give a non-ladder power
        raise ValueError("k must be >= 0")
    return float(np.tanh(eta) ** k / np.cosh(eta))


@lru_cache(maxsize=1)
def _psi_eta_grid(eta: float) -> np.ndarray:
    """psi_eta on the gauss_hermite() node grid, read-only.

    One entry: every caller walks k at a fixed eta, and each further grid
    would only stay resident (128 x 128 doubles, 128 KiB).
    """
    x, _ = gauss_hermite()
    grid = psi_eta(eta, x[:, None], x[None, :])
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
    freshly built grid and row give.
    Contract: equals expansion_coefficient(eta, k).
    """
    k = operator.index(k)
    if k < 0:
        raise ValueError("k must be >= 0")
    weighted = _weighted_phi(k)
    return float(weighted @ _psi_eta_grid(float(eta)) @ weighted)


# ---------------------------------------------------------------------------
# reduced density matrix: closed form, series, quadrature

def rho_reduced(eta: float, x, xp):
    """Reduced density matrix of the observed oscillator, closed form.

    rho(x, x') = (pi c)^{-1/2} exp(-(x + x')^2 / (4 c) - c (x - x')^2 / 4)
    with c = cosh 2eta; at eta = 0 this is the pure ground-state projector.
    The two terms stay apart, since c^2 overflows from |eta| ~ 178.
    Refuses a NaN or infinite x or x'.
    """
    _check_eta(eta)
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
    O(_HERMITE_BLOCK grid), not O(kmax grid).  Refuses a NaN or infinite x or x'.
    """
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
    large eta.  Refuses a NaN or infinite x or x'.
    """
    _check_eta(eta)
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

    Up to |eta| = 7 from q itself: log1p keeps the -w_0 ln w_0 ~ q term that
    ln(1 - q) drops once 1 - q rounds to 1.  Past it q rounds toward 1 (to
    1.0 from |eta| ~ 19), so both logs are read from e = e^{-2|eta|}.
    ln q is -inf at eta = 0, the pure state.
    """
    _check_eta(eta)
    if abs(eta) > 7.0:  # q = ((1 - e)/(1 + e))^2, 1 - q = 4e/(1 + e)^2
        e = np.exp(-2.0 * abs(eta))
        return 2.0 * (np.log1p(-e) - np.log1p(e)), np.log(4.0 * e) - 2.0 * np.log1p(e)
    q = np.tanh(abs(eta)) ** 2  # 1 - q keeps all but a relative 2e-11 here
    return (np.log(q) if q else -np.inf), np.log1p(-q)


def _check_kmax(kmax: int) -> int:
    """kmax as an int, refused past MAX_KMAX before any ladder is built."""
    kmax = operator.index(kmax)
    if kmax > MAX_KMAX:
        raise ValueError(f"kmax={kmax} is more than MAX_KMAX = {MAX_KMAX} series terms")
    return kmax


def series_weights(eta: float, kmax: int = 200) -> np.ndarray:
    """Eigenvalue ladder w_k = exp(ln(1 - q) + k ln q), q = tanh^2 eta, k = 0..kmax.

    The terms ``moments`` sums.  Symmetric in eta (only |eta| enters);
    nonnegative and non-increasing; exactly (1, 0, 0, ...) at eta = 0; empty
    for kmax < 0.  Refuses kmax > MAX_KMAX before allocating.
    """
    kmax, (log_q, log_head) = _check_kmax(kmax), _ladder_logs(eta)
    if log_q == -np.inf:
        return np.eye(1, max(kmax + 1, 0))[0]
    return np.exp(np.arange(kmax + 1) * log_q + log_head)


def series_tail_bound(eta: float, kmax: int = 200) -> float:
    """Exact dropped tail sum_{k > kmax} w_k = q^{kmax+1}; the whole ladder for kmax < 0."""
    kmax, (log_q, _) = operator.index(kmax), _ladder_logs(eta)
    return float(np.exp((kmax + 1) * log_q)) if kmax >= 0 else 1.0


def kmax_for_tail(eta: float) -> int:
    """Smallest truncation whose dropped tail is at most DEFAULT_TOLERANCE.

    Grows like -ln(1e-12) / (2 ln tanh |eta|); about 50 terms at eta = 1,
    about 380 at eta = 2, about 1.1 M at eta = 6.  ``moments`` evaluates
    one block of the ladder and rescales it for the rest, so its cost grows
    with kmax / 2**14, not kmax; the cap bounds ``series_weights``' array.

    Raises:
        ValueError: eta is not finite or |eta| > 350, or the count exceeds
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


def moments(eta: float, kmax: int = 200) -> SeriesMoments:
    """Purity and entropy of the reduced-state eigenvalue ladder.

    purity = sum w_k^2 and entropy = -sum w_k ln w_k over the
    ``series_weights`` terms.  Only the first B = _SERIES_BLOCK terms are
    evaluated: block m is that block times c = q^{mB}, so it adds
    c^2 sum w^2 to the purity and c (-sum w ln w - mB ln q sum w) to the
    entropy, and a partial last block sums a prefix of block 0.  A call
    costs one block plus kmax / B scalars; below B terms it is the einsum
    of the weights themselves.  Contracts: purity = 1/cosh(2 eta)
    and entropy = cosh^2(eta) ln cosh^2(eta) - sinh^2(eta) ln sinh^2(eta),
    both up to the geometric tail ``series_tail_bound``, whose excess over
    DEFAULT_TOLERANCE triggers a warning.  Negative eta is folded to |eta|.
    Refuses kmax > MAX_KMAX.
    """
    kmax = _check_kmax(kmax)  # before the tail warning
    tail = series_tail_bound(eta, kmax)
    if tail > DEFAULT_TOLERANCE:
        warnings.warn(
            f"series tail bound {tail:.3e} exceeds {DEFAULT_TOLERANCE:.0e} "
            f"at eta={eta}, kmax={kmax}; increase kmax",
            stacklevel=2,
        )
    log_q, log_head = _ladder_logs(eta)
    if kmax < 0:  # a ladder with no terms
        return SeriesMoments(purity=0.0, entropy=0.0)
    if log_q == -np.inf:  # the pure state, w = (1, 0, 0, ...)
        return SeriesMoments(purity=1.0, entropy=0.0)
    size = min(kmax + 1, _SERIES_BLOCK)
    log_w = np.arange(size) * log_q + log_head
    w = np.exp(log_w)

    def sums(n):  # sum w^2 and -sum w ln w over the first n terms
        # einsum's own loop, not a BLAS dot, whose split of the sum (and so
        # its rounding) follows the thread count
        return np.einsum("i,i->", w[:n], w[:n]), -np.einsum("i,i->", w[:n], log_w[:n])

    purity, entropy = sums(size)
    if kmax >= size:
        shift = np.arange(size, kmax + 1, size) * log_q  # mB ln q of each later block
        scale = np.exp(shift)
        full = scale[:-1]  # the last block may be partial
        n = kmax + 1 - size * shift.size
        (p, s), total, t = sums(n), np.einsum("i->", w), np.einsum("i->", w[:n])
        purity, entropy = (
            purity + purity * np.einsum("i,i->", full, full) + scale[-1] ** 2 * p,
            entropy + np.einsum("i,i->", full, entropy - shift[:-1] * total)
            + scale[-1] * (s - shift[-1] * t))
    return SeriesMoments(purity=float(purity), entropy=float(entropy))


@dataclass(frozen=True)
class ThermalState:
    """Single-oscillator thermal state at temperature T (Boltzmann units).

    Its weights (1 - e^{-1/T}) e^{-k/T} are the reduced-state ladder of
    ``series_weights`` at tanh^2 eta = e^{-1/T}.  temperature = 0 is the
    pure vacuum (the factory ``thermal_state`` rejects T <= 0).
    """

    temperature: float

    def __post_init__(self):
        if not 0 <= self.temperature < np.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")

    def entropy(self) -> float:
        """Closed form S(T) at the mean occupation v = 1/(e^{1/T} - 1).

        Below T = 1/709.78 e^{1/T} overflows, so v and S are 0.0 there,
        without calling expm1; the true S there is below 1e-297.
        """
        x = 1.0 / self.temperature if self.temperature else np.inf
        return occupation_entropy(1.0 / np.expm1(x)) if x <= _EXPM1_MAX else 0.0


def thermal_state(T: float) -> ThermalState:
    """Thermal state at finite T > 0; the T = 0 limit is ThermalState(0.0)."""
    if not 0 < T < np.inf:
        raise ValueError(f"temperature must be finite and > 0, got {T}")
    return ThermalState(temperature=float(T))


def wigner_radius(T: float) -> float:
    """Gaussian radius 1/sqrt(tanh(1/2T)) of the thermal Wigner function.

    Grows from 1 at T = 0; equals sqrt(cosh 2 eta) at the matching squeeze
    parameter cosh(2 eta) = 1/tanh(1/2T).  Refuses negative or non-finite T.
    """
    if not 0 <= T < np.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {T}")
    if T == 0:
        return 1.0
    return float(1.0 / np.sqrt(np.tanh(0.5 / T)))
