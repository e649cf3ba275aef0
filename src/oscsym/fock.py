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

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .algebra import (DEFAULT_TOLERANCE, VerificationReport, _verify_brackets,
                      alge11_table)
from .families import GeneratorSet
from .phase_space import occupation_entropy

__all__ = [
    "HERMITE_KMAX",
    "SERIES_TAIL_LIMIT",
    "MIN_NMAX",
    "MAX_NMAX",
    "MAX_KMAX",
    "destroy",
    "ladder_operators",
    "fock_index",
    "basis_state",
    "dirac_tenfold",
    "safe_subspace_mask",
    "verify_fock_commutators",
    "hermite_functions",
    "phi",
    "gauss_hermite",
    "psi_eta",
    "expansion_overlap",
    "expansion_coefficient",
    "rho_reduced",
    "rho_series",
    "rho_partial_trace",
    "series_weights",
    "series_tail_bound",
    "kmax_for_tail",
    "SeriesMoments",
    "moments",
    "ThermalState",
    "thermal_state",
    "wigner_radius",
]

HERMITE_KMAX = 200
SERIES_TAIL_LIMIT = 1e-12
MIN_NMAX = 6  # smallest truncation with a nonempty safe subspace
MAX_NMAX = 256  # largest truncation the bracket check accepts (~1 s)
MAX_KMAX = 2 ** 24  # largest series truncation kmax_for_tail returns (eta ~ 7.3)
_DENSE_TENFOLD_BYTES = 2 ** 30  # cap on the ten dense members of dirac_tenfold


# ---------------------------------------------------------------------------
# truncated ladder operators and the ten quadratic generators

def _shift(v: np.ndarray, o: int) -> np.ndarray:
    """w[i] = v[i + o], zero where i + o falls outside v."""
    if o == 0:
        return v
    w = np.zeros(v.shape, v.dtype)
    if o > 0:
        w[:-o] = v[o:]
    else:
        w[-o:] = v[:o]
    return w


class _Banded:
    """Square operator stored by its nonzero diagonals, d[o][i] = M[i, i + o].

    Each diagonal is a full-length array, zero where i + o is out of range.
    A product is one shifted elementwise product per pair of diagonals,
    (AB)[i, i+o1+o2] = A[i, i+o1] B[i+o1, i+o1+o2], so a quadratic ladder
    generator, a handful of diagonals, multiplies in O(dim) with no dim x dim
    matrix.  Every entry of a ladder product has one path, so densified
    products equal the dense matmul exactly.
    """

    __slots__ = ("dim", "diags")
    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    def __init__(self, dim: int, diags: Dict[int, np.ndarray]):
        self.dim = dim
        self.diags = diags

    def __matmul__(self, other: "_Banded") -> "_Banded":
        out: Dict[int, np.ndarray] = {}
        for o1, d1 in self.diags.items():
            for o2, d2 in other.diags.items():
                p = d1 * _shift(d2, o1)
                o = o1 + o2
                out[o] = out[o] + p if o in out else p
        return _Banded(self.dim, out)

    def __add__(self, other: "_Banded") -> "_Banded":
        out = dict(self.diags)
        for o, d in other.diags.items():
            out[o] = out[o] + d if o in out else d
        return _Banded(self.dim, out)

    def __sub__(self, other: "_Banded") -> "_Banded":
        out = dict(self.diags)
        for o, d in other.diags.items():
            out[o] = out[o] - d if o in out else -d
        return _Banded(self.dim, out)

    def __mul__(self, c: complex) -> "_Banded":
        return _Banded(self.dim, {o: c * d for o, d in self.diags.items()})

    __rmul__ = __mul__

    @property
    def T(self) -> "_Banded":
        return _Banded(self.dim, {-o: _shift(d, -o) for o, d in self.diags.items()})

    def dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), np.result_type(*self.diags.values()))
        for o, d in self.diags.items():
            i = np.arange(max(0, -o), min(self.dim, self.dim - o))
            out[i, i + o] = d[i]
        return out

    def max_abs(self, mask: np.ndarray) -> float:
        """Max-abs entry over the rows and columns in the boolean ``mask``."""
        best = 0.0
        for o, d in self.diags.items():
            a = np.abs(d[mask & _shift(mask, o)])
            if a.size:
                best = max(best, float(a.max()))
        return best


def _ladder(nmax: int, stride: int, dim: int) -> _Banded:
    """sqrt(n) lowering of the mode whose occupation is (i // stride) % nmax."""
    if nmax < 2:
        raise ValueError(f"nmax must be >= 2, got {nmax}")
    n = np.arange(dim) // stride % nmax
    return _Banded(dim, {stride: np.where(n < nmax - 1, np.sqrt(n + 1.0), 0.0)})


def destroy(nmax: int) -> np.ndarray:
    """Single-mode lowering operator a|n> = sqrt(n)|n-1> on n < nmax."""
    return _ladder(nmax, 1, nmax).dense()


def ladder_operators(nmax: int) -> Tuple[np.ndarray, np.ndarray]:
    """Two-mode lowering operators (a1, a2) on the nmax**2 product basis.

    Each acts as the standard truncated ladder on its own mode and as the
    identity on the other; the raising operators are the transposes.
    """
    return (_ladder(nmax, nmax, nmax * nmax).dense(),
            _ladder(nmax, 1, nmax * nmax).dense())


def fock_index(nmax: int, n1: int, n2: int) -> int:
    """Flat index of |n1, n2> in the product basis."""
    if not (0 <= n1 < nmax and 0 <= n2 < nmax):
        raise ValueError(f"occupation ({n1}, {n2}) outside truncation {nmax}")
    return n1 * nmax + n2


def basis_state(nmax: int, n1: int, n2: int) -> np.ndarray:
    """Unit vector for |n1, n2>."""
    v = np.zeros(nmax * nmax)
    v[fock_index(nmax, n1, n2)] = 1.0
    return v


def _tenfold(nmax: int) -> Dict[str, _Banded]:
    """The ten quadratic generators as banded operators (see ``dirac_tenfold``)."""
    if nmax < 4:
        raise ValueError(f"nmax must be >= 4 for the quadratic generators, got {nmax}")
    a1 = _ladder(nmax, nmax, nmax * nmax)
    a2 = _ladder(nmax, 1, nmax * nmax)
    ad1, ad2 = a1.T, a2.T
    return {
        "L1": 0.5 * (ad1 @ a2 + ad2 @ a1),
        "L2": -0.5j * (ad1 @ a2 - ad2 @ a1),
        "L3": 0.5 * (ad1 @ a1 - ad2 @ a2),
        "S3": 0.5 * (ad1 @ a1 + a2 @ ad2),
        "K1": -0.25 * (ad1 @ ad1 + a1 @ a1 - ad2 @ ad2 - a2 @ a2),
        "K2": 0.25j * (ad1 @ ad1 - a1 @ a1 + ad2 @ ad2 - a2 @ a2),
        "K3": 0.5 * (ad1 @ ad2 + a1 @ a2),
        "Q1": 0.25j * (ad1 @ ad1 - a1 @ a1 - ad2 @ ad2 + a2 @ a2),
        "Q2": 0.25 * (ad1 @ ad1 + a1 @ a1 + ad2 @ ad2 + a2 @ a2),
        "Q3": -0.5j * (ad1 @ ad2 - a1 @ a2),
    }


def dirac_tenfold(nmax: int) -> GeneratorSet:
    """The ten quadratic ladder-operator generators on the truncated space.

    L1..L3 and S3 conserve total occupation; K1..K3 and Q1..Q3 move it by
    two quanta.  S3 is normal-ordered as (a1'a1 + a2 a2')/2, so
    S3|0,0> = |0,0>/2.  The overall signs of Q1..Q3 are the ones for which
    the set closes under the ten-generator bracket table with this S3
    ([K_i, Q_i] = -i S3); writing the same quadratic forms with opposite
    sign satisfies the mirrored table instead.

    The members are dense complex (nmax**2, nmax**2) matrices, densified
    from the banded forms without any dense product.

    Raises:
        ValueError: nmax < 4, or the ten dense members would take more than
            1 GiB (nmax > 50).
    """
    size = 10 * nmax ** 4 * np.dtype(complex).itemsize
    if size > _DENSE_TENFOLD_BYTES:
        raise ValueError(
            f"dirac_tenfold({nmax}) would hold {size / 2 ** 20:.0f} MiB of dense "
            f"members (limit {_DENSE_TENFOLD_BYTES / 2 ** 20:.0f} MiB); "
            f"verify_fock_commutators checks up to nmax {MAX_NMAX} without them")
    members = {label: op.dense().astype(complex, copy=False)
               for label, op in _tenfold(nmax).items()}
    for m in members.values():
        m.flags.writeable = False
    return GeneratorSet(family=f"fock(nmax={nmax})", dim=nmax * nmax, members=members)


def safe_subspace_mask(nmax: int, margin: int = 3) -> np.ndarray:
    """Boolean mask of states with n1 + n2 <= nmax - margin.

    With margin 3 every raising path of a quadratic-times-quadratic product
    stays below the truncation, so restricted commutators are exact.
    """
    n1, n2 = np.divmod(np.arange(nmax * nmax), nmax)
    return (n1 + n2) <= (nmax - margin)


def verify_fock_commutators(nmax: int,
                            tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Evaluate every ten-generator bracket on the safe subspace.

    Runs the bracket loop of ``algebra.verify_algebra`` on the banded
    generators, restricted to rows and columns with n1 + n2 <= nmax - 3
    (unrestricted residuals are nonzero at the truncation edge).  The
    residual of a pair is max|[A, B] - sum(c G)| / max(1, max_l max|G_l|)**2,
    both maxima over that block; the scale grows like nmax**2.  Cost and
    memory are O(nmax**2): about 0.2 s at nmax 128 on one core.

    Raises:
        ValueError: nmax outside [MIN_NMAX, MAX_NMAX].
    """
    if not MIN_NMAX <= nmax <= MAX_NMAX:
        raise ValueError(
            f"nmax must be in [{MIN_NMAX}, {MAX_NMAX}] for the safe subspace check, "
            f"got {nmax}")
    mask = safe_subspace_mask(nmax)
    return _verify_brackets(f"fock(nmax={nmax})", _tenfold(nmax), alge11_table(),
                           tolerance, lambda m: m.max_abs(mask))


# ---------------------------------------------------------------------------
# oscillator eigenfunctions and quadrature

def hermite_functions(kmax: int, x) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions phi_0..phi_kmax at points x.

    Unit mass and frequency: phi_0(x) = pi**-1/4 exp(-x**2/2).  Uses the
    normalized three-term recurrence
    phi_{k+1} = sqrt(2/(k+1)) x phi_k - sqrt(k/(k+1)) phi_{k-1},
    which is stable upward; k is capped at HERMITE_KMAX.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if kmax > HERMITE_KMAX:
        raise ValueError(f"kmax {kmax} exceeds the recurrence cap {HERMITE_KMAX}")
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if kmax >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, kmax):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * x * out[k] - np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def phi(k: int, x):
    """k-th oscillator eigenfunction at x."""
    return hermite_functions(k, x)[k]


@lru_cache(maxsize=8)
def gauss_hermite(n: int = 128) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and total weights w * exp(x**2).

    With the total weights, sum(w_tot * f(x)) approximates the plain
    integral of f; exact for f = (polynomial of degree < 2n) * exp(-x**2).
    """
    x, w = np.polynomial.hermite.hermgauss(n)
    total = np.exp(np.log(w) + x * x)
    x.flags.writeable = False
    total.flags.writeable = False
    return x, total


def psi_eta(eta: float, x1, x2):
    """Coupled two-oscillator ground state.

    (1/sqrt(pi)) exp(-[e^{2 eta} (x1 - x2)^2 + e^{-2 eta} (x1 + x2)^2] / 4);
    eta = 0 is the uncoupled ground state, and on the diagonal x1 = x2 the
    difference term drops out.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    quad = (np.exp(2 * eta) * (x1 - x2) ** 2 + np.exp(-2 * eta) * (x1 + x2) ** 2)
    return np.pi ** -0.5 * np.exp(-0.25 * quad)


def expansion_coefficient(eta: float, k: int) -> float:
    """Closed-form expansion coefficient tanh(eta)**k / cosh(eta)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return float(np.tanh(eta) ** k / np.cosh(eta))


def expansion_overlap(eta: float, k: int, nodes: int = 128) -> float:
    """<phi_k(x1) phi_k(x2) | psi_eta> by two-dimensional quadrature.

    Contract: equals expansion_coefficient(eta, k).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    x, w = gauss_hermite(nodes)
    pk = hermite_functions(k, x)[k]
    weighted = w * pk
    return float(weighted @ psi_eta(eta, x[:, None], x[None, :]) @ weighted)


# ---------------------------------------------------------------------------
# reduced density matrix: closed form, series, quadrature

def rho_reduced(eta: float, x, xp):
    """Reduced density matrix of the observed oscillator, closed form.

    rho(x, x') = (pi cosh 2eta)^{-1/2}
                 exp(-[(x + x')^2 + (x - x')^2 cosh^2(2 eta)] / (4 cosh 2eta));
    at eta = 0 this is the pure ground-state projector.
    """
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    c2 = np.cosh(2 * eta)
    quad = ((x + xp) ** 2 + (x - xp) ** 2 * c2 ** 2) / (4 * c2)
    return (np.pi * c2) ** -0.5 * np.exp(-quad)


def rho_series(eta: float, x, xp, kmax: int = 60):
    """Reduced density matrix summed over the eigenfunction ladder.

    sum_k w_k phi_k(x) phi_k(x') with w_k = tanh(eta)^{2k} / cosh(eta)^2;
    agrees with rho_reduced up to the series tail.
    """
    x, xp = np.broadcast_arrays(np.asarray(x, float), np.asarray(xp, float))
    w = series_weights(eta, kmax)
    hx = hermite_functions(kmax, x)
    hxp = hermite_functions(kmax, xp)
    return np.einsum("k,k...,k...->...", w, hx, hxp)


def rho_partial_trace(eta: float, x, xp, nodes: int = 128):
    """Reduced density matrix by integrating out the unobserved coordinate.

    integral psi_eta(x, t) psi_eta(x', t) dt by Gauss-Hermite quadrature.
    """
    x, xp = np.broadcast_arrays(np.asarray(x, float), np.asarray(xp, float))
    t, w = gauss_hermite(nodes)
    vals = psi_eta(eta, x[..., None], t) * psi_eta(eta, xp[..., None], t)
    return vals @ w


# ---------------------------------------------------------------------------
# series moments and the thermal state

def series_weights(eta: float, kmax: int = 200) -> np.ndarray:
    """Eigenvalue ladder w_k = (1 - tanh^2 eta) tanh(eta)^{2k}, k = 0..kmax.

    Symmetric in eta (only |eta| enters); nonnegative and non-increasing.
    """
    t = np.tanh(abs(eta)) ** 2
    return (1.0 - t) * t ** np.arange(kmax + 1)


def series_tail_bound(eta: float, kmax: int = 200) -> float:
    """Exact dropped tail sum_{k > kmax} w_k = tanh(eta)^{2(kmax+1)}."""
    t = np.tanh(abs(eta)) ** 2
    return float(t ** (kmax + 1))


def kmax_for_tail(eta: float, limit: float = SERIES_TAIL_LIMIT) -> int:
    """Smallest truncation whose dropped tail is at most ``limit``.

    Grows like -ln(limit) / (2 ln tanh |eta|); about 50 terms at eta = 1,
    about 380 at eta = 2, about 1.1 M at eta = 6.

    Raises:
        ValueError: tanh^2 |eta| rounds to 1 (eta above about 19), or the
            count exceeds ``MAX_KMAX`` (eta above about 7.3).
    """
    t = np.tanh(abs(eta)) ** 2
    if t == 0.0:
        return 1
    if t == 1.0:
        raise ValueError(f"tanh^2(eta) rounds to 1 at eta={eta}: no finite "
                         f"series truncation clears the tail {limit:.0e}")
    n = np.ceil(np.log(limit) / np.log(t)) - 1
    if not n <= MAX_KMAX:
        raise ValueError(f"eta={eta} needs {n:.3g} series terms to clear the tail "
                         f"{limit:.0e}, more than MAX_KMAX = {MAX_KMAX}")
    return max(int(n), 1)


def _xlogx(w: np.ndarray) -> np.ndarray:
    safe = np.where(w > 0, w, 1.0)
    return np.where(w > 0, w * np.log(safe), 0.0)


@dataclass(frozen=True)
class SeriesMoments:
    trace: float
    purity: float
    entropy: float
    tail_bound: float


def moments(eta: float, kmax: int = 200) -> SeriesMoments:
    """Trace, purity and entropy of the reduced-state eigenvalue ladder.

    trace = sum w_k, purity = sum w_k^2, entropy = -sum w_k ln w_k.
    Contracts: purity = 1/cosh(2 eta) and
    entropy = cosh^2(eta) ln cosh^2(eta) - sinh^2(eta) ln sinh^2(eta),
    both up to the reported geometric tail bound.  Negative eta is folded
    to |eta|.  A tail bound above SERIES_TAIL_LIMIT triggers a warning.
    """
    w = series_weights(eta, kmax)
    tail = series_tail_bound(eta, kmax)
    if tail > SERIES_TAIL_LIMIT:
        warnings.warn(
            f"series tail bound {tail:.3e} exceeds {SERIES_TAIL_LIMIT:.0e} "
            f"at eta={eta}, kmax={kmax}; increase kmax",
            stacklevel=2,
        )
    return SeriesMoments(
        trace=float(w.sum()),
        purity=float((w ** 2).sum()),
        entropy=float(-_xlogx(w).sum() + 0.0),
        tail_bound=tail,
    )


@dataclass(frozen=True)
class ThermalState:
    """Single-oscillator thermal state with geometric weights.

    Temperature is measured in Boltzmann units; weights are
    (1 - e^{-1/T}) e^{-k/T}.  temperature = 0 is the pure vacuum, built via
    :meth:`vacuum` (the factory ``thermal_state`` rejects T <= 0).
    """

    temperature: float
    kmax: int = 200

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.kmax < 1:
            raise ValueError("kmax must be >= 1")

    @classmethod
    def vacuum(cls, kmax: int = 200) -> "ThermalState":
        """The T -> 0 limit: weights (1, 0, 0, ...), unit Wigner radius."""
        return cls(temperature=0.0, kmax=kmax)

    @property
    def weights(self) -> np.ndarray:
        # the vacuum's q = 0 gives the weights (1, 0, 0, ...)
        q = np.exp(-1.0 / self.temperature) if self.temperature else 0.0
        return (1.0 - q) * q ** np.arange(self.kmax + 1)

    def entropy(self) -> float:
        """Closed form S(T) at the mean occupation v = 1/(e^{1/T} - 1)."""
        if self.temperature == 0:
            return 0.0
        return occupation_entropy(1.0 / np.expm1(1.0 / self.temperature))

    def entropy_series(self) -> float:
        """-sum w_k ln w_k over the truncated ladder (cross-check route)."""
        return float(-_xlogx(self.weights).sum() + 0.0)

    def radius(self) -> float:
        return wigner_radius(self.temperature)


def thermal_state(T: float, kmax: int = 200) -> ThermalState:
    """Thermal state at T > 0; the T = 0 limit is ThermalState.vacuum()."""
    if T <= 0:
        raise ValueError(f"temperature must be > 0, got {T}")
    return ThermalState(temperature=float(T), kmax=kmax)


def wigner_radius(T: float) -> float:
    """Gaussian radius 1/sqrt(tanh(1/2T)) of the thermal Wigner function.

    Grows from 1 at T = 0; equals sqrt(cosh 2 eta) at the matching squeeze
    parameter cosh(2 eta) = 1/tanh(1/2T).
    """
    if T < 0:
        raise ValueError(f"temperature must be >= 0, got {T}")
    if T == 0:
        return 1.0
    return float(1.0 / np.sqrt(np.tanh(0.5 / T)))
