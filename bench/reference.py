"""50-digit mpmath references and the correctness gate.

References are computed from the benchmark's own inputs during set-up, never
inside a timed region.  They use closed forms only: every sl4r_4 flow is
exp(theta A) with A = 2 Im G and A^2 = -I (L, S) or +I (K, Q, G), so
M(theta) = cos(theta) I + sin(theta) A or cosh(theta) I + sinh(theta) A.
The generator entries are copied from the program at set-up and the
A^2 = +-I property is checked there, so a changed generator fails loudly.

Tolerances are the ones the repository's tests assert for the same outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import mpmath as mp

DPS = 50

#: absolute tolerances, as asserted by the repository's tests
TOL = {
    "residual": 1e-12,        # bracket / isomorphism / Fock residuals
    "purity": 1e-12,          # test_purity_matches_series
    "purity_series": 1e-10,   # test_moments_purity_identity
    "entropy": 1e-9,          # test_entropy_matches_series_oracle
    "temperature": 1e-12,     # test_temperature_round_trip
    "eta_round_trip": 1e-12,  # test_eta_round_trip
    "thermal_entropy": 1e-10, # test_entropy_eta_equals_entropy_temperature
    "rho_reduced": 1e-12,     # closed form against the 50-digit closed form
    "rho_series": 1e-9,       # test_rho_series_matches_closed_form
    "rho_partial_trace": 1e-10,  # test_rho_partial_trace_matches_closed_form
    "expansion_overlap": 1e-8,   # test_expansion_overlap_matches_closed_form
}
#: areas grow like pi e^{2 theta}; their tolerance is relative (1e-12 of the value)
AREA_RTOL = 1e-12

#: labels whose flows are canonical (the ten Sp(4) generators)
CANONICAL_LABELS = ("L1", "L2", "L3", "S3", "K1", "K2", "K3", "Q1", "Q2", "Q3")


class GateError(Exception):
    """An output disagrees with its reference beyond tolerance."""

    def __init__(self, layer: str, output: str, message: str):
        super().__init__(f"{layer}: {output}: {message}")
        self.layer = layer
        self.output = output


def close(layer: str, output: str, got: float, want, tol: float,
          errors: Dict[str, float]) -> None:
    """Record |got - want| under ``output`` and raise GateError beyond ``tol``.

    A non-finite ``got`` always fails.
    """
    err = abs(got - float(want)) if math.isfinite(got) else math.inf
    if err > errors.get(output, 0.0):
        errors[output] = err
    if not err <= tol:
        raise GateError(layer, output, f"got {got!r}, want {float(want)!r}, "
                                       f"|err| {err:.3e} > {tol:.1e}")


def require(layer: str, output: str, ok: bool, message: str) -> None:
    if not ok:
        raise GateError(layer, output, message)


# ---------------------------------------------------------------------------
# closed forms at 50 digits

def entropy_from_mu(mu) -> mp.mpf:
    """S = u ln u - v ln v with u = (mu + 1)/2, v = (mu - 1)/2 (v ln v -> 0)."""
    with mp.workdps(DPS):
        mu = mp.mpf(mu)
        u, v = (mu + 1) / 2, (mu - 1) / 2
        return u * mp.log(u) - (v * mp.log(v) if v > 0 else 0)


def purity_eta(eta) -> mp.mpf:
    with mp.workdps(DPS):
        return 1 / mp.cosh(2 * mp.mpf(eta))


def entropy_eta(eta) -> mp.mpf:
    with mp.workdps(DPS):
        return entropy_from_mu(mp.cosh(2 * mp.mpf(eta)))


def temperature_eta(eta) -> mp.mpf:
    """T = -1/(2 ln tanh eta)."""
    with mp.workdps(DPS):
        return -1 / (2 * mp.log(mp.tanh(mp.mpf(eta))))


def thermal_entropy(T) -> mp.mpf:
    """S(T) = (1/T)/(e^{1/T} - 1) - ln(1 - e^{-1/T})."""
    with mp.workdps(DPS):
        b = 1 / mp.mpf(T)
        return b / mp.expm1(b) - mp.log(-mp.expm1(-b))


def rho_grid(eta, xs: Sequence[float]) -> List[List[mp.mpf]]:
    """Closed-form reduced density matrix on the grid xs x xs."""
    with mp.workdps(DPS):
        c2 = mp.cosh(2 * mp.mpf(eta))
        norm = (mp.pi * c2) ** mp.mpf(-0.5)
        out = []
        for x in xs:
            x = mp.mpf(x)
            row = []
            for xp in xs:
                xp = mp.mpf(xp)
                quad = ((x + xp) ** 2 + (x - xp) ** 2 * c2 ** 2) / (4 * c2)
                row.append(norm * mp.exp(-quad))
            out.append(row)
        return out


def expansion_coefficient(eta, k: int) -> mp.mpf:
    with mp.workdps(DPS):
        eta = mp.mpf(eta)
        return mp.tanh(eta) ** k / mp.cosh(eta)


# ---------------------------------------------------------------------------
# Gaussian pipeline reference

def flow_generator(imag_part: Sequence[Sequence[float]]):
    """Return (A, s) with A = 2 Im G as an mp matrix and A^2 = s I, s = +-1.

    Raises AssertionError when A^2 is not +-I: the closed forms below would
    then be wrong, so the benchmark refuses to start.
    """
    with mp.workdps(DPS):
        a = mp.matrix([[2 * mp.mpf(v) for v in row] for row in imag_part])
        sq = a * a
        for s in (1, -1):
            if mp.mnorm(sq - s * mp.eye(4), 1) == 0:
                return a, s
    raise AssertionError("2 Im G squares to neither +I nor -I")


def flow_matrix(a, s: int, theta: float):
    with mp.workdps(DPS):
        th = mp.mpf(theta)
        if s == -1:
            return mp.cos(th) * mp.eye(4) + mp.sin(th) * a
        return mp.cosh(th) * mp.eye(4) + mp.sinh(th) * a


def coupling_matrix(eta: float):
    with mp.workdps(DPS):
        r = mp.matrix([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]])
        r = r / mp.sqrt(2)
        e = mp.exp(mp.mpf(eta))
        return r.T * mp.diag([e, 1 / e, 1 / e, e])


@dataclass(frozen=True)
class PipelineRef:
    """Expected outputs of transform -> evolve -> reduce -> measures."""

    purity: float
    mu: float
    entropy: Optional[float]   # None: sub-vacuum, SubVacuumError expected
    area1: float
    area2: float
    canonical: bool
    temperature: Optional[float]  # coupled source with eta > 0 only


def pipeline_ref(m, keep: int, canonical: bool,
                 eta: Optional[float] = None) -> PipelineRef:
    """Reference for the vacuum pushed through the mp matrix ``m``."""
    with mp.workdps(DPS):
        cov = m * m.T / 2

        def det_block(i):
            return cov[i, i] * cov[i + 1, i + 1] - cov[i, i + 1] * cov[i + 1, i]

        d1, d2 = det_block(0), det_block(2)
        dk = d1 if keep == 1 else d2
        mu = 2 * mp.sqrt(dk)
        entropy = None if mu < 1 - mp.mpf(TOL["residual"]) else float(
            entropy_from_mu(max(mu, mp.mpf(1))))
        return PipelineRef(
            purity=float(1 / mu),
            mu=float(mu),
            entropy=entropy,
            area1=float(2 * mp.pi * mp.sqrt(d1)),
            area2=float(2 * mp.pi * mp.sqrt(d2)),
            canonical=canonical,
            temperature=None if eta is None or eta <= 0 else float(temperature_eta(eta)),
        )
