"""The Gaussian pipeline in Python floats: simulate's rows equal the library's,
the flows read the sl4r_4 members, and the math-module maps hold to 50 digits."""

import json
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from oscsym.cli import main
from oscsym.families import FIFTEEN_LABELS, build_generator_set
from oscsym.phase_space import (
    SubVacuumError,
    areas,
    coupling_transform,
    eta_from_temperature,
    evolve,
    gaussian_entropy,
    gaussian_purity,
    generator_to_transform,
    is_canonical,
    occupation_entropy,
    reduce_oscillator,
    temperature_from_eta,
    vacuum_state,
)
from oscsym.phase_space import _FLOWS


def test_flows_read_the_sl4r_members():
    # A = 2 Im G: B2 of a rotation, B1 - B2 = 2P - I of a squeeze
    sl4r = build_generator_set("sl4r_4")
    assert tuple(_FLOWS) == FIFTEEN_LABELS
    for label, (rotation, pairs) in _FLOWS.items():
        b1, b2 = np.array(pairs).T.reshape(2, 4, 4)
        a = b2 if rotation else b1 - b2
        assert np.array_equal(a, 2.0 * sl4r[label].imag)
        assert rotation == (label[0] in "LS")


def _library_row(source, eta):
    m = coupling_transform(eta) if source == "couple" else generator_to_transform(source, eta)
    state = evolve(vacuum_state(), m)
    block = reduce_oscillator(state, 1)
    try:
        entropy, subvacuum = gaussian_entropy(block), False
    except SubVacuumError:
        entropy, subvacuum = None, True
    a1, a2 = areas(state)
    return {"temperature": temperature_from_eta(eta) if eta > 0 else 0.0,
            "purity": gaussian_purity(block), "entropy": entropy, "area1": a1, "area2": a2,
            "area_product": a1 * a2, "canonical": is_canonical(m), "subvacuum": subvacuum}


# below the pd-check zone (|theta| >= 9.1), where every state is accepted
GRID = [0.5 * i for i in range(-16, 17)]


@pytest.mark.parametrize("source", FIFTEEN_LABELS + ("couple",))
def test_simulate_rows_equal_the_library_pipeline(source, capsys):
    mode = ["--couple"] if source == "couple" else ["--generator", source]
    for eta in GRID:
        assert main(["simulate", *mode, "--eta", repr(eta), "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        expected = _library_row(source, eta)
        assert {key: row[key] for key in expected} == expected


# ---------------------------------------------------------------------------
# the temperature maps and the entropy against 50-digit mpmath

def _log_sweep(lo, hi, n=3001):
    return [10.0 ** (lo + (hi - lo) * i / (n - 1)) for i in range(n)]


def _ulps(got, exact):
    return float(abs(mpf(got) - exact) / math.ulp(got))


def test_temperature_from_eta_within_3_ulp():
    with mp.workdps(50):
        for eta in _log_sweep(-300, math.log10(355.0)):
            e = mpf(eta)
            # ln tanh eta = -2 atanh(e^{-2 eta}) keeps deep squeezes apart from 1
            exact = (-1 / (2 * mp.log(mp.tanh(e))) if e < 1
                     else 1 / (4 * mp.atanh(mp.exp(-2 * e))))
            assert _ulps(temperature_from_eta(eta), exact) <= 3.0, eta


def test_eta_from_temperature_within_2_ulp_per_unit_of_x():
    # x = 1/2T is rounded once, and e^{-x} carries that rounding x-fold
    with mp.workdps(50):
        for T in _log_sweep(-2.5, 300.0):
            x = 1 / (2 * mpf(T))
            exact = (mp.atanh(mp.exp(-x)) if x > 1
                     else (mp.log1p(mp.exp(-x)) - mp.log(-mp.expm1(-x))) / 2)
            assert _ulps(eta_from_temperature(T), exact) <= 2.0 * (1.0 + 0.5 / T), T


def test_occupation_entropy_within_3_ulp():
    with mp.workdps(50):
        for v in _log_sweep(-300, 300):
            exact = mp.log1p(mpf(v)) + mpf(v) * mp.log1p(1 / mpf(v))
            assert _ulps(occupation_entropy(v), exact) <= 3.0, v
