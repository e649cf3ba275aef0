"""One refusal contract: every parameter of every public callable has a kind, and
each kind's catalogue of bad values is refused with a typed error that names the
parameter, under warnings as errors and within a small allocation.

Like ``tests/test_api.py`` this walks each module's ``__all__``: a public
callable without an entry in ``ENTRIES``, or an entry whose parameters differ
from the signature, fails the build.
"""

import inspect
import math
import re
import tracemalloc
import warnings
from typing import NamedTuple, Optional

import numpy as np
import pytest

from oscsym import algebra, families, fock, phase_space
from oscsym.algebra import CorrespondenceEntry, alge11_table
from oscsym.families import build_generator_set
from oscsym.fock import HERMITE_KMAX, MAX_KMAX, MAX_NMAX, MIN_NMAX
from oscsym.phase_space import DEFAULT_TOLERANCE, vacuum_state

MODULES = (families, algebra, fock, phase_space)


class Count(NamedTuple):
    """An integer argument in [lo, hi]; None is no bound, and optional accepts None."""
    noun: str
    lo: Optional[int] = None
    hi: Optional[int] = None
    optional: bool = False


class Real(NamedTuple):
    """A real argument in [lo, hi], (lo, hi] when above; None is the finite doubles' end."""
    noun: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    above: bool = False


class Points(NamedTuple):
    """Coordinates, read by one reader that refuses what is not finite."""


class Rows(NamedTuple):
    """An n x n matrix, named ``what`` when its shape is refused."""
    n: int
    what: str


ETA = Real("eta", -350, 350)  # every eta oracle of fock
THETA = Real("theta (eta for the coupling)")  # the flows; a squeeze past 709.78 overflows
TOLERANCE = Real("tolerance", 0, above=True)
X = (0.3, Points())
VACUUM = vacuum_state()
SP4, O32 = build_generator_set("sp4_4"), build_generator_set("o32_5")

#: "module.name" -> {parameter: (a value the call accepts, its kind or None)};
#: None marks a parameter that is not a number the library bounds: a label, a
#: state, a generator set, a table, an array of members or a report field
ENTRIES = {
    "families.GeneratorSet": {"family": ("sp4_4", None), "labels": (SP4.labels, None),
                              "block": (SP4.block, None)},
    "families.gamma_matrices": {},
    "families.build_generator_set": {"family": ("sp4_4", None)},
    "algebra.commutator": {"a": (np.eye(2), None), "b": (np.eye(2), None)},
    "algebra.anticommutator": {"a": (np.eye(2), None), "b": (np.eye(2), None)},
    "algebra.decompose": {"x": (SP4.block[0], None), "basis": (SP4, None)},
    "algebra.StructureTable": {"labels": (("a",), None), "f": (np.zeros((1, 1, 1)), None),
                               "closure_residuals": (None, None)},
    "algebra.alge11_table": {},
    "algebra.o33gen_table": {},
    "algebra.sp2_table": {"x": ("S3", None), "y": ("K2", None), "z": ("Q2", None)},
    "algebra.VerificationReport": {"family": ("sp4_4", None), "tolerance": (1e-12, None),
                                   "residuals": ({}, None)},
    "algebra.verify_algebra": {"genset": (SP4, None), "expected": (alge11_table(), None),
                               "tolerance": (DEFAULT_TOLERANCE, TOLERANCE)},
    "algebra.structure_table": {"genset": (SP4, None)},
    "algebra.IsomorphismReport": {
        name: (value, None) for name, value in (
            ("family_a", "a"), ("family_b", "b"), ("tolerance", 1e-12), ("max_deviation", 0.0),
            ("worst", None), ("closure_a", 0.0), ("closure_b", 0.0),
            ("worst_closure_a", None), ("worst_closure_b", None))},
    "algebra.check_isomorphism": {"set_a": (SP4, None), "set_b": (O32, None),
                                  "tolerance": (DEFAULT_TOLERANCE, TOLERANCE)},
    "algebra.CorrespondenceEntry": {"status": ("EXACT", None), "ratio": (None, None),
                                    "deviation": (0.0, None)},
    "algebra.CorrespondenceReport": {"entries": ({"L1": CorrespondenceEntry("EXACT", None, 0.0)},
                                                 None)},
    "algebra.table1_correspondence": {"tolerance": (DEFAULT_TOLERANCE, TOLERANCE)},
    "fock.fock_index": {"nmax": (8, Count("nmax", 1, MAX_NMAX)),
                        "n1": (1, Count("n1", 0, 7)), "n2": (2, Count("n2", 0, 7))},
    "fock.basis_state": {"nmax": (8, Count("nmax", 1, MAX_NMAX)),
                         "n1": (1, Count("n1", 0, 7)), "n2": (2, Count("n2", 0, 7))},
    "fock.dirac_tenfold": {"nmax": (4, Count("nmax", 4, MAX_NMAX))},
    "fock.safe_subspace_mask": {"nmax": (6, Count("nmax", 4, MAX_NMAX))},
    "fock.verify_fock_commutators": {"nmax": (MIN_NMAX, Count("nmax", MIN_NMAX, MAX_NMAX)),
                                     "tolerance": (DEFAULT_TOLERANCE, TOLERANCE)},
    "fock.phi": {"k": (2, Count("k", 0, HERMITE_KMAX)), "x": X},
    "fock.gauss_hermite": {"n": (8, Count("n", 1, 370))},
    "fock.psi_eta": {"eta": (0.5, ETA), "x1": X, "x2": X},
    "fock.expansion_overlap": {"eta": (0.5, ETA), "k": (2, Count("k", 0, HERMITE_KMAX))},
    "fock.expansion_coefficient": {"eta": (0.5, ETA), "k": (2, Count("k", 0))},
    "fock.rho_reduced": {"eta": (0.5, ETA), "x": X, "xp": X},
    "fock.rho_series": {"eta": (0.5, ETA), "x": X, "xp": X,
                        "kmax": (10, Count("kmax", 0, HERMITE_KMAX))},
    "fock.rho_partial_trace": {"eta": (0.5, ETA), "x": X, "xp": X},
    "fock.series_weights": {"eta": (0.5, ETA), "kmax": (10, Count("kmax", hi=MAX_KMAX))},
    "fock.series_tail_bound": {"eta": (0.5, ETA), "kmax": (10, Count("kmax"))},
    "fock.kmax_for_tail": {"eta": (0.5, ETA)},
    "fock.SeriesMoments": {"purity": (1.0, None), "entropy": (0.0, None)},
    "fock.moments": {"eta": (0.5, ETA), "kmax": (60, Count("kmax", hi=MAX_KMAX, optional=True))},
    "fock.ThermalState": {"temperature": (2.0, Real("temperature", 0))},
    "fock.thermal_state": {"T": (2.0, Real("temperature", 0, above=True))},
    "fock.wigner_radius": {"T": (2.0, Real("temperature", 0))},
    "phase_space.symplectic_deviation": {"m": (np.eye(4), Rows(4, "transform"))},
    "phase_space.is_canonical": {"m": (np.eye(4), Rows(4, "transform"))},
    "phase_space.generator_to_transform": {"label": ("K1", None), "theta": (0.5, THETA)},
    "phase_space.coupling_transform": {"eta": (0.5, THETA)},
    "phase_space.GaussianState": {"cov": (np.eye(4) / 2, Rows(4, "covariance"))},
    "phase_space.vacuum_state": {},
    "phase_space.evolve": {"state": (VACUUM, None), "m": (np.eye(4), Rows(4, "transform"))},
    "phase_space.reduce_oscillator": {"state": (VACUUM, None), "keep": (1, Count("keep", 1, 2))},
    "phase_space.gaussian_purity": {"cov2": (np.eye(2) / 2, Rows(2, "covariance"))},
    "phase_space.SubVacuumError": {},
    "phase_space.occupation_entropy": {"v": (1.0, Real("v", 0, math.inf))},
    "phase_space.gaussian_entropy": {"cov2": (np.eye(2) / 2, Rows(2, "covariance"))},
    "phase_space.areas": {"state": (VACUUM, None)},
    "phase_space.eta_from_temperature": {"T": (2.0, Real("temperature", 0, above=True))},
    "phase_space.temperature_from_eta": {"eta": (0.5, Real("eta", 0, above=True))},
}


def _public_callables():
    return {f"{module.__name__.split('.')[-1]}.{name}": getattr(module, name)
            for module in MODULES for name in module.__all__ if callable(getattr(module, name))}


def _parameters(obj):
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return []  # an exception class: what it is raised with is the raiser's message
    return list(inspect.signature(obj).parameters)


def bad_values(kind):
    """(value, error type, words the message must hold) that the kind refuses."""
    if isinstance(kind, Count):
        bad = [(v, TypeError, ()) for v in (True, False, np.True_, 2.0, 2.5, np.float64(2.0),
                                            "2", math.nan, math.inf)]
        if not kind.optional:
            bad.append((None, TypeError, ()))
        if kind.lo is not None:
            bad.append((kind.lo - 1, ValueError, (str(kind.lo),)))
        if kind.hi is not None:
            bad.append((kind.hi + 1, ValueError, (str(kind.hi),)))
        return bad
    if isinstance(kind, Real):
        bounds = tuple(str(b) for b in (kind.lo, kind.hi) if b is not None and b != math.inf)
        bad = [(v, TypeError, ()) for v in (True, False, np.True_, "1", None, 1j, [0.5])]
        bad += [(v, ValueError, bounds) for v in (math.nan, np.float64(math.nan), -math.inf)]
        if kind.hi != math.inf:
            bad.append((math.inf, ValueError, bounds))
        if kind.lo is not None:
            bad.append((kind.lo if kind.above else math.nextafter(kind.lo, -math.inf),
                        ValueError, bounds))
        if kind.hi is not None and kind.hi != math.inf:
            bad.append((math.nextafter(kind.hi, math.inf), ValueError, bounds))
        return bad
    if isinstance(kind, Points):
        return [(v, ValueError, ()) for v in (math.nan, math.inf, -math.inf,
                                              np.array([0.1, math.nan, 0.3]))]
    if isinstance(kind, Rows):
        return [(v, ValueError, ()) for v in (True, 0.5, np.eye(kind.n - 1), np.eye(kind.n + 1),
                                              [[0.5] * kind.n] * (kind.n - 1))]
    return []


def _pattern(kind) -> str:
    """The start every refusal of the kind has: the argument it names."""
    if isinstance(kind, Points):
        return "^coordinates must be finite"
    if isinstance(kind, Rows):
        return rf"^{kind.what} must be {kind.n}x{kind.n}, got "
    return rf"^{re.escape(kind.noun)} must be "


def _valid(key):
    return {name: value for name, (value, _) in ENTRIES[key].items()}


CASES = [pytest.param(key, name, value, error, words, id=f"{key}-{name}-{value!r}")
         for key, parameters in ENTRIES.items()
         for name, (_, kind) in parameters.items()
         for value, error, words in bad_values(kind)]


def test_every_public_callable_has_an_entry():
    assert sorted(_public_callables()) == sorted(ENTRIES)


@pytest.mark.parametrize("key", ENTRIES)
def test_entries_name_every_parameter(key):
    assert _parameters(_public_callables()[key]) == list(ENTRIES[key])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", ENTRIES)
def test_entries_are_accepted_calls(key):
    _public_callables()[key](**_valid(key))


@pytest.mark.parametrize("key,name,value,error,words", CASES)
def test_refusal_is_typed_and_names_the_argument(key, name, value, error, words):
    call, kwargs = _public_callables()[key], _valid(key)
    call(**kwargs)  # warm every cache the call fills, so only the refusal is traced
    kind = ENTRIES[key][name][1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracemalloc.start()
        try:
            with pytest.raises(Exception) as caught:
                call(**dict(kwargs, **{name: value}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert type(caught.value) is error, caught.value
    message = str(caught.value)
    assert re.match(_pattern(kind), message), message
    assert all(word in message for word in words), message
    assert peak < 2 ** 16


@pytest.mark.filterwarnings("error")
def test_numpy_numbers_are_numbers():
    # the checkers read numpy integers and reals as the Python numbers they hold
    assert fock.fock_index(np.int64(8), np.int32(1), np.uint8(2)) == 10
    assert fock.expansion_coefficient(np.float64(0.5), np.int64(2)) == \
        fock.expansion_coefficient(0.5, 2)
    assert phase_space.coupling_transform(np.float32(0.5)) == phase_space.coupling_transform(0.5)
    assert fock.thermal_state(np.int64(2)) == fock.thermal_state(2.0)
