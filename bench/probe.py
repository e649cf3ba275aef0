"""Set-up of each workload, and a probe that times it in a fresh interpreter.

Usage (the harness runs this; by hand it is)::

    PYTHONPATH=src python3 bench/probe.py <workload> <repo root>

prints ``{"setup_s": ...}``: the time from the probe's first statement to
the first operation being ready (import, family builds, lazy caches).  Run
with ``python3 -X importtime`` to get the per-module import times on stderr.
"""

import json
import os
import sys
from time import perf_counter


def _cli_cold():
    import oscsym.cli
    oscsym.cli.build_parser()


def _certify_warm():
    from oscsym import algebra, families
    for family in families.FAMILIES:
        families.build_generator_set(family)
    algebra.alge11_table()
    algebra.o33gen_table()


def _fock_ladder():
    import oscsym.fock  # noqa: F401


def _thermal_sweep():
    from oscsym import fock
    from oscsym import phase_space as ps
    ps.generator_to_transform("L1", 0.0)  # fills the sl4r_4 cache
    fock.gauss_hermite(128)


SETUP = {
    "cli-cold": _cli_cold,
    "certify-warm": _certify_warm,
    "fock-ladder": _fock_ladder,
    "thermal-sweep": _thermal_sweep,
}


def main(argv):
    workload, root = argv
    start = perf_counter()
    SETUP[workload]()
    elapsed = perf_counter() - start
    import oscsym
    expected = os.path.join(os.path.realpath(root), "src", "oscsym")
    if os.path.dirname(os.path.realpath(oscsym.__file__)) != expected:
        print(f"oscsym imported from {oscsym.__file__}, not {expected}", file=sys.stderr)
        return 3
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
