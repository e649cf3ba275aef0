"""``oscsym verify`` output is byte-identical to the recorded outputs.

The files under ``tests/data/verify_golden`` were written by the per-pair
bracket loop that the tensor contraction replaced: every suite in every
format, and the Fock suite at several truncations.  The two ``iso`` rows (in
``iso.*`` and ``all.*``) were recorded after structure constants became a
trace projection, which reads them as exactly 0 where the least-squares solve
read rounding noise (7.2e-16 and 8.9e-16).  The ``.text`` files were
re-recorded once more when the residual column got a fixed width of 24
characters, the widest residual a double prints; before, it followed the
widest residual of the suite, so one moved row re-spaced all of them.
``fock-nmax32.csv`` and ``fock-nmax128.csv`` were re-recorded when the Fock
check became sums of one-mode ladder word products, whose summation order
moved their worst residual (2.2105774001425329e-16 -> 2.5263741715914658e-16
and 2.8643698090606195e-16 -> 3.4461949265260574e-16).  A residual that moves
by one ulp shows up here.
"""

import contextlib
import io
from pathlib import Path

import pytest

from oscsym.cli import SUITES, main

GOLDEN = Path(__file__).resolve().parent / "data" / "verify_golden"
CASES = ([(f"{suite}.{fmt}", ["--suite", suite, "--format", fmt])
          for suite in SUITES for fmt in ("text", "json", "csv")]
         + [(f"fock-nmax{n}.csv", ["--suite", "fock", "--nmax", str(n), "--format", "csv"])
            for n in (6, 32, 128, 256)])


@pytest.mark.parametrize("name,args", CASES, ids=[name for name, _ in CASES])
def test_verify_output_byte_identical(name, args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["verify", *args])
    assert status == 0
    assert out.getvalue().encode() == (GOLDEN / name).read_bytes()
