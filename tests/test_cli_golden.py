"""``oscsym table`` and ``oscsym simulate`` output, and every ``--help``, is
byte-identical to the recorded outputs.

The files under ``tests/data/cli_golden`` hold the eta = 0 and eta < 0 rows,
a deep-squeeze table whose series needs millions of terms, both --eta and
--temperature inputs, a non-canonical flow, and every output format.  A
value that moves by one ulp shows up here.  The help files hold the limits
and defaults the parser prints (Fock nmax range, MAX_KMAX).
"""

import contextlib
import io
from pathlib import Path

import pytest

from oscsym.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden"
CASES = (
    [(f"table-eta0to3.{fmt}", ["table", "--eta-grid", "0:3:0.25", "--format", fmt])
     for fmt in ("csv", "json", "text")]
    + [("table-eta0.5to7-kmax1000.csv", ["table", "--eta-grid", "0.5:7:0.5", "--kmax", "1000"])]
    + [(f"simulate-couple-eta{eta}.text", ["simulate", "--couple", "--eta", eta])
       for eta in ("0", "-1", "1")]
    + [("simulate-couple-T2.json",
        ["simulate", "--couple", "--temperature", "2", "--format", "json"]),
       ("simulate-K1-eta5.text", ["simulate", "--generator", "K1", "--eta", "5"]),
       ("simulate-G3-eta0.5.csv",
        ["simulate", "--generator", "G3", "--eta", "0.5", "--format", "csv"])]
)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_byte_identical(name, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    assert status == 0
    assert out.getvalue().encode() == (GOLDEN / name).read_bytes()


HELP_CASES = [("help.txt", []), *((f"help-{command}.txt", [command])
                                  for command in ("verify", "simulate", "table"))]


@pytest.mark.parametrize("name,argv", HELP_CASES, ids=[name for name, _ in HELP_CASES])
def test_help_byte_identical(name, argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
