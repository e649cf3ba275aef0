"""Command-line interface: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oscsym
from oscsym import cli, fock
from oscsym.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _child_env():
    """The environment of a child interpreter that imports the same oscsym as this process."""
    src = os.path.dirname(os.path.dirname(oscsym.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_leaves_scipy_unloaded():
    env = _child_env()
    # the import, then a full verification run including the Fock check
    code = ("import contextlib, io, sys, oscsym.cli\n"
            "imported = 'scipy' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = oscsym.cli.main(['verify', '--suite', 'all'])\n"
            "print(imported, status, 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "False 0 False"


# phase_space is numpy-free, and GaussianState is not a dataclass: importing
# dataclasses pulls in inspect
SIMULATE_UNLOADED = ("numpy", "oscsym.algebra", "oscsym.families", "oscsym.fock",
                     "dataclasses", "inspect")


@pytest.mark.parametrize("argv,unloaded", [
    (["simulate", "--couple", "--eta", "1"], SIMULATE_UNLOADED),
    (["simulate", "--generator", "G3", "--eta", "0.5"], SIMULATE_UNLOADED),
    (["verify", "--suite", "iso"], ("oscsym.fock",)),
])
def test_cold_start_leaves_modules_unloaded(argv, unloaded):
    # the package and the CLI import lazily: simulate runs without numpy
    code = ("import contextlib, io, sys, oscsym, oscsym.cli\n"
            f"unloaded = {unloaded!r}\n"
            "before = [m for m in unloaded if m in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = oscsym.cli.main({argv!r})\n"
            "print(before, status, [m for m in unloaded if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(), check=True)
    assert proc.stdout.strip() == "[] 0 []"


@pytest.mark.parametrize("argv,reason", [
    (["--generator", "G3", "--eta", "200"], "overflows a double"),  # the area-1 det
    (["--couple", "--eta", "-400"], "cannot check"),                 # M C M^T is inf
    (["--generator", "G3", "--eta", "-200"], "cannot check"),        # the block det underflows
])
def test_refused_simulate_leaves_numpy_unloaded(argv, reason):
    # phase_space refuses these itself: no numpy warning is turned into the exit 2
    code = ("import contextlib, io, sys, oscsym.cli\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            "    try:\n"
            f"        oscsym.cli.main({['simulate', *argv]!r})\n"
            "    except SystemExit as exc:\n"
            "        status = exc.code\n"
            f"print(status, [m for m in {SIMULATE_UNLOADED!r} if m in sys.modules])\n"
            "print(err.getvalue().splitlines()[-1])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(), check=True)
    status, error = proc.stdout.splitlines()
    assert status == "2 []"
    assert error.startswith("oscsym: error:") and reason in error


def test_internal_error_exits_3_with_one_line():
    # an exception escaping a command: exit 3 and one stderr line, not the
    # exit 1 of a FAILed check nor a traceback
    env = _child_env()
    code = ("import sys, oscsym.cli, oscsym.phase_space\n"
            "def broken(*args):\n"
            "    raise RuntimeError('covariance broke\\n  on a second line')\n"
            "oscsym.phase_space.evolve = broken\n"
            "sys.exit(oscsym.cli.main(['simulate', '--couple', '--eta', '1']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "oscsym: internal error: covariance broke on a second line"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("argv", [("verify", "--suite", "all"),
                                  ("table", "--eta-grid", "0:3:0.001")])
def test_closed_stdout_exits_141_quietly(argv, buffered):
    # the reader is gone before the child writes, as in `oscsym ... | true`
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "oscsym.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate()
    assert (proc.returncode, err) == (141, b"")


def test_internal_error_without_message_names_its_type(capsys, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError

    monkeypatch.setattr(fock, "moments", broken)
    assert main(["table", "--eta-grid", "1:1:1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "oscsym: internal error: ZeroDivisionError\n"


# ---------------------------------------------------------------------------
# verify

def test_verify_sp4_passes(capsys):
    code, out = run(capsys, "verify", "--suite", "sp4", "--tolerance", "1e-12")
    assert code == 0
    assert "PASS" in out


def test_verify_all_green_with_warns(capsys):
    code, out = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert "WARN" in out  # documented print discrepancies surface
    assert "FAIL" not in out.replace("0 FAIL", "")


def test_verify_all_fails_at_unattainable_tolerance(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--tolerance", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_verify_table1_pattern(capsys):
    code, out = run(capsys, "verify", "--suite", "table1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "table1"
    by_status = {}
    for row in payload["results"]:
        by_status.setdefault(row["status"], []).append(row["name"])
    assert len(by_status.get("WARN", [])) == 2
    assert any("L1" in n and "FACTOR_MISMATCH" in n for n in by_status["WARN"])
    assert any("S2" in n and "SIGN_FLIP" in n for n in by_status["WARN"])
    assert len(by_status.get("PASS", [])) == 13
    assert not by_status.get("FAIL")


def test_verify_json_schema_and_roundtrip(capsys):
    code, out = run(capsys, "verify", "--suite", "iso", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"suite", "results"}
    for row in payload["results"]:
        assert set(row) == {"name", "residual", "status"}
        assert row["status"] in ("PASS", "WARN", "FAIL")
        assert isinstance(row["residual"], float)
    # emitted JSON round-trips
    assert json.loads(json.dumps(payload)) == payload


def test_verify_fock_respects_nmax(capsys):
    for nmax in ("10", "128"):
        code, out = run(capsys, "verify", "--suite", "fock", "--nmax", nmax)
        assert code == 0
        assert f"nmax={nmax}," in out


def test_verify_bad_suite_exits_2(capsys):
    too_big = str(fock.MAX_NMAX + 1)
    for argv in (["--suite", "su5"], ["--suite", "fock", "--nmax", "3"],
                 ["--suite", "all", "--nmax", "5"],
                 ["--suite", "fock", "--nmax", too_big],
                 ["--suite", "all", "--nmax", too_big]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2


def test_verify_nonpositive_tolerance_exits_2(capsys):
    for bad in ("-1", "nan"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "sp4", "--tolerance", bad])
        assert exc.value.code == 2


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "--suite", "sp2", "--format", "json", "--out", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["suite"] == "sp2"


@pytest.mark.parametrize("argv,where,reason", [
    (["simulate", "--couple", "--eta", "1"], "missing/x.txt", "No such file or directory"),
    (["verify", "--suite", "iso"], ".", "Is a directory"),
])
def test_unwritable_out_exits_2_with_one_line(argv, where, reason, tmp_path, capsys):
    out = tmp_path / where
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"oscsym: error: cannot write --out {out}: {reason}"]


def test_verify_csv_format(capsys):
    code, out = run(capsys, "verify", "--suite", "o32", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,residual,status"
    assert lines[1].endswith(",PASS")


def test_verify_text_rewrites_only_the_row_whose_residual_changed(capsys, monkeypatch):
    # the residual column is as wide as the widest residual a double prints
    outputs = []
    for residual in (0.0, -2.2250738585072014e-308):
        monkeypatch.setitem(cli._SUITE_RUNNERS, "sp4", lambda tol, nmax, r=residual: [
            cli._check_row("first", 0.0, tol), cli._check_row("second", r, tol)])
        code, out = run(capsys, "verify", "--suite", "sp4")
        assert code == 0
        outputs.append(out.splitlines())
    before, after = outputs
    assert [i for i, (a, b) in enumerate(zip(before, after)) if a != b] == [2]
    assert after[2] == "PASS    -2.2250738585072014e-308  second"


# ---------------------------------------------------------------------------
# simulate

def test_simulate_g3(capsys):
    code, out = run(capsys, "simulate", "--generator", "G3", "--eta", "0.5",
                    "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["area1"] - np.pi * np.e) <= 1e-12
    assert abs(row["area2"] - np.pi / np.e) <= 1e-12
    assert abs(row["area_product"] - np.pi ** 2) <= 1e-10
    assert row["canonical"] is False


def test_simulate_deep_squeeze_is_canonical(capsys):
    code, out = run(capsys, "simulate", "--generator", "K1", "--eta", "5",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["canonical"] is True


def test_simulate_couple_uncoupled_limit(capsys):
    code, out = run(capsys, "simulate", "--couple", "--eta", "0", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["purity"] - 1.0) <= 1e-12
    assert abs(row["entropy"]) <= 1e-12
    assert row["canonical"] is True


def test_simulate_couple_unit_eta(capsys):
    code, out = run(capsys, "simulate", "--couple", "--eta", "1", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["purity"] - 1.0 / np.cosh(2.0)) <= 1e-9
    c2, s2 = np.cosh(1.0) ** 2, np.sinh(1.0) ** 2
    assert abs(row["entropy"] - (c2 * np.log(c2) - s2 * np.log(s2))) <= 1e-9
    assert abs(row["temperature"] + 0.5 / np.log(np.tanh(1.0))) <= 1e-12


def test_simulate_by_temperature(capsys):
    code, out = run(capsys, "simulate", "--couple", "--temperature", "2.0",
                    "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["temperature"] - 2.0) <= 1e-12
    assert abs(np.cosh(2 * row["eta"]) - 1.0 / np.tanh(0.25)) <= 1e-10


def test_simulate_subvacuum_flagged(capsys):
    """Oscillator 1 contracted below the vacuum floor: entropy withheld."""
    code, out = run(capsys, "simulate", "--generator", "G3", "--eta", "-0.5",
                    "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["subvacuum"] is True
    assert row["entropy"] is None
    assert row["purity"] > 1.0


def test_simulate_requires_parameter(capsys):
    for argv in ([], ["--eta", "nan"], ["--eta", "inf"], ["--temperature", "nan"]):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--couple", *argv])
        assert exc.value.code == 2


def test_simulate_rejects_both_parameters(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--couple", "--eta", "1", "--temperature", "2"])
    assert exc.value.code == 2


def test_simulate_unknown_generator_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--generator", "Z9", "--eta", "0.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--couple", "--eta", "400"],              # T overflows
    ["--couple", "--eta", "-400"],             # cov overflows
    ["--generator", "K1", "--eta", "-400"],
    ["--generator", "K1", "--eta", "800"],
    ["--generator", "L1", "--eta", "400"],     # a rotation: only T overflows
    ["--generator", "G3", "--eta", "200"],     # the area-1 det overflows
])
def test_simulate_overflowing_eta_exits_2(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *argv])
    assert exc.value.code == 2
    assert [str(w.message) for w in caught] == []
    usage, error = capsys.readouterr().err.strip().splitlines()
    assert usage.startswith("usage:") and error.startswith("oscsym: error:")


@pytest.mark.parametrize("argv,eta", [
    (["--generator", "G3", "--eta", "-200"], "-200"),  # the kept block's det underflows
    (["--couple", "--eta", "10"], "10"),               # the 4x4 pivots round below 0
])
def test_simulate_uncheckable_covariance_exits_2(argv, eta, capsys):
    # a valid state whose covariance double precision cannot judge is a bad
    # --eta, not the exit 3 of an internal error
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    usage, error = err.strip().splitlines()
    assert usage.startswith("usage:")
    assert error.startswith(f"oscsym: error: at eta = {eta} double precision cannot check")


def test_simulate_csv_format(capsys):
    code, out = run(capsys, "simulate", "--generator", "K2", "--eta", "0.3",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("transform,eta,temperature,purity,entropy,")
    cells = lines[1].split(",")
    assert cells[0] == "K2"
    assert cells[-2] == "true"  # canonical single-oscillator squeeze


def test_table_out_file(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code = main(["table", "--eta-grid", "0:0.5:0.25", "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4  # header + three rows


# ---------------------------------------------------------------------------
# table

def test_table_single_point(capsys):
    code, out = run(capsys, "table", "--eta-grid", "0:0:1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eta,T,purity,entropy_series,entropy_gaussian,radius,max_discrepancy"
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[2]) == 1.0  # purity
    assert float(row[3]) == 0.0  # entropy


def test_table_grid_dual_route_agreement(capsys):
    code, out = run(capsys, "table", "--eta-grid", "0.25:2.0:0.25", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 8
    assert max(r["max_discrepancy"] for r in rows) <= 1e-9


def test_table_radius_column(capsys):
    code, out = run(capsys, "table", "--eta-grid", "0.5:0.5:1", "--format", "json")
    row = json.loads(out)["rows"][0]
    T = row["T"]
    assert abs(row["radius"] - 1.0 / np.sqrt(np.tanh(0.5 / T))) <= 1e-12
    assert abs(row["radius"] - np.sqrt(np.cosh(1.0))) <= 1e-12


def test_table_empty_grid_exits_2(capsys):
    for bad in ("2:1:0.5", "0:1:0", "0:1", "a:b:c", "0:nan:0.5"):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--eta-grid", bad])
        assert exc.value.code == 2


@pytest.mark.parametrize("grid,match", [
    ("8:8:1", "MAX_KMAX"),      # 6.1e7 series terms, about 0.3 s a pass
    ("19:19:1", "MAX_KMAX"),    # tanh^2 == 1.0; 2.2e17 series terms
    ("0:8:1", "MAX_KMAX"),      # refused before the valid rows are computed
])
def test_table_unbounded_series_exits_2(grid, match, capsys, monkeypatch):
    def no_series(*args, **kwargs):
        raise AssertionError("series allocated before the refusal")

    for name in ("series_weights", "moments", "thermal_state"):
        monkeypatch.setattr(fock, name, no_series)
    with pytest.raises(SystemExit) as exc:
        main(["table", "--eta-grid", grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("oscsym: error:") and match in err[-1]


@pytest.mark.parametrize("grid", [
    "0:1e308:1e-308",  # the point count is inf
    "0:1:1e-300",      # 1e300 points, past numpy's largest array
])
def test_table_grid_numpy_cannot_hold_exits_2(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--eta-grid", grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert [line for line in err if line.startswith("oscsym:")] == [err[-1]]
    assert err[-1].startswith(f"oscsym: error: grid {grid!r}")


def test_table_at_tiny_eta_leaves_stderr_empty(capsys):
    # T(1e-300) = 7.2e-4, where e^{1/T} overflows inside the thermal entropy
    code = main(["table", "--eta-grid", "1e-300:1e-300:1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.splitlines()[1].startswith("1e-300,")


def test_table_kmax_above_cap_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--eta-grid", "0:0:1", "--kmax", str(fock.MAX_KMAX + 1)])
    assert exc.value.code == 2
    assert "--kmax must be at most" in capsys.readouterr().err


def test_table_csv_deterministic(capsys):
    _, first = run(capsys, "table", "--eta-grid", "0:1.5:0.25")
    _, second = run(capsys, "table", "--eta-grid", "0:1.5:0.25")
    assert first == second


def test_table_csv_full_precision(capsys):
    _, out = run(capsys, "table", "--eta-grid", "1:1:1")
    value = out.strip().splitlines()[1].split(",")[2]
    # 17 significant digits: parsing and re-rendering reproduces the cell
    assert f"{float(value):.17g}" == value
    assert abs(float(value) - 1.0 / np.cosh(2.0)) <= 1e-12
