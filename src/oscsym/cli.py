"""Command-line front end: verification suites, simulations, grid tables.

Subcommands::

    oscsym verify   --suite {sp4|sl4r|o33|o32|sp2|fock|table1|iso|all}
                    [--tolerance R] [--nmax N] [--format F] [--out PATH]
    oscsym simulate (--generator LABEL | --couple)
                    (--eta R | --temperature R)
                    [--format {text,json,csv}] [--out PATH]
    oscsym table    --eta-grid LO:HI:STEP [--kmax N] [--format F] [--out PATH]

Exit status: 0 when every executed check passes (WARN rows document known
print discrepancies and do not fail the run), 1 on any FAIL, 2 on bad
arguments (a ``table`` row needing more than ``fock.MAX_KMAX`` series
terms and a ``simulate`` eta whose temperature or transform overflows a
double, or whose covariance double precision cannot check, included), 3 on
an internal error: an exception escaping a command is printed as one
``oscsym: internal error: <message>`` line on stderr, without a traceback.
141 (128 + SIGPIPE, as a shell reports a tool the signal ended) when the
reader of stdout closes it early, as ``| head -1`` does; stderr stays empty.
All output is deterministic: no randomness, stable ordering, floats
rendered with 17 significant digits.

Each subcommand imports only what it runs: ``simulate`` runs the numpy-free
``phase_space`` pipeline and imports no numpy, ``verify`` imports ``algebra``
and ``families`` (and ``fock`` for the fock and all suites), and ``table``
imports ``fock``.  An unwritable ``--out`` is a bad argument: exit 2 with
``cannot write --out PATH: <reason>``.

JSON reports follow
``{"suite": str, "results": [{"name": str, "residual": float, "status": "PASS|WARN|FAIL"}]}``
for verification and ``{"command": str, "rows": [...]}`` for simulations
and tables.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from . import phase_space as ps

SUITES = ("sp4", "sl4r", "o33", "o32", "sp2", "fock", "table1", "iso", "all")

#: gamma-bilinear recipe cells known to disagree with the closed family;
#: reported as WARN, not FAIL
DOCUMENTED_TABLE1 = {
    "L1": "recipe (-i/2) g0 is i times the oscillator matrix (-1/2) g0",
    "S2": "recipe (i/2) g1 g2 is minus the closed-family S2",
}

SIMULATE_COLUMNS = ("transform", "eta", "temperature", "purity", "entropy",
                    "area1", "area2", "area_product", "canonical", "subvacuum")
TABLE_COLUMNS = ("eta", "T", "purity", "entropy_series", "entropy_gaussian",
                 "radius", "max_discrepancy")
#: the widest residual a double prints (-2.2250738585072014e-308), so that
#: one changed residual rewrites one row of ``verify --format text``
_RESIDUAL_WIDTH = 24


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


class _UnwritableOut(Exception):
    """An --out path that cannot be written: a bad argument, exit 2."""


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise _UnwritableOut(f"cannot write --out {out}: {exc.strerror or exc}") from None
    else:
        print(text, flush=True)  # a closed pipe raises here, inside main's handlers


def _rows_text(rows: List[Dict], columns: Sequence[str]) -> str:
    cells = [[_fmt(r.get(c)) for c in columns] for r in rows]
    widths = [max(len(c), _RESIDUAL_WIDTH if c == "residual" else 0,
                  *(len(row[i]) for row in cells)) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _rows_csv(rows: List[Dict], columns: Sequence[str]) -> str:
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join(_fmt(r.get(c)) for c in columns))
    return "\n".join(lines)


def _emit_rows(command: str, rows: List[Dict], columns: Sequence[str],
               args: argparse.Namespace) -> None:
    if args.format == "json":
        _emit(json.dumps({"command": command, "rows": rows}, indent=2), args.out)
    else:
        render = _rows_csv if args.format == "csv" else _rows_text
        _emit(render(rows, columns), args.out)


# ---------------------------------------------------------------------------
# verify

def _check_row(name: str, residual: float, tolerance: float,
               warn: bool = False) -> Dict:
    if warn:
        status = "WARN"
    else:
        status = "PASS" if residual <= tolerance else "FAIL"
    return {"name": name, "residual": float(residual), "status": status}


#: suite -> (family, name of the expected table in algebra, row name, WARN notes)
TABLE_SUITES = {
    "sp4": ("sp4_4", "alge11_table", "sp4:ten-generator-table", ()),
    "o32": ("o32_5", "alge11_table", "o32:ten-generator-table", ()),
    "sl4r": ("sl4r_4", "o33gen_table", "sl4r:fifteen-generator-table", (
        "sl4r:S2 sign opposite to the (i/2) g1 g2 bilinear (required for closure)",)),
    "o33": ("o33_6", "o33gen_table", "o33:fifteen-generator-table", (
        "o33gen:[G,G] row read as -i eps L (third slot of the printed row is a "
        "duplicate)",)),
}


def _suite_table(suite: str, tol: float, nmax: int) -> List[Dict]:
    from . import algebra, families
    family, table, name, notes = TABLE_SUITES[suite]
    rep = algebra.verify_algebra(families.build_generator_set(family),
                                 getattr(algebra, table)(), tol)
    return ([_check_row(name, rep.max_residual, tol)]
            + [_check_row(note, 0.0, tol, warn=True) for note in notes])


def _suite_sp2(tol: float, nmax: int) -> List[Dict]:
    from . import algebra, families
    sp4 = families.build_generator_set("sp4_4")
    rows = []
    for x, y, z in algebra.SP2_TRIPLES:
        rep = algebra.verify_algebra(sp4, algebra.sp2_table(x, y, z), tol)
        rows.append(_check_row(f"sp2:({x},{y},{z})", rep.max_residual, tol))
    rows.append(_check_row(
        "sp2:[S3,Q2] read as -iK2 (not -iQ3, which is outside the triple)",
        0.0, tol, warn=True))
    return rows


def _suite_fock(tol: float, nmax: int) -> List[Dict]:
    from . import fock
    rep = fock.verify_fock_commutators(nmax, tol)
    return [_check_row(f"fock:ten-generator-table(nmax={nmax},safe-subspace)",
                       rep.max_residual, tol)]


def _suite_table1(tol: float, nmax: int) -> List[Dict]:
    from . import algebra
    report = algebra.table1_correspondence(tol)
    rows = []
    for label, entry in report.entries.items():
        if entry.status == "EXACT":
            rows.append(_check_row(f"table1:{label} EXACT", entry.deviation, tol))
        elif label in DOCUMENTED_TABLE1:
            ratio = "" if entry.ratio is None else f" ratio {entry.ratio:.3g}"
            rows.append(_check_row(
                f"table1:{label} {entry.status}{ratio} -- {DOCUMENTED_TABLE1[label]}",
                entry.deviation, tol, warn=True))
        else:
            rows.append(_check_row(
                f"table1:{label} unexpected {entry.status}", entry.deviation, tol))
    return rows


def _suite_iso(tol: float, nmax: int) -> List[Dict]:
    from . import algebra, families
    rows = []
    for fam_a, fam_b in (("sl4r_4", "o33_6"), ("sp4_4", "o32_5")):
        rep = algebra.check_isomorphism(
            families.build_generator_set(fam_a),
            families.build_generator_set(fam_b), tol)
        residual = max(rep.max_deviation, rep.closure_a, rep.closure_b)
        rows.append(_check_row(f"iso:{fam_a}~{fam_b}", residual, tol))
    return rows


def _clifford_rows(tol: float) -> List[Dict]:
    import numpy as np

    from . import families
    g = families.build_generator_set("dirac_gamma").block  # g1, g2, g3, g0, g5, bilinears
    anti = g[:5, None] @ g[None, :5] + g[None, :5] @ g[:5, None]  # anti[a, b] = {g_a, g_b}
    metric = np.diag([-1.0, -1.0, -1.0, 1.0])[:, :, None, None]
    clifford, g5, trace, real = (float(np.abs(r).max()) for r in (
        anti[:4, :4] - 2.0 * metric * np.eye(4), anti[4, :4],
        np.trace(g, axis1=1, axis2=2), g.real))
    return [
        _check_row("dirac:clifford {g_mu,g_nu}=2g I", clifford, tol),
        _check_row("dirac:g5 anticommutes with g_mu", g5, tol),
        _check_row("dirac:traceless and purely imaginary", max(trace, real), tol),
    ]


_SUITE_RUNNERS = {
    **{suite: partial(_suite_table, suite) for suite in TABLE_SUITES},
    "sp2": _suite_sp2,
    "fock": _suite_fock,
    "table1": _suite_table1,
    "iso": _suite_iso,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    tol = args.tolerance
    rows: List[Dict] = []
    if args.suite == "all":
        for name in ("sp4", "o32", "fock", "sl4r", "o33", "sp2", "table1", "iso"):
            rows.extend(_SUITE_RUNNERS[name](tol, args.nmax))
        rows.extend(_clifford_rows(tol))
    else:
        rows.extend(_SUITE_RUNNERS[args.suite](tol, args.nmax))

    payload = {"suite": args.suite, "results": rows}
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    elif args.format == "csv":
        _emit(_rows_csv(rows, ("name", "residual", "status")), args.out)
    else:
        n_pass = sum(r["status"] == "PASS" for r in rows)
        n_warn = sum(r["status"] == "WARN" for r in rows)
        n_fail = sum(r["status"] == "FAIL" for r in rows)
        body = _rows_text(rows, ("status", "residual", "name"))
        summary = f"{len(rows)} checks: {n_pass} PASS, {n_warn} WARN, {n_fail} FAIL"
        _emit(body + "\n" + summary, args.out)
    return 1 if any(r["status"] == "FAIL" for r in rows) else 0


# ---------------------------------------------------------------------------
# simulate

def _temperature(eta: float) -> float:
    """The thermal temperature matching eta; eta <= 0 maps to T = 0."""
    return ps.temperature_from_eta(eta) if eta > 0 else 0.0


def _resolve_eta_temperature(args, parser) -> Tuple[float, float]:
    if (args.eta is None) == (args.temperature is None):
        parser.error("exactly one of --eta or --temperature is required")
    if args.eta is not None:
        try:
            return args.eta, _temperature(args.eta)
        except ValueError as exc:
            parser.error(str(exc))
    if args.temperature <= 0:
        parser.error("--temperature must be > 0")
    return ps.eta_from_temperature(args.temperature), args.temperature


def _cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    eta, temperature = _resolve_eta_temperature(args, parser)
    if args.couple:
        name = "couple"
        m = ps.coupling_transform(eta)
    else:
        try:
            m = ps.generator_to_transform(args.generator, eta)
        except ValueError as exc:
            parser.error(str(exc))
        name = args.generator
    try:
        state = ps.evolve(ps.vacuum_state(), m)
        block = ps.reduce_oscillator(state, 1)
        purity = ps.gaussian_purity(block)
        try:
            entropy, subvacuum = ps.gaussian_entropy(block), False
        except ps.SubVacuumError:
            entropy, subvacuum = None, True
        a1, a2 = ps.areas(state)
    except ValueError as exc:
        parser.error(f"at eta = {eta:g} double precision cannot check the transformed "
                     f"covariance ({exc})")
    row = {
        "transform": name,
        "eta": float(eta),
        "temperature": float(temperature),
        "purity": purity,
        "entropy": entropy,
        "area1": a1,
        "area2": a2,
        "area_product": a1 * a2,
        "canonical": ps.is_canonical(m),
        "subvacuum": subvacuum,
    }
    _emit_rows("simulate", [row], SIMULATE_COLUMNS, args)
    return 0


# ---------------------------------------------------------------------------
# table

def _parse_grid(text: str, parser: argparse.ArgumentParser) -> List[float]:
    import numpy as np

    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        parser.error(f"--eta-grid must be LO:HI:STEP, got {text!r}")
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo or lo < 0:
        parser.error(f"empty or invalid grid {text!r}")
    count = np.floor((hi - lo) / step + 1e-9) + 1
    try:
        return (lo + step * np.arange(int(count))).tolist()
    except (OverflowError, ValueError, MemoryError) as exc:  # more points than numpy holds
        parser.error(f"grid {text!r} has {count:.3g} points: {exc}")


def _cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import numpy as np

    from . import fock

    grid = _parse_grid(args.eta_grid, parser)
    if args.kmax > ps.MAX_KMAX:
        parser.error(f"--kmax must be at most {ps.MAX_KMAX}")
    # --kmax is a floor; deep squeezes get enough terms for the series tail
    # to clear the dual-route tolerance.  Every row's count is checked
    # before any series is summed.
    try:
        kmaxes = [max(args.kmax, fock.kmax_for_tail(eta)) for eta in grid]
    except ValueError as exc:
        parser.error(str(exc))
    rows = []
    for eta, kmax in zip(grid, kmaxes):
        m = fock.moments(eta, kmax)
        temperature = _temperature(eta)
        radius = fock.wigner_radius(temperature)
        entropy_t = fock.ThermalState(temperature).entropy()
        state = ps.evolve(ps.vacuum_state(), ps.coupling_transform(eta))
        cov1 = ps.reduce_oscillator(state, 1)
        purity_g = ps.gaussian_purity(cov1)
        entropy_g = ps.gaussian_entropy(cov1)
        closed = ps.occupation_entropy(np.sinh(eta) ** 2)
        discrepancy = max(
            abs(m.entropy - entropy_g),
            abs(m.entropy - closed),
            abs(m.entropy - entropy_t),
            abs(m.purity - purity_g),
            abs(m.purity - 1.0 / np.cosh(2 * eta)),
            abs(radius - np.sqrt(np.cosh(2 * eta))),
        )
        rows.append({
            "eta": eta,
            "T": temperature,
            "purity": m.purity,
            "entropy_series": m.entropy,
            "entropy_gaussian": entropy_g,
            "radius": radius,
            "max_discrepancy": float(discrepancy),
        })
    _emit_rows("table", rows, TABLE_COLUMNS, args)
    return 0


# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscsym",
        description="Verify the coupled-oscillator generator algebras and "
                    "simulate the Gaussian phase space.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run a verification suite; exit 0 iff everything passes")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--tolerance", type=_finite_float,
                          default=ps.DEFAULT_TOLERANCE)
    p_verify.add_argument("--nmax", type=int, default=8,
                          help=f"Fock truncation for the fock suite, "
                               f"{ps.MIN_NMAX}..{ps.MAX_NMAX}")

    p_sim = sub.add_parser(
        "simulate", help="apply one transform to the vacuum and report "
                         "purity, entropy, areas and canonicality")
    mode = p_sim.add_mutually_exclusive_group(required=True)
    mode.add_argument("--generator", default=None, metavar="LABEL",
                      help="single-generator flow, e.g. G3 or K2")
    mode.add_argument("--couple", action="store_true",
                      help="the oscillator-coupling rotation+squeeze")
    p_sim.add_argument("--eta", type=_finite_float, default=None)
    p_sim.add_argument("--temperature", type=_finite_float, default=None)

    p_table = sub.add_parser(
        "table", help="sweep eta: purity, entropies, temperature, radius "
                      "and the dual-route discrepancy per row")
    p_table.add_argument("--eta-grid", required=True, metavar="LO:HI:STEP")
    p_table.add_argument("--kmax", type=int, default=200,
                         help="series truncation floor (raised per row when "
                              "the geometric tail needs more terms), at most "
                              f"{ps.MAX_KMAX}")
    for p, default in ((p_verify, "text"), (p_sim, "text"), (p_table, "csv")):
        p.add_argument("--format", choices=("text", "json", "csv"), default=default)
        p.add_argument("--out", default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            if args.tolerance <= 0:
                parser.error("--tolerance must be > 0")
            if args.suite in ("fock", "all") and not (
                    ps.MIN_NMAX <= args.nmax <= ps.MAX_NMAX):
                parser.error(f"--nmax must be in [{ps.MIN_NMAX}, {ps.MAX_NMAX}] "
                             f"for the fock suite")
            return _cmd_verify(args)
        if args.command == "simulate":
            # an overflow anywhere in the pipeline (math.exp, a det past the
            # largest double) is a bad --eta, not an internal error
            try:
                return _cmd_simulate(args, parser)
            except OverflowError as exc:
                parser.error(f"the simulate transform overflows a double ({exc})")
        return _cmd_table(args, parser)
    except _UnwritableOut as exc:  # a bad argument, but without the usage lines
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the exit flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:  # the CLI boundary: exit 3, never a traceback
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"{parser.prog}: internal error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
