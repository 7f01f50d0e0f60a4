"""Command-line front end: solve | sweep | spectrum | wavefunction.

All commands write CSV (or JSON where supported) to standard output in the
format ``records`` owns, a chunk of rows at a time, so a given invocation
is byte-reproducible and a closed pipe is noticed at the next chunk. Exit
codes: 0 success, 1 standard output closed early (quietly, no traceback),
2 bad input (with a machine-readable {"code", "message"} JSON payload), 3
empty result or missing branch.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import QesError, ValidationError
from .models import ModelKind, ModelSpec, frame, validate
from .oracle import (
    default_n_max,
    match_grid,
    parity_spectrum,
    require_n_max,
    require_tol,
)
from .records import (
    SPECTRUM_COLUMNS,
    SWEEP_COLUMNS,
    WAVEFUNCTION_COLUMNS,
    build_record,
    csv_lines,
    json_dumps,
    record_csv_row,
)
from .solver import Branch, second_component, solve_grid, solve_qes, wavefunction_eval

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3

MAX_GRID_STEPS = 10**6  # points of a --g-range or --z-range grid


def _fail(exc: Exception) -> int:
    sys.stdout.write(json_dumps({"code": type(exc).__name__, "message": str(exc)}) + "\n")
    return EXIT_INPUT


def _parse_sector(text: str | None) -> Fraction | None:
    if text is None:
        return None
    try:
        sector = Fraction(text)
        float(sector)  # the models read it as a double
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse sector {text!r}") from exc
    except OverflowError as exc:
        raise ValidationError(f"sector {text!r} is beyond the double range") from exc
    return sector


def _parse_range(text: str, name: str) -> np.ndarray:
    try:
        a_s, b_s, steps_s = text.split(":")
        a, b, steps = float(a_s), float(b_s), int(steps_s)
    except ValueError as exc:
        raise ValidationError(f"{name} must be 'a:b:steps', got {text!r}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(f"{name} needs finite endpoints, got {text!r}")
    if not math.isfinite(b - a):  # linspace steps through the span
        raise ValidationError(f"{name} needs a finite span b - a, got {text!r}")
    if steps < 2:
        raise ValidationError(f"{name} needs steps >= 2, got {steps}")
    if steps > MAX_GRID_STEPS:
        raise ValidationError(f"{name} needs steps <= {MAX_GRID_STEPS}, got {steps}")
    return np.linspace(a, b, steps)


def _make_spec(args, sector: Fraction | None, g: float, delta: float | None = None) -> ModelSpec:
    """The spec of one point; ``sector`` is ``args.sector``, parsed once per command."""
    return ModelSpec(
        kind=ModelKind(args.model),
        omega=args.omega,
        g=float(g),
        delta=delta,
        sector=sector,
    )


def _write_floats(header, *columns: np.ndarray) -> None:
    sys.stdout.writelines(csv_lines(header, np.column_stack(columns)))


def _emit_records(args, sector: Fraction | None, header_extra: dict,
                  records: list[dict]) -> None:
    include_rejected = args.include_rejected
    shown = [r for r in records if include_rejected or r["reject_reason"] is None]
    if args.format == "json":
        payload = {"command": args.command, "model": args.model,
                   "sector": None if sector is None else str(sector),
                   "degree": args.degree, "omega": args.omega}
        payload.update(header_extra)
        payload["records"] = shown
        sys.stdout.write(json_dumps(payload) + "\n")
        return
    sys.stdout.writelines(csv_lines(
        SWEEP_COLUMNS + (("reject_reason",) if include_rejected else ()),
        [record_csv_row(rec, include_rejected) for rec in shown]))


def _records_exit(records: list[dict]) -> int:
    """EXIT_OK when some record is accepted (a degenerate-atom branch never
    is), else EXIT_EMPTY."""
    return EXIT_OK if any(r["reject_reason"] is None for r in records) else EXIT_EMPTY


def cmd_solve(args) -> int:
    sector = _parse_sector(args.sector)
    spec = validate(_make_spec(args, sector, args.g))
    records = [build_record(sol) for sol in solve_qes(spec, args.degree)]
    _emit_records(args, sector, {"g": args.g}, records)
    return _records_exit(records)


def cmd_sweep(args) -> int:
    grid = _parse_range(args.g_range, "--g-range")
    sector = _parse_sector(args.sector)
    specs = [validate(_make_spec(args, sector, g)) for g in grid]
    nm = None
    if args.verify:
        nm = args.nmax if args.nmax is not None else default_n_max(ModelKind(args.model))
        require_n_max(nm)
        require_tol(args.tol)
    solved = solve_grid(specs, args.degree)
    # The whole grid is solved before any oracle runs, so a solve error at a
    # later point is raised before an oracle error at an earlier one.
    matches = (match_grid(solved, nm, args.tol) if args.verify
               else [[None] * len(solutions) for solutions in solved])
    records = [build_record(sol, oracle=None if m is None else {
        "n_max": nm, "gap": m.gap, "drift": m.truncation_drift, "matched": m.matched})
        for solutions, results in zip(solved, matches) for sol, m in zip(solutions, results)]
    records.sort(key=lambda r: (r["g"], r["degree"], r["delta_squared"]))
    _emit_records(args, sector, {
        "grid": {"g_min": float(grid[0]), "g_max": float(grid[-1]), "steps": len(grid)},
        "verify": bool(args.verify),
        "n_max": nm,
        "tol": args.tol if args.verify else None,
    }, records)
    return _records_exit(records)


def cmd_spectrum(args) -> int:
    grid = _parse_range(args.g_range, "--g-range")
    n_max = args.nmax if args.nmax is not None else default_n_max(ModelKind(args.model))
    require_n_max(n_max)  # before the --levels clamp, which reads n_max
    dim = 2 * (n_max + 1)
    levels = args.levels
    if levels > dim:
        sys.stderr.write(f"warning: --levels {levels} exceeds dimension {dim}; clamped\n")
        levels = dim
    if levels < 1:
        raise ValidationError(f"--levels must be >= 1, got {args.levels}")

    sector = _parse_sector(args.sector)
    energies = np.array([  # (grid x levels)
        parity_spectrum(_make_spec(args, sector, g, args.delta), n_max, levels) for g in grid])
    _write_floats(SPECTRUM_COLUMNS, np.repeat(grid, levels),
                  np.tile(np.arange(levels), len(grid)), energies.ravel())
    return EXIT_OK


def cmd_wavefunction(args) -> int:
    spec = validate(_make_spec(args, _parse_sector(args.sector), args.g))
    zgrid = _parse_range(args.z_range, "--z-range")
    solutions = solve_qes(spec, args.degree)
    if not 0 <= args.branch < len(solutions):
        sys.stderr.write(
            f"branch {args.branch} out of range: {len(solutions)} branch(es) found\n"
        )
        return EXIT_EMPTY
    sol = solutions[args.branch]

    if sol.branch is Branch.DEGENERATE_ATOM:
        sys.stderr.write(
            "warning: degenerate-atom branch (delta = 0): the lower component "
            "is not defined by the elimination formula; psi_minus omitted\n"
        )
        rate = frame(sol.spec).prefactor_rate
        values = np.exp(-rate * zgrid) * npoly.polyval(zgrid, sol.coeffs)
        _write_floats(WAVEFUNCTION_COLUMNS[:3], zgrid, values.real, values.imag)
        return EXIT_OK
    if sol.reject_reason is not None:
        sys.stderr.write(f"warning: branch {args.branch} is rejected "
                         f"({sol.reject_reason}): its state is written unchecked\n")

    plus, minus = wavefunction_eval(second_component(sol), zgrid)
    _write_floats(WAVEFUNCTION_COLUMNS, zgrid, plus.real, plus.imag, minus.real, minus.imag)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors become a ValidationError, so they get the exit-2 payload."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qes-rabi",
        description="Quasi-exact (Juddian) spectra of the Rabi model and its "
                    "2-photon and two-mode generalizations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_g=False, need_degree=False):
        p.add_argument("--model", required=True,
                       choices=[k.value for k in ModelKind])
        p.add_argument("--sector", default=None,
                       help="sector index as a rational, e.g. 1/4 or 3/2")
        p.add_argument("--omega", type=float, default=1.0)
        if need_g:
            p.add_argument("--g", type=float, required=True)
        if need_degree:
            p.add_argument("--degree", type=int, default=1)

    p = sub.add_parser("solve", help="all delta^2 branches at one coupling")
    common(p, need_g=True, need_degree=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--include-rejected", action="store_true")

    p = sub.add_parser("sweep", help="trace constraint curves over a coupling grid")
    common(p, need_degree=True)
    p.add_argument("--g-range", required=True, metavar="A:B:STEPS")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--verify", action="store_true",
                   help="attach truncated-basis oracle gap/drift to each record")
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--include-rejected", action="store_true")

    p = sub.add_parser("spectrum", help="lowest truncated-basis levels over a grid")
    common(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--g-range", required=True, metavar="A:B:STEPS")
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--levels", type=int, default=10)

    p = sub.add_parser("wavefunction", help="sample both spinor components")
    common(p, need_g=True, need_degree=True)
    p.add_argument("--branch", type=int, default=0,
                   help="index into the delta^2-sorted branch list")
    p.add_argument("--z-range", default="-5:5:201", metavar="A:B:STEPS")

    return parser


# Built once per process: main() may run many times in one interpreter.
_PARSER = _build_parser()


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Library warnings as one plain line, like the CLI's own."""
    sys.stderr.write(f"warning: {message}\n")


def main(argv=None) -> int:
    try:
        try:
            args = _PARSER.parse_args(argv)
            handler = {
                "solve": cmd_solve,
                "sweep": cmd_sweep,
                "spectrum": cmd_spectrum,
                "wavefunction": cmd_wavefunction,
            }[args.command]
            with warnings.catch_warnings():
                warnings.showwarning = _show_warning
                code = handler(args)
        except (ValidationError, QesError) as exc:
            code = _fail(exc)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`| head`). Point stdout at devnull
        # so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
