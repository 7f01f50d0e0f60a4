"""Command-line front end: solve | sweep | spectrum | wavefunction.

All commands write CSV (or JSON where supported) to standard output with a
fixed field order, LF line endings and 17-significant-digit floats, so a
given invocation is byte-reproducible. Exit codes: 0 success, 1 standard
output closed early (quietly, no traceback), 2 bad input (with a
machine-readable {"code", "message"} JSON payload), 3 empty result or
missing branch.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NoPhysicalSolution, QesError, ValidationError
from .models import ModelKind, ModelSpec, squeeze_factor, validate
from .oracle import default_n_max, match_energy, parity_spectrum, require_n_max
from .records import (
    SPECTRUM_COLUMNS,
    SWEEP_COLUMNS,
    WAVEFUNCTION_COLUMNS,
    build_record,
    fmt,
    json_dumps,
    record_csv_row,
)
from .solver import Branch, second_component, solve_qes, wavefunction_eval

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3


def _fail(exc: Exception) -> int:
    sys.stdout.write(json_dumps({"code": type(exc).__name__, "message": str(exc)}) + "\n")
    return EXIT_INPUT


def _parse_sector(text: str | None) -> Fraction | None:
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse sector {text!r}") from exc


def _parse_range(text: str, name: str) -> np.ndarray:
    try:
        a_s, b_s, steps_s = text.split(":")
        a, b, steps = float(a_s), float(b_s), int(steps_s)
    except ValueError as exc:
        raise ValidationError(f"{name} must be 'a:b:steps', got {text!r}") from exc
    if steps < 2:
        raise ValidationError(f"{name} needs steps >= 2, got {steps}")
    return np.linspace(a, b, steps)


def _make_spec(args, g: float, delta: float | None = None) -> ModelSpec:
    return ModelSpec(
        kind=ModelKind(args.model),
        omega=args.omega,
        g=float(g),
        delta=delta,
        sector=_parse_sector(args.sector),
    )


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _emit_records(args, header_extra: dict, records: list[dict]) -> None:
    include_rejected = args.include_rejected
    shown = [r for r in records if include_rejected or r["reject_reason"] is None]
    if args.format == "json":
        payload = {"command": args.command, "model": args.model,
                   "sector": args.sector or None, "degree": args.degree,
                   "omega": args.omega}
        payload.update(header_extra)
        payload["records"] = shown
        sys.stdout.write(json_dumps(payload) + "\n")
        return
    writer = _csv_writer()
    writer.writerow(list(SWEEP_COLUMNS) + (["reject_reason"] if include_rejected else []))
    for rec in shown:
        writer.writerow(record_csv_row(rec, include_rejected))


def _point_records(spec: ModelSpec, degree: int,
                   n_max: int | None, tol: float) -> list[dict]:
    try:
        solutions = solve_qes(spec, degree)
    except NoPhysicalSolution:
        return []
    records = []
    for sol in solutions:
        oracle = None
        if n_max is not None and sol.branch is Branch.NONTRIVIAL:
            result = match_energy(sol.energy, sol.spec, n_max, tol)
            oracle = {"n_max": n_max, "gap": result.gap, "drift": result.truncation_drift,
                      "matched": result.matched}
        records.append(build_record(sol, oracle=oracle))
    return records


def cmd_solve(args) -> int:
    spec = validate(_make_spec(args, args.g))
    records = _point_records(spec, args.degree, None, 0.0)
    _emit_records(args, {"g": args.g}, records)
    nontrivial = [r for r in records
                  if r["branch"] == Branch.NONTRIVIAL.value and r["reject_reason"] is None]
    return EXIT_OK if nontrivial else EXIT_EMPTY


def cmd_sweep(args) -> int:
    grid = _parse_range(args.g_range, "--g-range")
    specs = [validate(_make_spec(args, g)) for g in grid]
    nm = None
    if args.verify:
        nm = args.nmax if args.nmax is not None else default_n_max(ModelKind(args.model))
        require_n_max(nm)
    records = [rec for spec in specs for rec in _point_records(
        spec, args.degree, nm, args.tol)]
    records.sort(key=lambda r: (r["g"], r["degree"], r["delta_squared"]))
    _emit_records(args, {
        "grid": {"g_min": float(grid[0]), "g_max": float(grid[-1]), "steps": len(grid)},
        "verify": bool(args.verify),
        "n_max": nm,
        "tol": args.tol if args.verify else None,
    }, records)
    nontrivial = [r for r in records
                  if r["branch"] == Branch.NONTRIVIAL.value and r["reject_reason"] is None]
    return EXIT_OK if nontrivial else EXIT_EMPTY


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

    rows = []
    for g in grid:
        spec = validate(_make_spec(args, g, args.delta), require_coupling=False)
        for idx, energy in enumerate(parity_spectrum(spec, n_max)[:levels]):
            rows.append((float(g), idx, float(energy)))

    writer = _csv_writer()
    writer.writerow(SPECTRUM_COLUMNS)
    for g, idx, energy in rows:
        writer.writerow([fmt(g), fmt(idx), fmt(energy)])
    return EXIT_OK


def cmd_wavefunction(args) -> int:
    spec = validate(_make_spec(args, args.g))
    zgrid = _parse_range(args.z_range, "--z-range")
    try:
        solutions = solve_qes(spec, args.degree)
    except NoPhysicalSolution:
        solutions = []
    if not 0 <= args.branch < len(solutions):
        sys.stderr.write(
            f"branch {args.branch} out of range: {len(solutions)} branch(es) found\n"
        )
        return EXIT_EMPTY
    sol = solutions[args.branch]

    writer = _csv_writer()
    if sol.branch is Branch.DEGENERATE_ATOM:
        sys.stderr.write(
            "warning: degenerate-atom branch (delta = 0): the lower component "
            "is not defined by the elimination formula; psi_minus omitted\n"
        )
        rate = squeeze_factor(sol.spec).prefactor_rate
        values = np.exp(-rate * zgrid) * npoly.polyval(zgrid, sol.coeffs)
        writer.writerow(WAVEFUNCTION_COLUMNS[:3])
        for z, v in zip(zgrid, values.astype(complex)):
            writer.writerow([fmt(float(z)), fmt(v.real), fmt(v.imag)])
        return EXIT_OK

    wf = second_component(sol)
    table = wavefunction_eval(wf, zgrid)
    writer.writerow(WAVEFUNCTION_COLUMNS)
    for i, z in enumerate(zgrid):
        writer.writerow([fmt(float(z)),
                         fmt(table[0, i].real), fmt(table[0, i].imag),
                         fmt(table[1, i].real), fmt(table[1, i].imag)])
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "spectrum": cmd_spectrum,
        "wavefunction": cmd_wavefunction,
    }[args.command]
    try:
        try:
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
