import csv
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from qes_rabi import (
    Branch,
    ModelKind,
    frame,
    parity_spectrum,
    second_component,
    solve_qes,
    wavefunction_eval,
)
from qes_rabi.records import (
    _CHUNK_ROWS,
    _VECTOR_MIN_FIELDS,
    FLOAT,
    build_record,
    csv_lines,
    json_dumps,
)
from conftest import dense_hamiltonian, make_spec, reference_csv, reference_json

CLI = [sys.executable, "-m", "qes_rabi"]

SWEEP_HEADER = ("model,sector,degree,omega,g,delta,delta_squared,energy,branch,"
                "ode_residual,bae_residual,constraint_residual,oracle_gap,oracle_drift")

RECORD_SCHEMA = {
    "type": "object",
    "required": ["model", "sector", "degree", "omega", "g", "delta",
                 "delta_squared", "energy", "roots", "residuals", "branch",
                 "reject_reason"],
    "properties": {
        "model": {"enum": ["rabi", "two-photon", "two-mode"]},
        "sector": {"type": "string"},
        "degree": {"type": "integer", "minimum": 1},
        "omega": {"type": "number"},
        "g": {"type": "number"},
        "delta": {"type": "number", "minimum": 0},
        "delta_squared": {"type": "number", "minimum": 0},
        "energy": {"type": "number"},
        "roots": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"},
                      "minItems": 2, "maxItems": 2},
        },
        "residuals": {
            "type": "object",
            "required": ["ode", "bae", "constraint"],
            "properties": {
                "ode": {"type": "number"},
                "bae": {"type": ["number", "null"]},
                "constraint": {"type": "number"},
            },
        },
        "branch": {"enum": ["nontrivial", "degenerate-atom"]},
        "reject_reason": {"type": ["string", "null"]},
    },
}

SOLVE_SCHEMA = {
    "type": "object",
    "required": ["command", "model", "sector", "degree", "omega", "g", "records"],
    "properties": {
        "command": {"const": "solve"},
        "records": {"type": "array", "items": RECORD_SCHEMA},
    },
}

SWEEP_SCHEMA = {
    "type": "object",
    "required": ["command", "model", "sector", "degree", "omega", "grid",
                 "verify", "n_max", "tol", "records"],
    "properties": {
        "command": {"const": "sweep"},
        "grid": {
            "type": "object",
            "required": ["g_min", "g_max", "steps"],
        },
        "records": {"type": "array", "items": RECORD_SCHEMA},
    },
}


def run(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestSolve:
    def test_json_example_values(self):
        proc = run("solve", "--model", "rabi", "--degree", "1", "--omega", "1",
                   "--g", "0.3", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(payload, SOLVE_SCHEMA)
        (rec,) = payload["records"]
        assert rec["branch"] == "nontrivial"
        assert abs(rec["delta_squared"] - 0.64) <= 1e-12
        assert abs(rec["energy"] - 0.91) <= 1e-15
        assert abs(rec["roots"][0][0] + 41.0 / 30.0) <= 1e-12

    def test_csv_header_and_row(self):
        proc = run("solve", "--model", "two-mode", "--sector", "1/2",
                   "--degree", "1", "--g", "0.6")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert ",".join(header) == SWEEP_HEADER
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert abs(float(row["delta_squared"]) - 1.12) <= 1e-12
        assert abs(float(row["energy"]) - 1.4) <= 1e-12
        assert row["oracle_gap"] == "" and row["oracle_drift"] == ""

    def test_coupling_error_is_machine_readable(self):
        proc = run("solve", "--model", "two-photon", "--sector", "1/4",
                   "--degree", "1", "--g", "0.6")
        assert proc.returncode == 2
        err = json.loads(proc.stdout)
        assert err["code"] == "CouplingOutOfRange"
        assert "message" in err

    def test_zero_coupling_exit(self):
        proc = run("solve", "--model", "rabi", "--degree", "1", "--g", "0")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["code"] == "ZeroCoupling"

    def test_bad_sector_exit(self):
        proc = run("solve", "--model", "two-mode", "--sector", "2/3",
                   "--degree", "1", "--g", "0.5")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["code"] == "BadSector"

    def test_no_nontrivial_branch_exits_3(self):
        # Beyond the degree-1 existence threshold only the degenerate
        # branch survives.
        proc = run("solve", "--model", "two-photon", "--sector", "1/4",
                   "--degree", "1", "--g", "0.42")
        assert proc.returncode == 3
        header, rows = parse_csv(proc.stdout)
        assert rows == []

    def test_include_rejected_shows_degenerate_branch(self):
        proc = run("solve", "--model", "rabi", "--degree", "1", "--g", "0.3",
                   "--include-rejected")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header[-1] == "reject_reason"
        branches = [dict(zip(header, r)) for r in rows]
        degen = [b for b in branches if b["branch"] == "degenerate-atom"]
        assert len(degen) == 1
        assert degen[0]["reject_reason"] == "degenerate-atom"

    def test_round_trip_parses_bit_exactly(self):
        proc = run("solve", "--model", "two-photon", "--sector", "3/4",
                   "--degree", "2", "--g", "0.2", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        # the parsed floats must equal the solver's values bit for bit
        from fractions import Fraction
        from qes_rabi import Branch, ModelKind, ModelSpec, solve_qes
        sols = [s for s in solve_qes(
            ModelSpec(ModelKind.TWO_PHOTON, 1.0, 0.2, sector=Fraction(3, 4)), 2)
            if s.branch is Branch.NONTRIVIAL]
        assert len(payload["records"]) == len(sols)
        for rec, sol in zip(payload["records"], sols):
            assert rec["delta_squared"] == sol.delta_squared
            assert rec["energy"] == sol.energy
            assert rec["delta"] == sol.spec.delta
            for pair, root in zip(rec["roots"], sol.roots):
                assert pair[0] == root.real and pair[1] == root.imag


class TestSweep:
    def test_degree_one_constraint_curve(self):
        proc = run("sweep", "--model", "rabi", "--degree", "1",
                   "--g-range", "0.05:0.45:9")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert ",".join(header) == SWEEP_HEADER
        assert len(rows) == 9
        for row in rows:
            rec = dict(zip(header, row))
            g = float(rec["g"])
            assert abs(float(rec["delta"]) - math.sqrt(1 - 4 * g * g)) <= 1e-10

    @pytest.mark.parametrize("model", [["rabi"], ["two-photon", "--sector", "1/4"],
                                       ["two-photon", "--sector", "3/4"],
                                       ["two-mode", "--sector", "1/2"],
                                       ["two-mode", "--sector", "1"]])
    def test_rows_are_the_solve_rows_at_each_g(self, model, capsys):
        # The sweep solves its grid in one pass; its data rows are byte for
        # byte those of one solve per grid point.
        from qes_rabi import cli

        common = ["--model", *model, "--degree", "4", "--include-rejected"]
        assert cli.main(["sweep", *common, "--g-range", "0.1:0.4:5"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        solved = []
        for g in np.linspace(0.1, 0.4, 5):
            assert cli.main(["solve", *common, "--g", repr(float(g))]) == 0
            solve_header, *solve_rows = capsys.readouterr().out.splitlines()
            assert solve_header == header
            solved += solve_rows
        assert rows == solved

    def test_byte_determinism(self):
        args = ("sweep", "--model", "two-mode", "--sector", "1/2", "--degree", "2",
                "--g-range", "0.1:0.6:6", "--format", "json")
        a, b = run(*args), run(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(json.loads(a.stdout), SWEEP_SCHEMA)

    @pytest.mark.parametrize("command,where", [("solve", ("--g", "0.3")),
                                               ("sweep", ("--g-range", "0.1:0.3:3"))])
    def test_json_header_sector_is_canonical(self, command, where):
        # The header carries the records' label, not the --sector text.
        proc = run(command, "--model", "two-mode", "--sector", "0.5", "--degree", "1",
                   *where, "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["sector"] == "1/2"
        assert {r["sector"] for r in payload["records"]} == {"1/2"}
        rabi = run(command, "--model", "rabi", "--degree", "1", *where, "--format", "json")
        assert json.loads(rabi.stdout)["sector"] is None

    def test_header_n_max_null_without_verify(self):
        proc = run("sweep", "--model", "rabi", "--degree", "1", "--g-range",
                   "0.1:0.3:3", "--nmax", "2", "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n_max"] is None

    def test_line_endings_are_lf(self):
        proc = subprocess.run(
            CLI + ["sweep", "--model", "rabi", "--degree", "1",
                   "--g-range", "0.1:0.3:3"],
            capture_output=True)
        assert proc.returncode == 0
        assert b"\r" not in proc.stdout
        assert proc.stdout.endswith(b"\n")

    def test_verify_attaches_oracle_gaps(self):
        proc = run("sweep", "--model", "rabi", "--degree", "1",
                   "--g-range", "0.1:0.4:4", "--verify", "--tol", "1e-8")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert len(rows) == 4
        for row in rows:
            rec = dict(zip(header, row))
            assert float(rec["oracle_gap"]) <= 1e-8
            assert float(rec["oracle_drift"]) <= 1e-9

    def test_empty_sweep_exits_3(self):
        proc = run("sweep", "--model", "two-photon", "--sector", "3/4",
                   "--degree", "1", "--g-range", "0.35:0.4:3")
        assert proc.returncode == 3
        header, rows = parse_csv(proc.stdout)
        assert rows == []

    def test_rows_sorted(self):
        proc = run("sweep", "--model", "rabi", "--degree", "3",
                   "--g-range", "0.1:0.4:4")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        keys = [(float(r[4]), int(r[2]), float(r[6])) for r in rows]
        assert keys == sorted(keys)

    def test_range_outside_domain_exits_2(self):
        proc = run("sweep", "--model", "two-mode", "--sector", "1/2",
                   "--degree", "1", "--g-range", "0.5:1.2:8")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["code"] == "CouplingOutOfRange"

    def test_bad_range_syntax(self):
        proc = run("sweep", "--model", "rabi", "--degree", "1",
                   "--g-range", "0.1:0.4")
        assert proc.returncode == 2

    def test_unusable_branch_does_not_abort(self):
        # Some M = 70 pencil eigenvectors have a zero leading coefficient
        # near g = 0: those candidates are dropped with one warning per
        # point, and every other record is written.
        proc = run("sweep", "--model", "rabi", "--degree", "70",
                   "--g-range", "0.0005:0.01:5", "--include-rejected")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert len(rows) > 300
        ode = header.index("ode_residual")
        assert all(r[ode] != "nan" for r in rows)
        warned = proc.stderr.splitlines()
        assert len(warned) == 1
        assert warned[0].startswith("warning: dropped ")
        assert "at g=0.0005, degree=70" in warned[0]
        proc = run("solve", "--model", "rabi", "--degree", "70", "--g", "0.001")
        assert proc.returncode == 0
        assert proc.stderr.startswith("warning: dropped ")

    def test_high_degree_solve_leaks_no_numpy_warning(self):
        proc = run("solve", "--model", "rabi", "--degree", "100", "--g", "0.7")
        assert proc.returncode == 3
        assert proc.stderr == ""


# Finite parameters whose pencil, quasi-exact energy or delta^2 leaves the
# double range.
NON_FINITE_PENCILS = [
    ("solve", "--model", "rabi", "--degree", "2", "--g", "1e160"),
    ("solve", "--model", "rabi", "--degree", "2", "--g", "0.3", "--omega", "1e200"),
    ("solve", "--model", "two-mode", "--sector", "1/2", "--degree", "2",
     "--g", "1e-300", "--omega", "2e-300"),
    ("solve", "--model", "two-mode", "--sector", "1/2", "--degree", "2",
     "--g", "0.5e300", "--omega", "1e300"),
    ("solve", "--model", "two-photon", "--sector", "1/4", "--degree", "2", "--g", "1e-320"),
]


# At omega = 1e9, E +/- tol round to the same double: tol opens no window.
TOL_BELOW_SPACING = ("sweep", "--model", "rabi", "--omega", "1e9", "--degree", "2",
                     "--g-range", "3e8:3.03e8:2", "--verify", "--nmax", "16")


@pytest.mark.parametrize("argv", [
    ("solve", "--model", "rabi", "--degree", "0", "--g", "0.3"),
    ("sweep", "--model", "rabi", "--degree", "0", "--g-range", "0.1:0.3:3"),
    ("wavefunction", "--model", "rabi", "--degree", "0", "--g", "0.3"),
    ("sweep", "--model", "rabi", "--degree", "1", "--g-range", "0.1:0.3:3",
     "--verify", "--tol", "0"),
    ("spectrum", "--model", "rabi", "--delta", "0.5", "--g-range", "0.1:0.2:2",
     "--nmax", "3"),
    ("spectrum", "--model", "rabi", "--delta", "0.5", "--g-range", "0.1:0.2:2",
     "--levels", "0"),
    ("spectrum", "--model", "rabi", "--delta", "0.5", "--g-range", "0:0.3:3",
     "--nmax", "-1"),
    ("sweep", "--model", "rabi", "--degree", "1", "--g-range", "0.1:0.3:3",
     "--verify", "--nmax", "3"),
    ("solve", "--model", "rabi", "--degree", "10000000", "--g", "0.3"),
    ("solve", "--model", "rabi", "--degree", "301", "--g", "0.3"),
    ("sweep", "--model", "rabi", "--degree", "1", "--g-range", "0.1:0.3:3",
     "--verify", "--tol", "nan", "--format", "json"),
    ("sweep", "--model", "rabi", "--degree", "1", "--g-range", "0.1:0.3:3",
     "--verify", "--tol", "inf"),
    ("sweep", "--model", "rabi", "--degree", "1", "--g-range", "0.1:0.3:3",
     "--verify", "--tol", "-1"),
    # Budgets, refused before anything is allocated. Past its budget each
    # call would still end fast (coupling out of range, no branch), so a
    # missing check shows as a wrong payload, not as a long run.
    ("sweep", "--model", "rabi", "--degree", "1", "--g-range", "0.6:0.7:2",
     "--verify", "--nmax", "16385"),
    ("spectrum", "--model", "two-photon", "--sector", "1/4", "--delta", "0.5",
     "--g-range", "0.6:0.7:2", "--nmax", "16385", "--levels", "40000"),
    ("sweep", "--model", "two-photon", "--sector", "1/4", "--degree", "1",
     "--g-range", "0.6:0.7:1000001"),
    ("spectrum", "--model", "two-photon", "--sector", "1/4", "--delta", "0.5",
     "--g-range", "0.6:0.7:1000001"),
    ("wavefunction", "--model", "rabi", "--degree", "1", "--g", "0.3", "--branch", "9",
     "--z-range=-1:1:1000001"),
    # Non-finite range endpoints, refused before the grid is built.
    ("wavefunction", "--model", "rabi", "--degree", "1", "--g", "0.3", "--branch", "1",
     "--z-range=nan:1:3"),
    ("spectrum", "--model", "rabi", "--delta", "0.5", "--g-range", "0:inf:2"),
    ("sweep", "--model", "rabi", "--degree", "1", "--g-range", "0.1:inf:2"),
    # Usage errors found by the argument parser itself.
    ("solve", "--model", "rabi", "--g", "0.3", "--degree", "abc"),
    ("solve", "--g", "0.3", "--degree", "1"),
    ("solve", "--model", "rabi", "--g", "0.3", "--format", "xml"),
    # Finite endpoints whose span b - a overflows inside linspace.
    ("wavefunction", "--model", "rabi", "--degree", "2", "--g", "0.3", "--branch", "1",
     "--z-range=-1e308:1e308:3"),
    # A sector beyond the double range.
    ("solve", "--model", "two-mode", "--sector", "1e400", "--degree", "1", "--g", "0.5"),
    ("spectrum", "--model", "two-mode", "--sector", "1e400", "--delta", "0.3",
     "--g-range", "0.1:0.2:2"),
    *NON_FINITE_PENCILS,
    TOL_BELOW_SPACING,
    # g/omega and delta/omega overflow.
    ("spectrum", "--model", "rabi", "--omega", "1e-310", "--delta", "0.5",
     "--g-range", "0.1:0.2:2"),
    # Parity chains, then levels, beyond the double range.
    ("spectrum", "--model", "rabi", "--delta", "1", "--g-range", "5e307:6e307:2"),
    ("spectrum", "--model", "rabi", "--delta", "1", "--g-range", "1e307:2e307:2"),
])
def test_invalid_input_exits_2_with_payload(argv):
    proc = run(*argv)
    assert proc.returncode == 2
    err = json.loads(proc.stdout)
    assert err["code"] == "ValidationError"
    assert err["message"]
    assert "Traceback" not in proc.stderr
    if "--nmax" in argv and argv != TOL_BELOW_SPACING:
        # n_max is checked before --levels is clamped to the dimension.
        assert "n_max" in err["message"]
        assert "clamped" not in proc.stderr
    if "--tol" in argv or argv == TOL_BELOW_SPACING:
        assert "tol" in err["message"]
    if any(a.endswith(":1000001") for a in argv):
        assert "steps <= 1000000" in err["message"]
    if "301" in argv:
        assert "degree must be <= 300" in err["message"]
    if any("nan:" in a or "inf:" in a for a in argv):
        assert "finite endpoints" in err["message"]
        assert proc.stderr == ""
    if "--z-range=-1e308:1e308:3" in argv:
        assert "finite span" in err["message"]
    if "1e-310" in argv:
        assert "g/omega must be finite" in err["message"]
    if "1e400" in argv:
        assert "beyond the double range" in err["message"]
    if "5e307:6e307:2" in argv:
        assert "chains are not finite" in err["message"]
        assert proc.stderr == ""
    if "1e307:2e307:2" in argv:
        assert "spectrum is not finite" in err["message"]
        assert proc.stderr == ""
    if argv in NON_FINITE_PENCILS:
        assert "in double precision" in err["message"]
        assert proc.stderr == ""


class TestSpectrum:
    def test_decoupled_point(self):
        proc = run("spectrum", "--model", "rabi", "--delta", "0.5",
                   "--g-range", "0:0.3:2", "--nmax", "32", "--levels", "4")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert ",".join(header) == "g,level_index,energy"
        at_zero = [float(r[2]) for r in rows if float(r[0]) == 0.0]
        assert at_zero == pytest.approx([-0.5, 0.5, 0.5, 1.5], abs=1e-12)

    def test_level_crosses_juddian_energy(self):
        proc = run("spectrum", "--model", "rabi", "--delta", "0.8",
                   "--g-range", "0.2:0.4:3", "--levels", "6")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        at_g = [float(r[2]) for r in rows if abs(float(r[0]) - 0.3) < 1e-12]
        assert min(abs(e - 0.91) for e in at_g) <= 1e-8

    def test_degenerate_atom_warns_once(self):
        proc = run("spectrum", "--model", "rabi", "--delta", "0", "--g-range",
                   "0.1:0.2:20", "--levels", "2")
        assert proc.returncode == 0
        assert proc.stderr == ("warning: delta = 0: spin components decouple into "
                               "exactly solvable oscillator branches\n")

    def test_large_coupling_levels_are_finite(self):
        # Couplings whose squares overflow double precision; the bisected
        # chain is scaled into range first.
        proc = run("spectrum", "--model", "rabi", "--delta", "1", "--g-range",
                   "1e160:2e160:2", "--nmax", "200", "--levels", "3")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert len(rows) == 2 * 3
        for g in (1e160, 2e160):
            got = np.array([float(r[2]) for r in rows if float(r[0]) == g])
            assert np.isfinite(got).all()
            want = np.linalg.eigvalsh(dense_hamiltonian(make_spec(ModelKind.RABI, g, delta=1.0),
                                                        200))[:3]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_levels_clamped_with_warning(self):
        proc = run("spectrum", "--model", "rabi", "--delta", "0.5",
                   "--g-range", "0.1:0.2:2", "--nmax", "4", "--levels", "99")
        assert proc.returncode == 0
        assert "clamped" in proc.stderr
        header, rows = parse_csv(proc.stdout)
        assert len(rows) == 2 * 10  # dim = 2*(4+1)

    @pytest.mark.parametrize("model,sector,g_range", [
        ("two-photon", "1/4", "0.05:0.3:3"),
        ("two-photon", "3/4", "0.05:0.3:3"),
        ("two-mode", "1/2", "0.1:0.6:3"),
        ("two-mode", "3/2", "0.1:0.6:3"),
    ])
    def test_sector_models_match_dense_matrix(self, model, sector, g_range):
        # 14 levels > n_max + 1 = 9, so both parity chains feed the output.
        n_max, levels, delta = 8, 14, 0.7
        proc = run("spectrum", "--model", model, "--sector", sector,
                   "--delta", str(delta), "--g-range", g_range,
                   "--nmax", str(n_max), "--levels", str(levels))
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        grid = sorted({float(r[0]) for r in rows})
        assert len(grid) == 3 and len(rows) == 3 * levels
        for g in grid:
            got = np.array([float(r[2]) for r in rows if float(r[0]) == g])
            spec = make_spec(ModelKind(model), g, sector=Fraction(sector), delta=delta)
            want = np.linalg.eigvalsh(dense_hamiltonian(spec, n_max))[:levels]
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12


def test_error_payload_with_control_characters_is_json():
    proc = run("solve", "--model", "rabi", "--g", "0.3", "foo\nbar\tbaz")
    assert proc.returncode == 2
    assert proc.stdout.count("\n") == 1
    assert "foo\nbar\tbaz" in json.loads(proc.stdout)["message"]


def test_json_dumps_matches_generic_walk():
    # Real records (roots of float pairs, residual dicts, oracle dicts) and
    # the shapes the writer's shortcuts must pass on to the generic walk.
    sols = solve_qes(make_spec(ModelKind.RABI, 0.3), 3)
    records = [build_record(s, oracle={"n_max": 8, "gap": 1e-9, "drift": math.nan,
                                       "matched": True}) for s in sols]
    payload = {"records": records, 1: [], "pairs": [[-0.0, math.inf], [math.nan, 5e-324]],
               "mixed": [[1.0, 2], (3.0, 4.0), [1.0, 2.0, 3.0], [], [[1.0, 2.0]]],
               "tuple": (0.1, "a\n%s", None, False), "100%": {"x": 1.5, "%d": "%"}}
    assert json_dumps(payload) == reference_json(payload)


def test_zero_delta_squared_is_positive_zero():
    # A sector pencil eigenvalue of exactly 0 gives delta^2 = -0.0 before
    # the clamp. At this g the z coefficient of L1 z rounds to exactly 0,
    # so L1 maps 1 and z to parallel constants and the pencil has rank one.
    sols = solve_qes(make_spec(ModelKind.TWO_MODE, 0.09502, sector=Fraction(1, 2)), 1)
    assert sols[0].delta_squared == 0.0
    for s in sols:
        assert math.copysign(1.0, s.delta_squared) == 1.0
    proc = run("solve", "--model", "two-mode", "--sector", "1/2", "--degree", "1",
               "--g", "0.09502", "--include-rejected")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    row = dict(zip(header, rows[0]))
    assert (row["branch"], row["delta"], row["delta_squared"]) == ("degenerate-atom", "0", "0")


def test_parser_reused_in_process_matches_fresh_processes(capsys):
    # One parser serves every main() call of a process: a usage error
    # leaves nothing behind for the calls after it.
    from qes_rabi import cli

    for argv in [("solve", "--model", "rabi", "--g", "0.3", "--format", "xml"),
                 ("solve", "--model", "rabi", "--g", "0.3", "--degree", "2",
                  "--format", "json", "--include-rejected"),
                 ("bogus",),
                 ("sweep", "--model", "two-mode", "--sector", "1/2", "--degree", "2",
                  "--g-range", "0.1:0.5:3"),
                 ("solve", "--model", "rabi", "--g", "0.3", "--degree", "abc")]:
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        proc = run(*argv)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)


def test_cli_import_leaves_scipy_linalg_out():
    # scipy.linalg is imported on the oracle paths only.
    code = "import sys, qes_rabi.cli; sys.exit('scipy.linalg' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
    assert subprocess.run(CLI + ["--help"], capture_output=True).returncode == 0


SWEEP_ARGS = ("sweep", "--model", "two-mode", "--sector", "1/2", "--degree", "3",
              "--g-range", "0.1:0.7:4")


class TestWriterMatchesReference:
    """CLI stdout equals, byte for byte, the same table written by
    ``csv.writer`` with one formatted cell at a time (``reference_csv``),
    also for tables that end at, just before or just past a chunk of
    ``_CHUNK_ROWS`` rows."""

    @staticmethod
    def stdout(*argv, stderr_has=None):
        proc = subprocess.run(CLI + list(argv), capture_output=True)
        assert proc.returncode == 0
        if stderr_has is not None:
            assert stderr_has in proc.stderr.decode()
        return proc.stdout

    @pytest.mark.parametrize("extra", [
        (), ("--include-rejected",), ("--verify",),
        # the last --g-range wins: a grid of more than _CHUNK_ROWS records
        ("--include-rejected", "--g-range", f"0.1:0.7:{_CHUNK_ROWS}"),
    ])
    def test_sweep(self, extra):
        got = self.stdout(*SWEEP_ARGS, *extra)
        records = json.loads(self.stdout(*SWEEP_ARGS, *extra, "--format", "json"))["records"]
        header = SWEEP_HEADER.split(",")
        rejected = "--include-rejected" in extra
        rows = []
        for rec in records:
            oracle = rec.get("oracle") or {}
            res = rec["residuals"]
            rows.append([rec[c] for c in header[:9]]
                        + [res["ode"], res["bae"], res["constraint"],
                           oracle.get("gap"), oracle.get("drift")]
                        + ([rec["reject_reason"] or ""] if rejected else []))
        if rejected:
            assert any(r[-1] for r in rows)
            header.append("reject_reason")
        assert len(rows) > (_CHUNK_ROWS if "--g-range" in extra else 1)
        assert got == reference_csv(header, rows)

    def test_spectrum_with_clamped_levels(self):
        got = self.stdout("spectrum", "--model", "two-mode", "--sector", "1/2",
                          "--delta", "0.7", "--g-range", "0.1:0.5:3", "--nmax", "5",
                          "--levels", "99", stderr_has="clamped")
        rows = []
        for g in np.linspace(0.1, 0.5, 3):
            spec = make_spec(ModelKind.TWO_MODE, g, delta=0.7)
            rows += [(float(g), idx, float(e))
                     for idx, e in enumerate(parity_spectrum(spec, 5)[:99])]
        assert len(rows) == 3 * 12
        assert got == reference_csv(["g", "level_index", "energy"], rows)

    @pytest.mark.parametrize("steps", [41, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                       2 * _CHUNK_ROWS + 1])
    def test_wavefunction_nontrivial(self, steps):
        got = self.stdout("wavefunction", "--model", "two-photon", "--sector", "1/4",
                          "--degree", "3", "--g", "0.2", "--branch", "1",
                          f"--z-range=-4:-0.5:{steps}")
        sol = solve_qes(make_spec(ModelKind.TWO_PHOTON, 0.2), 3)[1]
        assert sol.branch is Branch.NONTRIVIAL
        zgrid = np.linspace(-4, -0.5, steps)
        table = wavefunction_eval(second_component(sol), zgrid)
        rows = [(float(z), table[0, i].real, table[0, i].imag,
                 table[1, i].real, table[1, i].imag) for i, z in enumerate(zgrid)]
        header = ["z", "psi_plus_re", "psi_plus_im", "psi_minus_re", "psi_minus_im"]
        assert got == reference_csv(header, rows)

    def test_wavefunction_degenerate_atom(self):
        got = self.stdout("wavefunction", "--model", "rabi", "--degree", "2",
                          "--g", "0.3", "--branch", "0", "--z-range=-3:-1:21",
                          stderr_has="psi_minus omitted")
        sol = solve_qes(make_spec(ModelKind.RABI, 0.3), 2)[0]
        assert sol.branch is Branch.DEGENERATE_ATOM
        zgrid = np.linspace(-3, -1, 21)
        rate = frame(sol.spec).prefactor_rate
        values = np.exp(-rate * zgrid) * npoly.polyval(zgrid, sol.coeffs)
        rows = [(float(z), v.real, v.imag) for z, v in zip(zgrid, values.astype(complex))]
        assert got == reference_csv(["z", "psi_plus_re", "psi_plus_im"], rows)

    @pytest.mark.parametrize("n_rows", [0, 1, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 1])
    def test_extreme_values_and_percent_signs(self, n_rows):
        # Float fields at the edges of the double range, and string fields
        # that hold the template's own "%", over n_rows rows each.
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324,
                    1.7976931348623157e308, 0.1, -2.5e-300]
        floats = [[specials[(i + j) % len(specials)] for j in range(4)] for i in range(n_rows)]
        strings = [["100%", "%s", f"{i}%%d", ""] for i in range(n_rows)]
        header = ["a", "b%", "c", "d"]
        got = "".join(csv_lines(header, np.array(floats, dtype=float).reshape(n_rows, 4)))
        assert got.encode() == reference_csv(header, floats)
        got = "".join(csv_lines(header, strings))
        assert got.encode() == reference_csv(header, strings)


def _assert_floats_exact(values, ncols=5):
    """``csv_lines`` writes ``values`` (padded with zeros to full rows of
    ``ncols``) exactly as ``FLOAT % value`` field by field."""
    values = np.asarray(values, dtype=float).ravel()
    table = np.append(values, np.zeros(-len(values) % ncols)).reshape(-1, ncols)
    header = [f"c{i}" for i in range(ncols)]
    got = "".join(csv_lines(header, table)).split("\n")
    assert got[0] == ",".join(header) and got[-1] == ""
    got = got[1:-1]
    expected = [",".join(FLOAT % v for v in row) for row in table.tolist()]
    assert len(got) == len(expected)
    bad = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    assert not bad, (f"{len(bad)} rows differ; first {table[bad[0]].tolist()!r}: "
                     f"{got[bad[0]]!r} != {expected[bad[0]]!r}")


def _neighbours(x: np.ndarray) -> np.ndarray:
    """x and its 1- and 2-ulp neighbours on both sides, of both signs."""
    up = np.nextafter(x, np.inf)
    down = np.nextafter(x, -np.inf)
    near = np.concatenate([x, up, down, np.nextafter(up, np.inf), np.nextafter(down, -np.inf)])
    return np.concatenate([near, -near])


class TestFloatRendererExact:
    """The vectorised renderer of float tables against Python's ``%`` with
    ``FLOAT``, through ``csv_lines``. Every chunk of these tables but a
    short last one has at least ``_VECTOR_MIN_FIELDS`` fields, so the
    vectorised path writes it."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20240229)
        bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
        _assert_floats_exact(bits.view(np.float64))

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        _assert_floats_exact(_neighbours(powers))

    def test_subnormals(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(1, 2**52, size=20_000, dtype=np.uint64)
        tiny = bits.view(np.float64)
        _assert_floats_exact(np.concatenate([tiny, -tiny, _neighbours(np.array([5e-324]))]))

    def test_integers_and_eighths(self):
        # an all-zero digit tail: -5 is "-5", not "-5.0000000000000000"
        _assert_floats_exact(np.arange(-2000.0, 2001.0))
        _assert_floats_exact(np.arange(-16000, 16001) / 8)

    def test_ties_and_notation_thresholds(self):
        ties = [1 + 2.0**-17, 2.0**-17, 0.5 + 2.0**-18, 1e15 + 0.25, 2.0**52 + 0.5]
        thresholds = [9.9999999999999995e-05, 1e-4, 1e-5, 1e16, 1e17, 99999999999999984.0,
                      1e17 - 16, 1e-4 * (1 - 2.0**-52)]
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan]
        values = np.array((ties + thresholds + specials) * 30)
        _assert_floats_exact(np.concatenate([values, -values]))
        text = "".join(csv_lines(["a", "b"], values.reshape(-1, 2)))
        got = text.replace("\n", ",").split(",")[2:]
        assert got[0:3] == ["1.0000076293945312", "7.62939453125e-06", "0.50000381469726562"]
        assert got[5:10] == ["9.9999999999999991e-05", "0.0001", "1.0000000000000001e-05",
                             "10000000000000000", "1e+17"]
        assert got[13:18] == ["0", "-0", "inf", "-inf", "nan"]

    @pytest.mark.parametrize("ncols", [2, 3, 5])
    @pytest.mark.parametrize("rows", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                      2 * _CHUNK_ROWS + 1])
    def test_chunk_boundaries(self, rows, ncols):
        assert _CHUNK_ROWS * ncols >= _VECTOR_MIN_FIELDS
        rng = np.random.default_rng(rows * ncols)
        values = rng.standard_normal(rows * ncols) * 10.0 ** rng.integers(-8, 20, rows * ncols)
        values[::97] = math.nan
        values[5::89] = 0.0
        _assert_floats_exact(values, ncols)


@pytest.mark.parametrize("argv", [
    ("wavefunction", "--model", "rabi", "--g", "0.3", "--degree", "2",
     "--branch", "1", "--z-range=-5:5:5001"),
    ("sweep", "--model", "rabi", "--degree", "3", "--include-rejected",
     "--g-range", "0.01:0.45:800"),
    ("spectrum", "--model", "rabi", "--delta", "0.5", "--g-range", "0:0.5:2001",
     "--nmax", "8"),
])
def test_closed_stdout_exits_quietly(argv):
    # The output is far larger than a pipe buffer, so the reader closes
    # the pipe while the command is still writing.
    proc = subprocess.Popen(CLI + list(argv), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == ""


class TestWavefunction:
    def test_upper_component_vanishes_at_root(self):
        root = -41.0 / 30.0
        zr = f"{root - 1}:{root + 1}:3"
        proc = run("wavefunction", "--model", "rabi", "--degree", "1",
                   "--g", "0.3", "--branch", "1", f"--z-range={zr}")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert ",".join(header) == "z,psi_plus_re,psi_plus_im,psi_minus_re,psi_minus_im"
        mid = rows[1]
        assert abs(float(mid[1])) <= 1e-12 and abs(float(mid[2])) <= 1e-12
        # lower component is a nonzero constant times the prefactor here
        assert abs(float(mid[3])) > 0.1

    def test_origin_value(self):
        proc = run("wavefunction", "--model", "two-mode", "--sector", "1/2",
                   "--degree", "1", "--g", "0.6", "--branch", "1",
                   "--z-range=-1:1:3")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        origin = [r for r in rows if float(r[0]) == 0.0][0]
        assert float(origin[1]) == pytest.approx(0.9, abs=1e-12)

    def test_degenerate_branch_omits_lower_component(self):
        proc = run("wavefunction", "--model", "rabi", "--degree", "1",
                   "--g", "0.3", "--branch", "0", "--z-range=-1:1:5")
        assert proc.returncode == 0
        assert "psi_minus omitted" in proc.stderr
        header, rows = parse_csv(proc.stdout)
        assert header == ["z", "psi_plus_re", "psi_plus_im"]

    def test_rejected_branch_warns(self):
        # Branch 20 of Rabi M = 30, g = 0.4 fails its residual gates; its
        # state is still written, with one warning line.
        sols = solve_qes(make_spec(ModelKind.RABI, 0.4), 30)
        assert (sols[1].reject_reason, sols[20].reject_reason) == (None, "residual")
        argv = ("wavefunction", "--model", "rabi", "--g", "0.4", "--degree", "30")
        rejected, accepted = run(*argv, "--branch", "20"), run(*argv, "--branch", "1")
        assert (rejected.returncode, accepted.returncode) == (0, 0)
        assert rejected.stderr == ("warning: branch 20 is rejected (residual): "
                                   "its state is written unchecked\n")
        assert accepted.stderr == ""
        assert len(parse_csv(rejected.stdout)[1]) == len(parse_csv(accepted.stdout)[1]) == 201

    def test_branch_out_of_range(self):
        proc = run("wavefunction", "--model", "rabi", "--degree", "1",
                   "--g", "0.3", "--branch", "7")
        assert proc.returncode == 3
