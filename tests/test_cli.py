import csv
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from qes_rabi import ModelKind
from conftest import dense_hamiltonian, make_spec

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

    def test_byte_determinism(self):
        args = ("sweep", "--model", "two-mode", "--sector", "1/2", "--degree", "2",
                "--g-range", "0.1:0.6:6", "--format", "json")
        a, b = run(*args), run(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(json.loads(a.stdout), SWEEP_SCHEMA)

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
])
def test_invalid_input_exits_2_with_payload(argv):
    proc = run(*argv)
    assert proc.returncode == 2
    err = json.loads(proc.stdout)
    assert err["code"] == "ValidationError"
    assert err["message"]
    assert "Traceback" not in proc.stderr
    if "--nmax" in argv:
        # n_max is checked before --levels is clamped to the dimension.
        assert "n_max" in err["message"]
        assert "clamped" not in proc.stderr


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


@pytest.mark.parametrize("argv", [
    ("wavefunction", "--model", "rabi", "--g", "0.3", "--degree", "2",
     "--branch", "1", "--z-range=-5:5:5001"),
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

    def test_branch_out_of_range(self):
        proc = run("wavefunction", "--model", "rabi", "--degree", "1",
                   "--g", "0.3", "--branch", "7")
        assert proc.returncode == 3
