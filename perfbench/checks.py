"""Correctness checks on CLI output, independent of the library's code.

Nothing here imports ``qes_rabi``. The column contract is restated from the
README; closed-form energies, Bargmann prefactor rates and Hamiltonians are
rebuilt from raw boson matrix elements. Checks compare numbers with
tolerances, never exact bytes, so an accuracy fix in the library does not
count as a failure.

Conventions (omega = 1 in every workload, kept general here):
  rabi        H = omega a+a + delta sz + g sx (a + a+)
  two-photon  H = omega a+a + delta sz + g sx (a^2 + a+^2)
  two-mode    H = omega (a1+a1 + a2+a2) + delta sz + g sx (a1 a2 + a1+ a2+),
              restricted to the conserved imbalance n1 - n2 = 2 kappa - 1.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

import numpy as np
import scipy.linalg

SWEEP_COLUMNS = ["model", "sector", "degree", "omega", "g", "delta", "delta_squared",
                 "energy", "branch", "ode_residual", "bae_residual",
                 "constraint_residual", "oracle_gap", "oracle_drift"]
SPECTRUM_COLUMNS = ["g", "level_index", "energy"]
WAVEFUNCTION_COLUMNS = ["z", "psi_plus_re", "psi_plus_im", "psi_minus_re", "psi_minus_im"]
RECORD_KEYS = {"model", "sector", "degree", "omega", "g", "delta", "delta_squared",
               "energy", "roots", "residuals", "branch", "reject_reason"}

RESIDUAL_GATE = 1e-8
ENERGY_RTOL = 1e-12
SPECTRUM_TOL = 1e-8
DENSE_TOL = 1e-7

# Truncations for the dense check: photons (rabi, two-photon) or pairs
# (two-mode). Chosen so that energies in the workloads' coupling domains
# converge far below DENSE_TOL.
DENSE_CUTOFF = {"rabi": 160, "two-photon": 640, "two-mode": 400}


class CheckError(Exception):
    """Output of one call violates the contract or the physics."""


def closed_form_energy(model: str, sector: str | None, g: float, degree: int,
                       omega: float = 1.0) -> float:
    if model == "rabi":
        return omega * (degree - g * g / omega ** 2)
    x = float(Fraction(sector))
    if model == "two-photon":
        return -0.5 * omega + 2.0 * (degree + x) * omega * math.sqrt(1.0 - 4.0 * g * g / omega ** 2)
    return -omega + 2.0 * (degree + x) * omega * math.sqrt(1.0 - g * g / omega ** 2)


def prefactor_rate(model: str, g: float, omega: float = 1.0) -> float:
    """Rate of the Bargmann prefactor exp(-rate z) of every eigenfunction."""
    if model == "rabi":
        return g / omega
    if model == "two-photon":
        return omega / (4.0 * g) * (1.0 - math.sqrt(1.0 - 4.0 * g * g / omega ** 2))
    return omega / g * (1.0 - math.sqrt(1.0 - g * g / omega ** 2))


def _boson_chain(model: str, sector: str | None, g: float, omega: float,
                 cutoff: int, parity_only: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field levels: energies, and the (i, j, amplitude) couplings g<j|V|i>.

    ``parity_only`` keeps, for two-photon, only the photon numbers of the
    sector (even for 1/4, odd for 3/4); otherwise all photon numbers.
    """
    if model == "rabi":
        n = np.arange(cutoff + 1, dtype=float)
        i = np.arange(cutoff)
        return omega * n, np.stack([i, i + 1]), g * np.sqrt(n[1:])
    if model == "two-photon":
        if parity_only:
            first = 0 if Fraction(sector) == Fraction(1, 4) else 1
            m = first + 2 * np.arange(cutoff + 1, dtype=float)
            i = np.arange(cutoff)
            return omega * m, np.stack([i, i + 1]), g * np.sqrt((m[:-1] + 1) * (m[:-1] + 2))
        m = np.arange(cutoff + 1, dtype=float)
        i = np.arange(cutoff - 1)
        return omega * m, np.stack([i, i + 2]), g * np.sqrt((m[:-2] + 1) * (m[:-2] + 2))
    imbalance = int(2 * Fraction(sector) - 1)
    n2 = np.arange(cutoff + 1, dtype=float)
    n1 = n2 + imbalance
    i = np.arange(cutoff)
    return omega * (n1 + n2), np.stack([i, i + 1]), g * np.sqrt((n1[:-1] + 1) * (n2[:-1] + 1))


def hamiltonian(model: str, sector: str | None, g: float, delta: float, cutoff: int,
                omega: float = 1.0, parity_only: bool = False) -> np.ndarray:
    """Dense H over field levels x {sz = +1, -1}; index = 2 * level + spin."""
    diag, (i, j), amp = _boson_chain(model, sector, g, omega, cutoff, parity_only)
    dim = 2 * len(diag)
    h = np.zeros((dim, dim))
    idx = np.arange(len(diag))
    h[2 * idx, 2 * idx] = diag + delta
    h[2 * idx + 1, 2 * idx + 1] = diag - delta
    # sx flips the spin: g sx V couples (level i, s) with (level j, -s).
    h[2 * i, 2 * j + 1] = h[2 * j + 1, 2 * i] = amp
    h[2 * i + 1, 2 * j] = h[2 * j, 2 * i + 1] = amp
    return h


def dense_gap(model: str, sector: str | None, g: float, delta: float, energy: float) -> float:
    """Distance from ``energy`` to the nearest level of the dense H."""
    h = hamiltonian(model, sector, g, delta, DENSE_CUTOFF[model])
    ev = scipy.linalg.eigh(h, eigvals_only=True,
                           subset_by_value=(energy - 0.5, energy + 0.5))
    return float(np.min(np.abs(ev - energy))) if len(ev) else math.inf


def lowest_levels(model: str, sector: str | None, g: float, delta: float,
                  n_max: int, levels: int) -> np.ndarray:
    """Lowest levels at the CLI's truncation, by a banded eigensolver."""
    h = hamiltonian(model, sector, g, delta, n_max, parity_only=True)
    bw = 3
    bands = np.zeros((bw + 1, h.shape[0]))
    for k in range(bw + 1):
        bands[bw - k, k:] = np.diagonal(h, k)
    return scipy.linalg.eig_banded(bands, eigvals_only=True, select="i",
                                   select_range=(0, levels - 1))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _num(text: str) -> float:
    value = float(text)
    _require(math.isfinite(value), f"non-finite number {text!r}")
    return value


def _grid(p: dict, lo: str, hi: str) -> np.ndarray:
    return np.linspace(p[lo], p[hi], p["steps"])


def _check_record(call, rec: dict) -> bool:
    """Check one sweep record (CSV row as dict, or JSON record); True if accepted."""
    p = call.params
    _require(rec["model"] == call.model, f"model {rec['model']!r}")
    _require(rec["sector"] == (call.sector or ""), f"sector {rec['sector']!r}")
    _require(int(rec["degree"]) == p["degree"], f"degree {rec['degree']}")
    g = float(rec["g"])
    _require(np.min(np.abs(_grid(p, "g_min", "g_max") - g)) <= 1e-12, f"g {g} off grid")
    d2, delta = float(rec["delta_squared"]), float(rec["delta"])
    _require(d2 >= 0 and _close(delta, math.sqrt(d2), 1e-12), f"delta {delta} vs delta^2 {d2}")
    _require(rec["branch"] in ("nontrivial", "degenerate-atom"), f"branch {rec['branch']!r}")
    reject = rec["reject_reason"] or None
    _require(reject in (None, "residual", "degenerate-atom"), f"reject_reason {reject!r}")
    _require((rec["branch"] == "degenerate-atom") == (reject == "degenerate-atom"),
             "degenerate-atom branch and reason disagree")
    if reject is not None:
        return False
    energy = float(rec["energy"])
    expect = closed_form_energy(call.model, call.sector, g, p["degree"])
    _require(_close(energy, expect, ENERGY_RTOL), f"energy {energy!r} != closed form {expect!r}")
    _require(float(rec["ode"]) <= RESIDUAL_GATE, f"accepted ode residual {rec['ode']}")
    _require(float(rec["constraint"]) <= RESIDUAL_GATE * max(1.0, d2),
             f"accepted constraint residual {rec['constraint']}")
    return True


def _check_sweep_csv(call, text: str, index: int, sample: list) -> int:
    p = call.params
    rows = list(csv.reader(io.StringIO(text)))
    header = SWEEP_COLUMNS + (["reject_reason"] if p["include_rejected"] else [])
    _require(len(rows) >= 1 and rows[0] == header, f"header {rows[:1]}")
    accepted = 0
    keys = [{"ode_residual": "ode", "constraint_residual": "constraint"}.get(c, c)
            for c in header]
    previous = None
    for row in rows[1:]:
        _require(len(row) == len(header), f"row has {len(row)} fields")
        rec = dict(zip(keys, row))
        rec.setdefault("reject_reason", None)
        order = (float(rec["g"]), float(rec["delta_squared"]))
        _require(previous is None or order >= previous, "rows not sorted by (g, delta^2)")
        previous = order
        oracle_set = rec["oracle_gap"] != "" and rec["oracle_drift"] != ""
        if p["verify"] and rec["branch"] == "nontrivial":
            _require(oracle_set and _num(rec["oracle_gap"]) >= 0, "oracle columns missing")
        elif not p["verify"]:
            _require(rec["oracle_gap"] == rec["oracle_drift"] == "", "oracle columns set")
        if _check_record(call, rec):
            accepted += 1
            sample.append((index, call.model, call.sector, float(rec["g"]),
                           float(rec["delta"]), float(rec["energy"])))
    return accepted


def _check_sweep_json(call, text: str, index: int, sample: list) -> int:
    p = call.params
    _require(text.endswith("\n") and text.count("\n") == 1, "JSON output is not one line")
    doc = json.loads(text)
    _require(doc["command"] == "sweep" and doc["model"] == call.model
             and doc["degree"] == p["degree"], "JSON header fields")
    grid = doc["grid"]
    _require(grid["steps"] == p["steps"] and _close(grid["g_min"], p["g_min"], 1e-15)
             and _close(grid["g_max"], p["g_max"], 1e-15), f"grid {grid}")
    accepted = 0
    for rec in doc["records"]:
        _require(RECORD_KEYS <= set(rec), f"record keys {sorted(rec)}")
        _require(len(rec["roots"]) == p["degree"], "root count != degree")
        flat = dict(rec, ode=rec["residuals"]["ode"], constraint=rec["residuals"]["constraint"])
        if _check_record(call, flat):
            accepted += 1
            sample.append((index, call.model, call.sector, rec["g"], rec["delta"], rec["energy"]))
    return accepted


def _check_spectrum(call, text: str) -> None:
    p = call.params
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[:1] == [SPECTRUM_COLUMNS], f"header {rows[:1]}")
    levels = p["levels"]
    grid = _grid(p, "g_min", "g_max")
    _require(len(rows) - 1 == len(grid) * levels, f"{len(rows) - 1} rows")
    for k, g in enumerate(grid):
        block = rows[1 + k * levels: 1 + (k + 1) * levels]
        _require(all(abs(float(r[0]) - g) <= 1e-12 for r in block), f"g column at {g}")
        _require([int(r[1]) for r in block] == list(range(levels)), "level_index column")
        got = np.array([_num(r[2]) for r in block])
        ref = lowest_levels(call.model, call.sector, float(g), p["delta"], p["n_max"], levels)
        worst = float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))
        _require(worst <= SPECTRUM_TOL, f"spectrum at g={g} off by {worst:.3g}")


def _check_wavefunction(call, text: str) -> None:
    p = call.params
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[:1] == [WAVEFUNCTION_COLUMNS], f"header {rows[:1]}")
    table = np.array([[_num(x) for x in r] for r in rows[1:]])
    _require(table.shape == (p["steps"], 5), f"table shape {table.shape}")
    z = table[:, 0]
    _require(np.allclose(z, np.linspace(p["z_min"], p["z_max"], p["steps"]), rtol=0, atol=1e-12),
             "z column")
    _require(not table[:, [2, 4]].any(), "imaginary parts on a real z grid")
    # Each component is exp(-rate z) times a polynomial: the upper one of
    # degree exactly M, the lower one of degree at most M - 1 (the solvable
    # factor lowers the degree at the quasi-exact energy).
    undo = np.exp(prefactor_rate(call.model, p["g"]) * z)
    plus, minus = table[:, 1] * undo, table[:, 3] * undo
    degree = p["degree"]
    _require(_fit_residual(z, plus, degree) <= 1e-9, f"psi_plus is not exp*poly of degree {degree}")
    _require(_fit_residual(z, plus, degree - 1) > 1e-6, f"psi_plus has degree < {degree}")
    _require(_fit_residual(z, minus, degree - 1) <= 1e-9,
             f"psi_minus is not exp*poly of degree {degree - 1}")


def _fit_residual(z: np.ndarray, y: np.ndarray, degree: int) -> float:
    """Max residual of the least-squares degree-``degree`` fit, over max|y|."""
    scale = float(np.max(np.abs(y)))
    _require(scale > 0, "wavefunction component vanishes")
    fit = np.polynomial.Chebyshev.fit(z, y, degree)
    return float(np.max(np.abs(fit(z) - y))) / scale


def check_call(call, index: int, code: int, text: str, sample: list) -> None:
    """Raise CheckError unless ``text`` and ``code`` are a correct answer.

    Accepted sweep records are appended to ``sample`` as
    (call index, model, sector, g, delta, energy) for the dense check.
    """
    if call.command == "sweep":
        if call.params["format"] == "json":
            accepted = _check_sweep_json(call, text, index, sample)
        else:
            accepted = _check_sweep_csv(call, text, index, sample)
        # Exit 0 exactly when an accepted nontrivial record exists.
        _require(code == (0 if accepted else 3), f"exit code {code} with {accepted} accepted")
    elif call.command == "spectrum":
        _require(code == 0, f"exit code {code}")
        _check_spectrum(call, text)
    else:
        _require(code == 0, f"exit code {code}")
        _check_wavefunction(call, text)


def check_dense_sample(sample: list, seed: int, count: int) -> list[tuple[int, str]]:
    """Dense-Hamiltonian check of ``count`` seeded accepted records.

    Returns (call index, message) for each record whose energy is not a
    level of H at its (g, delta).
    """
    rng = random.Random(f"dense:{seed}")
    picked = rng.sample(sample, min(count, len(sample)))
    failures = []
    for index, model, sector, g, delta, energy in picked:
        gap = dense_gap(model, sector, g, delta, energy)
        if gap > DENSE_TOL * max(1.0, abs(energy)):
            failures.append((index, f"dense check: E={energy!r} at g={g!r}, "
                                    f"delta={delta!r} is {gap:.3g} from the spectrum"))
    return failures
