"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. The Juddian catalog fixture solves every (model, degree,
coupling) cell used by the oracle-equivalence, consistency and negative-
control criteria, so those share one solution set.
"""
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from qes_rabi import (
    Branch,
    ModelKind,
    frame,
    match_energy,
    parity_spectrum,
    qes_energy,
    second_component,
    solve_qes,
    su11_elements,
)
from conftest import bae_gate, band, make_spec, operator, random_specs

# Admissible coupling grids for the oracle-equivalence criterion: spread
# over the interior of each validity domain, where branches exist robustly
# for all degrees 1..6.
CRITERION4_GRIDS = {
    ModelKind.RABI: (None, np.linspace(0.05, 0.45, 10), 64),
    ModelKind.TWO_PHOTON: (Fraction(1, 4), np.linspace(0.05, 0.35, 10), 256),
    ModelKind.TWO_MODE: (Fraction(1, 2), np.linspace(0.05, 0.7, 10), 256),
}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def nontrivial(solutions):
    return [s for s in solutions if s.branch is Branch.NONTRIVIAL]


@pytest.fixture(scope="module")
def juddian_catalog():
    t0 = time.perf_counter()
    catalog = {}
    for kind, (sector, grid, _) in CRITERION4_GRIDS.items():
        for degree in range(1, 7):
            for g in grid:
                sols = nontrivial(solve_qes(make_spec(kind, float(g), sector=sector),
                                            degree))
                catalog[(kind, degree, float(g))] = sols
    return catalog, time.perf_counter() - t0


def test_criterion_1_rabi_degree_one_closed_forms():
    t0 = time.perf_counter()
    failures = []
    for g in np.linspace(0.05, 0.49, 20):
        sols = nontrivial(solve_qes(make_spec(ModelKind.RABI, float(g)), 1))
        if len(sols) != 1:
            failures.append((g, "branch count"))
            continue
        sol = sols[0]
        if abs(sol.delta_squared + 4 * g * g - 1.0) > 1e-10:
            failures.append((g, "constraint"))
        if abs(sol.roots[0] - (2 * g * g - 1.0) / (2 * g)) > 1e-10:
            failures.append((g, "root"))
        if abs(sol.energy - (1.0 - g * g)) > 1e-12:
            failures.append((g, "energy"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    report(1, ok, f"20 couplings, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_2_two_photon_degree_one_closed_forms():
    t0 = time.perf_counter()
    failures = []
    for q in (Fraction(1, 4), Fraction(3, 4)):
        x = float(q)
        for g in np.linspace(0.05, 0.45, 20):
            spec = make_spec(ModelKind.TWO_PHOTON, float(g), sector=q)
            om = frame(spec).squeeze
            d2_want = 8 * (x + 0.5) * om * om - 8 * x
            sols = nontrivial(solve_qes(spec, 1))
            if d2_want < 0:
                if sols:
                    failures.append((x, g, "branch beyond threshold"))
                continue
            if len(sols) != 1:
                failures.append((x, g, "branch count"))
                continue
            sol = sols[0]
            if abs(sol.delta_squared + 8 * x - 8 * (x + 0.5) * om * om) > 1e-10:
                failures.append((x, g, "constraint"))
            root_want = (4 * g * x * (1 - om) - 2 * g * om) / (1 - om)
            if abs(sol.roots[0] - root_want) > 1e-10:
                failures.append((x, g, "root"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    report(2, ok, f"2 sectors x 20 couplings, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_3_two_mode_degree_one_closed_forms():
    t0 = time.perf_counter()
    failures = []
    for kappa in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        x = float(kappa)
        for g in np.linspace(0.05, 0.9, 20):
            spec = make_spec(ModelKind.TWO_MODE, float(g), sector=kappa)
            lam = frame(spec).squeeze
            d2_want = 8 * (x + 0.5) * lam * lam - 8 * x
            sols = nontrivial(solve_qes(spec, 1))
            if d2_want < 0:
                if sols:
                    failures.append((x, g, "branch beyond threshold"))
                continue
            if len(sols) != 1:
                failures.append((x, g, "branch count"))
                continue
            sol = sols[0]
            if abs(sol.delta_squared + 8 * x - 8 * (x + 0.5) * lam * lam) > 1e-10:
                failures.append((x, g, "constraint"))
            root_want = g * (x - (x + 0.5) * lam) / (1 - lam)
            if abs(sol.roots[0] - root_want) > 1e-10:
                failures.append((x, g, "root"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    report(3, ok, f"3 sectors x 20 couplings, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_4_oracle_equivalence(juddian_catalog):
    catalog, build_time = juddian_catalog
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for (kind, degree, g), sols in catalog.items():
        n_max = CRITERION4_GRIDS[kind][2]
        for sol in sols:
            res = match_energy(sol.energy, sol.spec, n_max, 1e-8)
            checked += 1
            if res.gap > 1e-8 or res.truncation_drift > 1e-9:
                failures.append((kind.value, degree, g, res.gap, res.truncation_drift))
    elapsed = time.perf_counter() - t0 + build_time
    ok = not failures and elapsed < 60.0
    report(4, ok, f"{checked} branches matched, {elapsed:.1f}s")
    assert not failures, failures[:10]
    assert elapsed < 60.0


def test_criterion_5_internal_consistency(juddian_catalog):
    catalog, _ = juddian_catalog
    failures = []
    checked = 0
    for (kind, degree, g), sols in catalog.items():
        for sol in sols:
            checked += 1
            # None: the root system is singular, which a Juddian branch's is not
            if sol.bae_residual is None or sol.bae_residual > bae_gate(sol):
                failures.append((kind.value, degree, g, "bae"))
            if sol.constraint_residual > 1e-8 * max(1.0, sol.delta_squared):
                failures.append((kind.value, degree, g, "constraint"))
            if sol.ode_residual > 1e-8:
                failures.append((kind.value, degree, g, "ode"))
            wf = second_component(sol)
            if len(wf.minus_coeffs) > len(wf.plus_coeffs):
                failures.append((kind.value, degree, g, "subspace"))
    report(5, not failures, f"{checked} branches, 4 checks each")
    assert not failures, failures[:10]


def test_criterion_6_negative_control(juddian_catalog):
    catalog, _ = juddian_catalog
    failures = []
    checked = 0
    for (kind, degree, g), sols in catalog.items():
        if degree != 1:
            continue
        n_max = CRITERION4_GRIDS[kind][2]
        for sol in sols:
            bumped = sol.spec.with_delta(sol.spec.delta + 1e-3)
            res = match_energy(sol.energy, bumped, n_max, 1e-8)
            checked += 1
            if res.matched or res.gap <= 1e-5:
                failures.append((kind.value, g, res.gap))
    report(6, not failures, f"{checked} detuned degree-1 points, all gaps > 1e-5")
    assert not failures, failures


def test_criterion_7_property_suite(juddian_catalog):
    catalog, _ = juddian_catalog
    failures = []

    # su(1,1) Casimir K+K- - K0(K0-1) at 1e-12, K- on |n> being K+ on
    # |n-1>: 3/16 in both 2-photon sectors and kappa (1 - kappa) for two-mode
    sector_specs = [
        (make_spec(ModelKind.TWO_PHOTON, 0.3, sector=Fraction(1, 4)), 3.0 / 16.0),
        (make_spec(ModelKind.TWO_PHOTON, 0.3, sector=Fraction(3, 4)), 3.0 / 16.0),
        (make_spec(ModelKind.TWO_MODE, 0.5, sector=Fraction(1, 2)), 0.25),
        (make_spec(ModelKind.TWO_MODE, 0.5, sector=Fraction(1)), 0.0),
        (make_spec(ModelKind.TWO_MODE, 0.5, sector=Fraction(3, 2)), -0.75),
    ]
    for spec, want in sector_specs:
        for n in range(51):
            k0, _ = su11_elements(spec, n)
            kk = su11_elements(spec, n - 1)[1] ** 2 if n else 0.0
            if abs(kk - k0 * (k0 - 1) - want) > 1e-12:
                failures.append(("casimir", spec.sector, n))

    # termination: +1 band vanishes at the quasi-exact energy
    for kind in CRITERION4_GRIDS:
        for spec in random_specs(kind, 20, seed=2024):
            for degree in range(1, 11):
                op = operator(spec, qes_energy(spec, degree), degree + 1)
                if abs(band(op, +1, degree)) > 1e-12:
                    failures.append(("termination", kind.value, degree))

    # root antisymmetry identities on the whole catalog
    for (kind, degree, g), sols in catalog.items():
        for sol in sols:
            z = sol.roots
            m = len(z)
            if m < 2:
                continue
            pair_min = min(abs(z[i] - z[j]) for i in range(m)
                           for j in range(i + 1, m))
            if pair_min <= 1e-10 * max(1.0, np.max(np.abs(z))):
                continue
            s1 = sum(1.0 / (z[i] - z[j]) for i in range(m)
                     for j in range(m) if j != i)
            s2 = sum(z[i] / (z[i] - z[j]) for i in range(m)
                     for j in range(m) if j != i)
            if abs(s1) > 1e-9 or abs(s2 - m * (m - 1) / 2) > 1e-9:
                failures.append(("root-identities", kind.value, degree, g))

    # coupling sign flip leaves the numerical spectrum unchanged
    for kind, (sector, grid, n_max) in CRITERION4_GRIDS.items():
        g = float(grid[5])
        levels = 2 * (n_max + 1)
        a = parity_spectrum(make_spec(kind, g, sector=sector, delta=0.8), n_max, levels)
        b = parity_spectrum(make_spec(kind, -g, sector=sector, delta=0.8), n_max, levels)
        if np.max(np.abs(a - b)) > 1e-10:
            failures.append(("sign-flip", kind.value))

    report(7, not failures, "representation, termination, root identities, sign flip")
    assert not failures, failures[:10]


def test_criterion_8_cli_contract(tmp_path):
    cli = [sys.executable, "-m", "qes_rabi"]
    failures = []

    def run(*args):
        return subprocess.run(cli + list(args), capture_output=True, text=True)

    header = ("model,sector,degree,omega,g,delta,delta_squared,energy,branch,"
              "ode_residual,bae_residual,constraint_residual,oracle_gap,oracle_drift")
    sweep = run("sweep", "--model", "rabi", "--degree", "1",
                "--g-range", "0.05:0.45:9")
    if sweep.returncode != 0 or sweep.stdout.splitlines()[0] != header:
        failures.append("sweep header")
    again = run("sweep", "--model", "rabi", "--degree", "1",
                "--g-range", "0.05:0.45:9")
    if sweep.stdout != again.stdout:
        failures.append("byte determinism")

    solved = run("solve", "--model", "rabi", "--degree", "1", "--g", "0.3",
                 "--format", "json")
    try:
        payload = json.loads(solved.stdout)
        rec = payload["records"][0]
        for key in ("model", "sector", "degree", "omega", "g", "delta",
                    "delta_squared", "energy", "roots", "residuals", "branch"):
            if key not in rec:
                failures.append(f"json key {key}")
        if json.loads(solved.stdout) != payload:
            failures.append("json reparse")
        if abs(rec["delta_squared"] - 0.64) > 1e-12:
            failures.append("json value")
    except (json.JSONDecodeError, IndexError, KeyError):
        failures.append("json payload")
    if solved.returncode != 0:
        failures.append("solve exit 0")

    if run("solve", "--model", "two-photon", "--sector", "1/4", "--degree", "1",
           "--g", "0.6").returncode != 2:
        failures.append("exit 2 on invalid coupling")
    if run("solve", "--model", "two-photon", "--sector", "1/4", "--degree", "1",
           "--g", "0.42").returncode != 3:
        failures.append("exit 3 on empty result")

    report(8, not failures, "headers, schema, exit codes, determinism")
    assert not failures, failures
