"""Solve bytes must not depend on the BLAS thread count.

One fixed solve set runs in two subprocesses, with OPENBLAS_NUM_THREADS=1
and =2, and the hashed bytes of every branch's delta^2, roots, coefficients
and residuals are compared.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

# (model, sector, g, degree) at omega = 1.
SOLVE_SET = (
    [("rabi", None, g, m) for m in (30, 60, 100) for g in (0.25, 0.4, 0.7)]
    + [("two-mode", "1/2", 0.5, m) for m in (20, 40, 80)]
    + [("two-photon", "1/4", 0.3, m) for m in (20, 40, 60)]
)

CHILD = """
import hashlib, json, sys
import numpy as np
from fractions import Fraction
from qes_rabi import ModelKind, ModelSpec, solve_qes

out = []
for model, sector, g, degree in json.loads(sys.argv[1]):
    spec = ModelSpec(ModelKind(model), 1.0, g, sector=None if sector is None else Fraction(sector))
    h = hashlib.sha256()
    for s in solve_qes(spec, degree):
        bae = np.nan if s.bae_residual is None else s.bae_residual
        h.update(np.array([s.delta_squared, s.ode_residual, bae, s.constraint_residual]).tobytes())
        h.update(np.asarray(s.roots, dtype=complex).tobytes())
        h.update(s.coeffs.tobytes())
    out.append(h.hexdigest())
print(json.dumps(out))
"""


def solve_digests(cases, threads: int) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(cases)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("cases", [
    pytest.param(SOLVE_SET, id="fixed-set"),
    pytest.param([("rabi", None, 0.4, 150)], id="rabi-150", marks=pytest.mark.xfail(
        strict=False, reason="Rabi M=150 bytes vary with the thread count; see the "
                             "FOUND line on thread-dependent eigensolves in CHANGES.md")),
])
def test_solve_bytes_independent_of_thread_count(cases):
    one, two = (solve_digests(cases, threads) for threads in (1, 2))
    assert one == two
