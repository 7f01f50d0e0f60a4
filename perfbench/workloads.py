"""Seeded CLI workloads for the qes-rabi benchmark.

A workload is one pass: a fixed list of ``qes_rabi.cli.main(argv)`` calls.
The seed only jitters the coupling windows (and the spectrum's delta) inside
each model's validity domain; models, sectors, degrees and grid sizes are
fixed, so every seed asks for the same amount of work of the same kind.

Four parts each stress one layer. The benchmark runs them in two pairs,
``verify-spectrum`` (the oracle's two uses) and ``deep-export`` (the solver
and the write path), so that every layer is busy in one workload and idle
or nearly so in the other, and each run can be long enough to average out
the host's slow phases (see README.md). Each part also runs on its own.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

# Coupling domains with omega = 1, kept clear of the collapse boundaries
# (2g -> 1 for two-photon, g -> 1 for two-mode) where truncation converges
# slowly and the oracle's window would be exceeded.
G_DOMAIN = {
    "rabi": (0.05, 0.5),
    "two-photon": (0.05, 0.42),
    "two-mode": (0.05, 0.85),
}

MODEL_SECTORS = (
    ("rabi", None),
    ("two-photon", "1/4"),
    ("two-photon", "3/4"),
    ("two-mode", "1/2"),
    ("two-mode", "1"),
)

DEFAULT_N_MAX = {"rabi": 64, "two-photon": 256, "two-mode": 256}

# Share of a window's width by which each end may move inwards.
JITTER = 0.1


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what the checker needs to judge its output."""

    argv: tuple[str, ...]
    command: str
    model: str
    sector: str | None
    params: dict = field(default_factory=dict)

    @property
    def points(self) -> int:
        """g-grid points evaluated (sweep and spectrum calls)."""
        return self.params.get("steps", 0) if self.command in ("sweep", "spectrum") else 0


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _windows(rng: random.Random, model: str, count: int,
             upto: float = 1.0) -> list[tuple[float, float]]:
    """``count`` adjacent jittered sub-windows of the lower ``upto`` share
    of the model's g domain."""
    lo, hi = G_DOMAIN[model]
    span = (hi - lo) * upto / count
    out = []
    for i in range(count):
        a = lo + i * span + rng.uniform(0.0, JITTER) * span
        b = lo + (i + 1) * span - rng.uniform(0.0, JITTER) * span
        out.append((float(_fmt(a)), float(_fmt(b))))
    return out


def _model_args(model: str, sector: str | None) -> list[str]:
    return ["--model", model] + ([] if sector is None else ["--sector", sector])


def _sweep(model, sector, degree, window, steps, *, verify=False,
           include_rejected=False, fmt="csv") -> Call:
    a, b = window
    argv = ["sweep", *_model_args(model, sector), "--degree", str(degree),
            "--g-range", f"{_fmt(a)}:{_fmt(b)}:{steps}"]
    if verify:
        argv.append("--verify")
    if include_rejected:
        argv.append("--include-rejected")
    if fmt != "csv":
        argv += ["--format", fmt]
    return Call(tuple(argv), "sweep", model, sector, {
        "degree": degree, "g_min": a, "g_max": b, "steps": steps,
        "verify": verify, "include_rejected": include_rejected, "format": fmt,
        "tol": 1e-8,
    })


def verify_sweep(rng: random.Random) -> list[Call]:
    """``sweep --verify`` on every model and sector family, degrees 2-5.

    The oracle's doubled-truncation match dominates; the solver residuals
    are a few percent.
    """
    calls = []
    for model, sector in MODEL_SECTORS:
        steps = 6 if model == "rabi" else 3
        for degree in (2, 3, 4, 5):
            window = _windows(rng, model, 1)[0]
            calls.append(_sweep(model, sector, degree, window, steps, verify=True))
    return calls


def deep_sweep(rng: random.Random) -> list[Call]:
    """``sweep --include-rejected`` at high degree, oracle off.

    The root-system (BAE) residual dominates on the sector models; on Rabi
    the eigensolve, roots and ODE residual share the time. Rabi M=30 keeps
    today's residual rejections in view through accepted_ratio.
    """
    calls = []
    for model, sector in (("two-mode", "1/2"), ("two-photon", "1/4")):
        for degree in (10, 11, 12):
            window = _windows(rng, model, 1)[0]
            calls.append(_sweep(model, sector, degree, window, 2, include_rejected=True))
    for degree in range(24, 31):
        for window in _windows(rng, "rabi", 2):
            calls.append(_sweep("rabi", None, degree, window, 2, include_rejected=True))
    return calls


def spectrum_grid(rng: random.Random) -> list[Call]:
    """``spectrum`` with 10 levels at the default n_max on every model.

    The dense build plus eigvalsh dominates; the solver is never called.
    """
    calls = []
    for model, sector in MODEL_SECTORS:
        steps = 40 if model == "rabi" else 6
        for window in _windows(rng, model, 4):
            delta = float(_fmt(rng.uniform(0.3, 1.2)))
            a, b = window
            argv = ["spectrum", *_model_args(model, sector), "--delta", _fmt(delta),
                    "--g-range", f"{_fmt(a)}:{_fmt(b)}:{steps}"]
            calls.append(Call(tuple(argv), "spectrum", model, sector, {
                "delta": delta, "g_min": a, "g_max": b, "steps": steps,
                "levels": 10, "n_max": DEFAULT_N_MAX[model],
            }))
    return calls


def export(rng: random.Random) -> list[Call]:
    """The write path: wavefunction tables and JSON sweeps.

    ``wavefunction`` on ~4000-point z grids, plus short ``sweep --format
    json --include-rejected`` calls at low degree; serialization dominates.
    Couplings stay in the lower part of each domain, where degrees 1-3
    always have an accepted nontrivial branch 1.
    """
    calls = []
    for model, sector in MODEL_SECTORS:
        lo, hi = G_DOMAIN[model]
        for degree in (1, 2, 3):
            for share in (0.15, 0.35):
                g = float(_fmt(lo + (hi - lo) * (share + rng.uniform(0.0, 0.1))))
                steps = 4000 + rng.randrange(0, 64)
                argv = ["wavefunction", *_model_args(model, sector), "--degree", str(degree),
                        "--g", _fmt(g), "--branch", "1", f"--z-range=-5:5:{steps}"]
                calls.append(Call(tuple(argv), "wavefunction", model, sector, {
                    "degree": degree, "g": g, "branch": 1,
                    "z_min": -5.0, "z_max": 5.0, "steps": steps,
                }))
            window = _windows(rng, model, 1, upto=0.6)[0]
            calls.append(_sweep(model, sector, degree, window, 10,
                                include_rejected=True, fmt="json"))
    return calls


WORKLOADS = {
    "verify-spectrum": lambda rng: verify_sweep(rng) + spectrum_grid(rng),
    "deep-export": lambda rng: deep_sweep(rng) + export(rng),
    "verify-sweep": verify_sweep,
    "deep-sweep": deep_sweep,
    "spectrum-grid": spectrum_grid,
    "export": export,
}


def generate(name: str, seed: int) -> list[Call]:
    """The call list of one pass of workload ``name`` for ``seed``."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
