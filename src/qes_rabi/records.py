"""Juddian-point records and deterministic CSV/JSON serialization.

Every float, in CSV and JSON alike, is rendered by one rule (``FLOAT``, 17
significant digits), so re-parsing reproduces it bit-exactly; every CSV
table is written by one routine, ``csv_lines``; field order is fixed, so
identical invocations produce byte-identical output. ``csv_lines`` hands
out a table as its header line and then one string per chunk of up to
``_CHUNK_ROWS`` rows, each made by one ``%`` of the line template repeated
over the chunk's values, so a caller writes a chunk at a time.
"""
from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring
from typing import Any, Iterator, Sequence

import numpy as np

from .solver import QesSolution

SWEEP_COLUMNS = (
    "model", "sector", "degree", "omega", "g", "delta", "delta_squared",
    "energy", "branch", "ode_residual", "bae_residual",
    "constraint_residual", "oracle_gap", "oracle_drift",
)


def record_csv_row(record: dict, include_rejected: bool) -> list[str]:
    """One CSV row in SWEEP_COLUMNS order, plus reject_reason on request."""
    oracle = record.get("oracle") or {}
    row = [
        record["model"],
        record["sector"],
        fmt(record["degree"]),
        fmt(record["omega"]),
        fmt(record["g"]),
        fmt(record["delta"]),
        fmt(record["delta_squared"]),
        fmt(record["energy"]),
        record["branch"],
        fmt(record["residuals"]["ode"]),
        fmt(record["residuals"]["bae"]),
        fmt(record["residuals"]["constraint"]),
        fmt(oracle.get("gap")),
        fmt(oracle.get("drift")),
    ]
    if include_rejected:
        row.append(record["reject_reason"] or "")
    return row


SPECTRUM_COLUMNS = ("g", "level_index", "energy")

WAVEFUNCTION_COLUMNS = ("z", "psi_plus_re", "psi_plus_im",
                        "psi_minus_re", "psi_minus_im")

FLOAT = "%.17g"  # the one float rule: 17 significant digits round-trip


def fmt(value: Any) -> str:
    """One mixed CSV field: a float by ``FLOAT``, None empty, else str."""
    if isinstance(value, float):
        return FLOAT % value
    return "" if value is None else str(value)


_CHUNK_ROWS = 256  # rows per string csv_lines yields


def csv_lines(header: Sequence[str], rows: Sequence[Sequence] | np.ndarray,
              field: str = "%s") -> Iterator[str]:
    """The CSV writer: the header line, then the rows as LF-ended lines, one
    string per chunk of up to ``_CHUNK_ROWS`` rows. Every line has one
    template of ``field`` per column (``FLOAT`` for a 2-D array of numbers,
    the default for ``record_csv_row`` strings); a chunk is one ``%`` of that
    line repeated over the chunk's flattened values. No field is quoted."""
    yield ",".join(header) + "\n"
    line = ",".join([field] * len(header)) + "\n"
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        values = (chunk.ravel().tolist() if isinstance(chunk, np.ndarray)
                  else chain.from_iterable(chunk))
        yield line * len(chunk) % tuple(values)


def build_record(solution: QesSolution, oracle: dict | None = None) -> dict:
    """JuddianPointRecord for one solution: the residuals the solve stored
    and the solution's ``reject_reason``. Records with a reject reason are
    emitted only on request.
    """
    spec = solution.spec
    record = {
        "model": spec.kind.value,
        "sector": "" if spec.sector is None else str(spec.sector),
        "degree": solution.degree,
        "omega": spec.omega,
        "g": spec.g,
        "delta": solution.delta,
        "delta_squared": solution.delta_squared,
        "energy": solution.energy,
        "roots": np.column_stack((solution.roots.real, solution.roots.imag)).tolist(),
        "residuals": {"ode": solution.ode_residual, "bae": solution.bae_residual,
                      "constraint": solution.constraint_residual},
        "branch": solution.branch.value,
        "reject_reason": solution.reject_reason,
    }
    if oracle is not None:
        record["oracle"] = oracle
    return record


def json_dumps(obj: Any) -> str:
    """Serialize with deterministic float formatting (``FLOAT``)."""
    parts: list[str] = []
    _write_json(obj, parts)
    return "".join(parts)


def _write_json(obj: Any, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, float):
        parts.append(FLOAT % obj)
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, str):
        parts.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(",")
            _write_json(str(key), parts)
            parts.append(":")
            _write_json(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(",")
            _write_json(value, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
